"""How much slower than nominal this process's CPU runs while a job runs.

On a shared host, the load of other tenants slows the virtual CPU this
process runs on by up to 2x, for seconds to minutes at a time, and each
virtual CPU independently of the other.  Wall time and process CPU time
both show it, so neither a minimum nor a median over a 30-second run is
steady: the same round of ``grid-dense`` took 2.3 s to 4.3 s within a few
minutes on a 2-core host.

While the probe runs, a SIGALRM handler times a fixed pure-Python loop every
``PERIOD_S`` seconds of wall time.  A job's slowdown is the mean loop time
over the job (at least the last ``MIN_SAMPLES`` samples, for jobs shorter
than that), divided by ``NOMINAL_S``, the loop's time on an uncontended
core.  A job's adjusted time is its wall time divided by its slowdown: the
seconds it would have taken at nominal speed.  The handler costs about 0.5%
of the process's time.

This module imports only the standard library: the set-up measurement starts
the probe before it imports ``monge4``.
"""

from __future__ import annotations

import signal
import time
from array import array

PERIOD_S = 0.005
LOOP_N = 300
NOMINAL_S = 15e-6   # the loop's time on an uncontended core of a 2.1 GHz Xeon
MIN_SAMPLES = 50
RING = 1 << 16      # 5.5 minutes of samples, longer than any run

# the cumulative loop time after sample n is _cum[n % RING]; the buffer is
# allocated once, because a handler that grew a list on the C heap pinned
# freed numpy buffers there and raised grid-dense's peak RSS by a quarter
_cum = array("d", bytes(8 * RING))
_n = 0
_total = 0.0


def _tick(signum=None, frame=None):
    global _n, _total
    t = time.perf_counter()
    x = 0
    for i in range(LOOP_N):
        x += i * i
    _total += time.perf_counter() - t
    _n += 1
    _cum[_n % RING] = _total


def start():
    """Start sampling, with ``MIN_SAMPLES`` samples taken at once."""
    for _ in range(MIN_SAMPLES):
        _tick()
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop():
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def mark() -> int:
    """A position to pass to :func:`slowdown` when the job ends."""
    return _n


def slowdown(since: int) -> float:
    """Mean loop time over the samples taken since ``since`` (at least the
    last ``MIN_SAMPLES``), divided by the nominal loop time."""
    end = _n
    first = max(0, min(since, end - MIN_SAMPLES))
    return (_cum[end % RING] - _cum[first % RING]) / (end - first) / NOMINAL_S
