#!/usr/bin/env python3
"""Check the vectorised float writer against Python's ``repr``.

    python3 scripts/check_float_text.py N [SEED]

Draws N random float64s (numpy generator seeded with SEED, default 0)
and compares the text that ``monge4.floattext`` gives each with
``repr(v + 0.0)``, block by block.  Half of every block is uniformly
random 64-bit patterns: NaNs, infinities, zeros and subnormals appear at
their share of the bit space, and only about 3.5% of them fall where
``repr`` prints positionally, |v| in [1e-5, 1e16).  The other half have a
random sign and significand and a binary exponent uniform over [-20, 56],
the range where the layout switches between ``0.000ddd``, ``ddd.ddd``,
``ddd.0`` and ``d.ddde+XX``, and where the grid's values lie.  Exits 0
when every value matches and 1 after printing the first mismatches.
"""

from __future__ import annotations

import pathlib
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from monge4 import floattext  # noqa: E402

BLOCK = 1 << 16
SHOWN = 10


def mismatches(values):
    """(text, repr) of each value whose text is not its repr."""
    got = floattext.csv_lines([floattext.float_slots(values)]).splitlines()
    expected = [repr(v + 0.0) for v in values.tolist()]
    if got == expected:
        return []
    return [(g, e) for g, e in zip(got, expected) if g != e]


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    count, seed = int(argv[0]), int(argv[1]) if len(argv) == 2 else 0
    rng = np.random.default_rng(seed)
    bad, start = [], time.perf_counter()
    for done in range(0, count, BLOCK):
        size = min(BLOCK, count - done)
        bits = rng.integers(0, 1 << 64, size=size, dtype=np.uint64)
        near = bits[size // 2:]
        near &= ~np.uint64(0x7FF << 52)
        near |= (rng.integers(-20, 57, size=near.size) + 1023).astype(
            np.uint64) << np.uint64(52)
        bad += mismatches(bits.view(np.float64))
    for got, expected in bad[:SHOWN]:
        print(f"mismatch: {got!r}, repr {expected!r}")
    if bad:
        print(f"{len(bad)} of {count} values differ from repr (seed {seed})")
        return 1
    print(f"{count} values match repr (seed {seed}, "
          f"{time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
