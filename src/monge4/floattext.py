"""Shortest round-trip text of float64 arrays, byte for byte Python's ``repr``.

Two stages, both on numpy arrays:

* **Digits.**  Schubfach (R. Giulietti, "The Schubfach way to render
  doubles", 2020; cf. U. Adams, "Ryu", PLDI 2018) finds for each value the
  decimal d * 10^e with the fewest digits that reads back to it, and among
  those the closest, ties to even; that is the digit string of ``repr``.
  It runs in uint64 arrays, the 64 x 64 -> 128-bit products emulated with
  32-bit halves, against a table of 126-bit powers of ten that is built
  from Python ints on first use.  Unlike Java's ``Double.toString``, which
  the published code serves, there is no two-digit minimum and no integer
  fast path.
* **Text.**  The digits are laid out as ``repr`` does: positional when the
  value is d.ddd x 10^E with -4 <= E < 16, with ``.0`` on integers,
  otherwise ``d.ddde+XX``.  Each value gets a fixed slot of :data:`SLOT`
  bytes whose unused bytes are NUL; :func:`csv_lines` joins slots into
  lines and drops every NUL with one ``bytes.translate``.

Zero prints ``0.0`` whatever its sign, as ``repr(v + 0.0)``; infinities and
nan go through ``repr`` one by one.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["SLOT", "float_slots", "int_slots", "text_table", "csv_lines"]

# "-0.000", 17 digits each followed by a slot for '.', then ".0" or "e+308"
SLOT = 45
_DIGITS, _TAIL = 6, 40   # where the digits and ".0" or "e+308" start
_SLOT_FIELDS = np.dtype({"names": ["head", "tail"], "formats": ["S6", "S5"],
                         "offsets": [0, _TAIL], "itemsize": SLOT})
_COLUMN = np.arange(17, dtype=np.int8)
_E_MIN, _E_MAX = -324, 308   # decimal exponents of nonzero float64s
_CHAR = {c: ord(c) for c in "0.,\n"}

_K_MIN, _K_MAX = -324, 292   # decimal exponents k of Schubfach's table
_M32 = (1 << 32) - 1
_M63 = (1 << 63) - 1
_POW10 = np.array([10 ** i for i in range(17)], dtype=np.uint64)


def _flog10pow2(e):
    """floor(log10(2^e)), exact for |e| <= 5456721."""
    return (e * 661971961083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 2^e)), exact for |e| <= 5456721."""
    return (e * 661971961083 - 274743187321) >> 41


def _flog2pow10(e):
    """floor(log2(10^e)), exact for |e| <= 6432162."""
    return (e * 913124641741) >> 38


@functools.cache
def _table():
    """g = floor(10^-k 2^-r) + 1 for k in [_K_MIN, _K_MAX], where
    r = floor(log2(10^-k)) - 125 puts g in [2^125, 2^126), split as
    g = g1 2^63 + g0 with g0 < 2^63: the uint64 arrays g1, then the high
    and low 32-bit halves of g1 and of g0."""
    parts = [[], [], [], [], []]
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        g = ((10 ** max(-k, 0) << max(-r, 0))
             // (10 ** max(k, 0) << max(r, 0)) + 1)
        g1, g0 = g >> 63, g & _M63
        for part, v in zip(parts, (g1, g1 >> 32, g1 & _M32,
                                   g0 >> 32, g0 & _M32)):
            part.append(v)
    return tuple(np.array(part, dtype=np.uint64) for part in parts)


@functools.cache
def _affixes():
    """The text before the digits (the sign, then "0." and 0 to 3 zeros
    before a value below 1) and after them ("", ".0", "e-324" to "e+308"),
    as bytes strings."""
    lead = ["", "0.", "0.0", "0.00", "0.000"]
    return (np.array([(sign + z).encode() for sign in ("", "-") for z in lead],
                     dtype=_SLOT_FIELDS["head"]),
            np.array([b"", b".0"] + [f"e{e:+03d}".encode()
                                     for e in range(_E_MIN, _E_MAX + 1)],
                     dtype=_SLOT_FIELDS["tail"]))


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """The high 64 bits of the product of a < 2^63 and b < 2^61, given
    their 32-bit halves as uint64 arrays.  The middle sum cannot carry out:
    it is below 2^32 + 2^61 + 2^63."""
    mid = ((a_lo * b_lo) >> 32) + a_lo * b_hi + a_hi * b_lo
    return a_hi * b_hi + (mid >> 32)


def _rop(g, cp):
    """floor(g cp / 2^127), rounded to odd: its lowest bit is set when the
    quotient is not exact.  ``g`` is :func:`_table` at each k, ``cp`` is
    below 2^61."""
    g1, g1_hi, g1_lo, g0_hi, g0_lo = g
    cp_hi, cp_lo = cp >> 32, cp & _M32
    x1 = _mulhi(g0_hi, g0_lo, cp_hi, cp_lo)
    y1 = _mulhi(g1_hi, g1_lo, cp_hi, cp_lo)
    z = ((g1 * cp) >> 1) + x1       # g1 cp mod 2^64, halved, plus x1
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(bits):
    """Schubfach on the bit patterns of finite nonzero float64s: the digits
    d (uint64, below 10^17) and exponent e (int64) of the shortest decimal
    d 10^e that rounds to each value, the closest such when several do."""
    t = bits & ((1 << 52) - 1)
    bq = ((bits >> 52) & 0x7FF).astype(np.int64)
    c = np.where(bq > 0, t | (1 << 52), t)
    q = np.maximum(bq, 1) - 1075
    # the lower neighbour of a power of two (but the smallest normal) is
    # half as far as the upper one
    irregular = (t == 0) & (bq > 1)
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g = tuple(part.take(k - _K_MIN) for part in _table())
    odd = c & 1                    # an odd c excludes the interval's ends
    cb = c << 2
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - 2 + irregular) << h)
    vbr = _rop(g, (cb + 2) << h)
    # the one multiple of 10^(k+1) that may lie in the interval
    s = vb >> 2
    sp10 = s // 10 * 10
    tp10 = sp10 + 10
    upin = vbl + odd <= sp10 << 2
    wpin = (tp10 << 2) + odd <= vbr
    # else s 10^k or (s + 1) 10^k, or the closer of both, ties to even
    uin = vbl + odd <= s << 2
    win = ((s + 1) << 2) + odd <= vbr
    mid = (2 * s + 1) << 1
    upper = np.where(uin != win, win,
                     (vb > mid) | ((vb == mid) & (s & 1 == 1)))
    digits = np.where(upin != wpin, sp10 + wpin.view(np.uint8) * 10,
                      s + upper)
    return digits, k


def float_slots(values) -> np.ndarray:
    """The ``repr(float(v) + 0.0)`` text of each of the n values of
    ``values`` (any shape, read in row-major order) as a (n, :data:`SLOT`)
    uint8 array, each row the text with NUL bytes wherever it is shorter
    than the slot (between its parts too)."""
    v = np.asarray(values, dtype=np.float64).ravel()
    n = v.size
    slots = np.zeros(n, dtype=_SLOT_FIELDS)
    out = slots.view(np.uint8).reshape(n, SLOT)
    special = ~np.isfinite(v)
    regular = (v != 0.0) & ~special
    d = np.zeros(n, dtype=np.uint64)
    e10 = np.zeros(n, dtype=np.int64)
    d[regular], e10[regular] = _shortest(v.view(np.uint64)[regular])
    # strip trailing zeros: the last digit of d is nonzero, or d is 0
    rows = np.flatnonzero(regular & (d % 10 == 0))
    while rows.size:
        d[rows] //= 10
        e10[rows] += 1
        rows = rows[d[rows] % 10 == 0]
    count = np.searchsorted(_POW10[1:], d, side="right")  # digits of d - 1
    big = e10 + count                      # weight of the leading digit
    positional = (big >= -4) & (big < 16)
    # integers below 10^16 keep their zeros in d: 1e15 is 10^15 x 10^0
    shift = np.where(positional & (e10 > 0), e10, 0)
    d *= _POW10[shift]
    e10 -= shift
    count += shift
    # column j of d's 17 digits holds weight e10 + 16 - j
    digits = np.empty((n, 17), dtype=np.uint8)
    high, low = np.divmod(d, 10 ** 8)
    for part, columns in ((low.astype(np.uint32), range(16, 8, -1)),
                          (high.astype(np.uint32), range(8, -1, -1))):
        for j in columns:
            quot = part // 10
            digits[:, j] = part - quot * 10
            part = quot
    # every digit from the leading one, the last being nonzero or the units
    out[:, _DIGITS:_TAIL:2] = (digits | _CHAR["0"]) * (
        _COLUMN >= (16 - count).astype(np.int8)[:, None])
    # the point follows the units digit of the text when a fraction does
    dotted = np.flatnonzero(np.where(positional, (big >= 0) & (e10 < 0),
                                     count > 0))
    unit = np.where(positional[dotted], 0, big[dotted])
    out[dotted, _DIGITS + 1 + 2 * (e10[dotted] + 16 - unit)] = _CHAR["."]
    head, tail = _affixes()
    slots["head"] = head.take(np.where(positional & (big < 0), -big, 0)
                              + 5 * (v < 0.0))
    slots["tail"] = tail.take(np.where(positional, e10 >= 0,
                                       big + 2 - _E_MIN))
    for i in np.flatnonzero(special):
        text = repr(float(v[i])).encode("ascii")
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out


def int_slots(values) -> np.ndarray:
    """The decimal text of nonnegative integers as a (n, width) uint8
    array, width the digits of the largest, NUL in place of leading
    zeros."""
    rest = np.asarray(values, dtype=np.int64).ravel()
    width = len(str(int(rest.max(initial=0))))
    out = np.empty((rest.size, width), dtype=np.uint8)
    for j in range(width - 1, -1, -1):
        out[:, j] = ((rest > 0) | (j == width - 1)) * (rest % 10 + _CHAR["0"])
        rest = rest // 10
    return out


def text_table(strings) -> np.ndarray:
    """ASCII strings as the rows of a uint8 array, NUL-padded to the
    longest."""
    raw = [s.encode("ascii") for s in strings]
    out = np.zeros((len(raw), max(map(len, raw))), dtype=np.uint8)
    for row, text in zip(out, raw):
        row[:len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out


def csv_lines(columns) -> str:
    """Lines of text from ``columns``, uint8 arrays of NUL-padded text of
    shape (..., width) that broadcast against each other over all but the
    last axis: one line per element of that broadcast, its columns joined
    by commas and ended by LF, in row-major order."""
    shape = np.broadcast_shapes(*(col.shape[:-1] for col in columns))
    block = np.empty((*shape, sum(col.shape[-1] + 1 for col in columns)),
                     dtype=np.uint8)
    at = 0
    for col in columns:
        block[..., at:at + col.shape[-1]] = col
        block[..., at + col.shape[-1]] = _CHAR[","]
        at += col.shape[-1] + 1
    block[..., -1] = _CHAR["\n"]
    return block.tobytes().translate(None, b"\0").decode("ascii")
