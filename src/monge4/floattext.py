"""Shortest round-trip text of float64 arrays, byte for byte Python's ``repr``.

Two stages, both on numpy arrays:

* **Digits.**  Schubfach (R. Giulietti, "The Schubfach way to render
  doubles", 2020; cf. U. Adams, "Ryu", PLDI 2018) finds for each value the
  decimal d * 10^e with the fewest digits that reads back to it, and among
  those the closest, ties to even; that is the digit string of ``repr``.
  It runs in uint64 arrays, the 64 x 64 -> 128-bit products emulated with
  32-bit halves, against tables indexed by the biased exponent (and whether
  the significand field is zero) that are built on first use, the 126-bit
  powers of ten g from Python ints: k, the shift, g and g times the
  half-width of the rounding interval.  Only the value takes a product with g;
  each end of its interval is that product plus or minus the half-width,
  and is formed by its own product only where the 63 fraction bits that
  both carry leave its rounding in doubt (:func:`_ends`).  Unlike Java's
  ``Double.toString``, which the published code serves, there is no
  two-digit minimum and no integer fast path.
* **Text.**  The digits are laid out as ``repr`` does: positional when the
  value is d.ddd x 10^E with -4 <= E < 16, with ``.0`` on integers,
  otherwise ``d.ddde+XX``.  With the 17 digits D of a value, a point after
  digit p is the 18-digit integer N = D + 9 (D - D mod 10^(17-p)), whose
  digit p is 0: the digits are read off N four at a time through tables of
  their ASCII, that 0 becomes the point, and a mask keeps the digits up to
  the last nonzero one (or the ``0`` of ``.0``).  Each value gets a slot of
  :data:`SLOT` bytes: the sign and ``0.``, ``0.0`` ... before a value below
  1 (5 bytes), the 18 of N, then ``e+308`` (5), every unused byte NUL;
  :func:`csv_lines` joins slots into lines and drops every NUL with one
  ``bytes.translate``.

Zero prints ``0.0`` whatever its sign, as ``repr(v + 0.0)``; infinities and
nan go through ``repr`` one by one.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["SLOT", "float_slots", "int_slots", "text_table", "csv_lines"]

# "-0.00", the 18 digits of N (one of them the point), "e+308"; the head
# and the tail are written as 8-byte words at offsets 0 and 20, before the
# digits overwrite their last three and first three bytes
SLOT = 28
_HEAD, _TOP, _HI, _LO, _TAIL = 0, 5, 7, 15, 20
_BIG_MIN, _BIG_MAX = -324, 308   # decimal exponents of nonzero float64s
_CHAR = {c: ord(c) for c in "0.,\n"}

_K_MIN, _K_MAX = -324, 292   # decimal exponents k of Schubfach's table
_M32 = (1 << 32) - 1
_M63 = (1 << 63) - 1
_POW10 = np.array([10 ** i for i in range(18)], dtype=np.int64)
_ZERO = np.frombuffer(b"0.0".ljust(SLOT, b"\0"), dtype=np.uint8)


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
def _powers():
    """g = floor(10^-k 2^-r) + 1 for k in [_K_MIN, _K_MAX], where
    r = floor(log2(10^-k)) - 125 puts g in [2^125, 2^126), split as
    g = g1 2^63 + g0 with g0 < 2^63: the uint64 arrays g1 and g0."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        g = ((10 ** max(-k, 0) << max(-r, 0))
             // (10 ** max(k, 0) << max(r, 0)) + 1)
        g1.append(g >> 63)
        g0.append(g & _M63)
    return np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64)


@functools.cache
def _exponents():
    """For each index i = bq + 2048 z, bq the biased exponent and z = 1
    where the significand field is 0: k (int64), then as uint64 arrays the
    shift h + 2 of the significand c to 4 c 2^h, the hidden bit, g1 and g0
    of :func:`_powers` at k, and the half-widths of the rounding interval,
    times g, in units of 2^-63: the integer part and the 63 fraction bits
    of g 2^(h+1) / 2^64 above the value, and the integer part plus 1 and
    2^63 less the fraction bits of g (2 - z) 2^h / 2^64 below it (the lower
    neighbour of a power of two, but the smallest normal, is half as far
    as the upper one).  h is 2 to 5."""
    i = np.arange(4096)
    bq, zero = i & 2047, i >> 11
    q = np.maximum(bq, 1) - 1075
    irregular = (zero == 1) & (bq > 1)
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1, g0 = (part[k - _K_MIN] for part in _powers())
    # g >> (63 - h) and g >> (64 - h), as whole and fraction
    up = g1 >> (63 - h), ((g1 << h) & _M63) | (g0 >> (63 - h))
    near = g1 >> (64 - h), ((g1 << (h - 1)) & _M63) | (g0 >> (64 - h))
    down = [np.where(irregular, a, b) for a, b in zip(near, up)]
    return (k, h + 2, np.where(bq > 0, 1 << 52, 0).astype(np.uint64),
            g1, g0, *up, down[0] + 1, (1 << 63) - down[1])


@functools.cache
def _layouts():
    """For each big = leading digit's weight, index big - _BIG_MIN: the
    10^(17 - p) that puts the point after digit p of D (10^17 where the
    point is not among the bytes of N), the XOR that turns digit p of N
    into the point in the top, hi and lo words of N, the least number of
    bytes of N kept (p + 2 for ".0" on integers), and the tail word; then
    the head words, the second half for negative values."""
    big = np.arange(_BIG_MIN, _BIG_MAX + 1)
    positional = (big >= -4) & (big < 16)
    point = np.where(positional, np.where(big >= -1, big + 1, 18), 1)
    dots, tail, head = [], [], []
    for e, pos, p in zip(big.tolist(), positional.tolist(), point.tolist()):
        dots.append((_CHAR["0"] ^ _CHAR["."]) << (8 * p) if p < 18 else 0)
        tail.append(0 if pos else int.from_bytes(f"e{e:+03d}".encode(),
                                                 "little") << 24)
        head.append(0 if e >= 0 or not pos else
                    int.from_bytes(b"0." + b"0" * (-2 - e) if e < -1 else b"0",
                                   "little"))
    minus = [(w << 8) | ord("-") for w in head]
    return (_POW10[np.minimum(17 - point, 17)],
            np.array([w & 0xFFFF for w in dots], dtype=np.uint16),
            *(np.array([(w >> s) & ((1 << 64) - 1) for w in dots],
                       dtype=np.uint64) for s in (16, 80)),
            np.where(positional & (big >= 0), big + 3, 0),
            np.array(tail, dtype=np.uint64),
            np.array(head + minus, dtype=np.uint64))


@functools.cache
def _digit_tables():
    """The ASCII of every two-digit group as a uint16, of every four-digit
    group as the low and as the high half of a uint64, the trailing zeros
    of every four-digit group (4 for 0), and for each count of bytes of N
    kept, 0 to 18, the masks of the top, hi and lo words."""
    i = np.arange(10 ** 4, dtype=np.uint64)
    digits = [i // 10 ** (3 - j) % 10 for j in range(4)]   # first digit first
    quads = sum((d + _CHAR["0"]) << (8 * j) for j, d in enumerate(digits))
    zeros, run = np.zeros(i.size, dtype=np.int64), True
    for d in reversed(digits):
        run = run & (d == 0)
        zeros += run
    keep = [(1 << (8 * n)) - 1 for n in range(19)]
    return ((quads >> 16).astype(np.uint16)[:100], quads, quads << 32, zeros,
            np.array([m & 0xFFFF for m in keep], dtype=np.uint16),
            *(np.array([(m >> s) & ((1 << 64) - 1) for m in keep],
                       dtype=np.uint64) for s in (16, 80)))


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """The high 64 bits of the product of a < 2^63 and b < 2^61, given
    their 32-bit halves as uint64 arrays.  The middle sum cannot carry out:
    it is below 2^32 + 2^61 + 2^63."""
    mid = ((a_lo * b_lo) >> 32) + a_lo * b_hi + a_hi * b_lo
    return a_hi * b_hi + (mid >> 32)


def _product(g1, g0, cp):
    """floor(g cp / 2^127) and its 63 fraction bits, truncated as
    Schubfach's rop truncates them, for g = g1 2^63 + g0 and cp < 2^61."""
    cp_hi, cp_lo = cp >> 32, cp & _M32
    x1 = _mulhi(g0 >> 32, g0 & _M32, cp_hi, cp_lo)
    y1 = _mulhi(g1 >> 32, g1 & _M32, cp_hi, cp_lo)
    z = ((g1 * cp) >> 1) + x1       # g1 cp mod 2^64, halved, plus x1
    return y1 + (z >> 63), z & _M63


def _rop(g1, g0, cp):
    """floor(g cp / 2^127), rounded to odd: its lowest bit is set when the
    quotient is not exact."""
    whole, frac = _product(g1, g0, cp)
    return whole | ((frac + _M63) >> 63)


def _ends(vb_whole, vb_frac, up, down):
    """The rounding interval's ends rounded to odd, as :func:`_rop` gives
    them, from the value's product: (whole, fraction) of g cb 2^h / 2^127
    plus (up) or minus (down) the half-width of :func:`_exponents`, and
    the rows where that sum does not decide them.  The product and each
    half-width lie below their truncations by less than 1.5 and 1 units of
    2^-63, so an end whose fraction bits come out within 2 units of an
    integer may be one; elsewhere it is not, and its floor is exact."""
    (up_whole, up_frac), (down_whole, down_frac) = up, down
    hi = vb_frac + up_frac
    lo = vb_frac + down_frac         # 2^63 too much, taken from down_whole
    vbr = (vb_whole + up_whole + (hi >> 63)) | 1
    vbl = (vb_whole - down_whole + (lo >> 63)) | 1
    doubt = (((hi & _M63) - 1 >= _M63 - 2)
             | ((lo & _M63) - 2 >= _M63 - 3))
    return vbl, vbr, doubt


def _shortest(bits):
    """Schubfach on the bit patterns of finite nonzero float64s: the digits
    d (uint64, below 10^17) and exponent k (int64) of the shortest decimal
    d 10^k that rounds to each value, the closest such when several do."""
    t = bits & ((1 << 52) - 1)
    bq = (bits >> 52) & 0x7FF
    # 2048 where the significand field is 0
    at = (bq | (((t - 1) >> 52) & 2048)).view(np.int64)
    k, shift, hidden, g1, g0, *half = (part.take(at)
                                       for part in _exponents())
    vb_whole, vb_frac = _product(g1, g0, (t | hidden) << shift)
    vb = vb_whole | ((vb_frac + _M63) >> 63)
    vbl, vbr, doubt = _ends(vb_whole, vb_frac, half[:2], half[2:])
    if doubt.any():
        rows = np.flatnonzero(doubt)
        g1, g0, h = g1[rows], g0[rows], shift[rows] - 2
        cb = (t[rows] | hidden[rows]) << 2
        irregular = (at[rows] >= 2048) & (bq[rows] > 1)
        vbl[rows] = _rop(g1, g0, (cb - 2 + irregular) << h)
        vbr[rows] = _rop(g1, g0, (cb + 2) << h)
    # the one multiple of 10^(k+1) that may lie in the interval
    odd = bits & 1                 # an odd c excludes the interval's ends
    s = vb >> 2
    sp10 = s // 10 * 10
    low = vbl + odd
    high = vbr - odd
    upin = low <= sp10 << 2
    wpin = (sp10 + 10) << 2 <= high
    # else s 10^k or (s + 1) 10^k, or the closer of both, ties to even
    s4 = s << 2
    uin = low <= s4
    win = s4 + 4 <= high
    upper = np.where(uin != win, win, vb + (s & 1) > s4 + 2)
    digits = np.where(upin != wpin, sp10 + wpin.view(np.uint8) * 10,
                      s + upper)
    return digits, k


def _digit_count(n):
    """The number of decimal digits of each of the positive int64s n."""
    return np.searchsorted(_POW10, n, side="right")


def _trailing_zeros(n):
    """Trailing decimal zeros of each of the positive int64s n."""
    count = np.zeros(n.size, dtype=np.int64)
    rows = np.flatnonzero(n % 10 == 0)
    while rows.size:
        n[rows] //= 10
        count[rows] += 1
        rows = rows[n[rows] % 10 == 0]
    return count


def float_slots(values) -> np.ndarray:
    """The ``repr(float(v) + 0.0)`` text of each of the n values of
    ``values`` (any shape, read in row-major order) as a (n, :data:`SLOT`)
    uint8 array, each row the text with NUL bytes wherever it is shorter
    than the slot (between its parts too)."""
    v = np.asarray(values, dtype=np.float64).ravel()
    out = np.empty((v.size, SLOT), dtype=np.uint8)
    if not v.size:
        return out
    bits = v.view(np.uint64)
    # zeros, infinities and nan are formed as 1.0, then written over
    other = ((bits & _M63) - 1 >= 0x7FEF_FFFF_FFFF_FFFF).nonzero()[0]
    if other.size:
        bits = bits.copy()
        bits[other] = np.float64(1.0).view(np.uint64)
    d, k = _shortest(bits)
    d = d.view(np.int64)
    # the 17 digits D of d 10^k, and the weight of the first
    short = d < 10 ** 16
    digits = np.where(short, d * 10, d)
    at = k + (16 - _BIG_MIN) - short
    if digits.min() < 10 ** 16:   # a subnormal's fewer digits
        rows = np.flatnonzero(digits < 10 ** 16)
        count = _digit_count(d[rows])
        digits[rows] = d[rows] * _POW10[17 - count]
        at[rows] = k[rows] + count - 1 - _BIG_MIN
    scale, dot_top, dot_hi, dot_lo, least, tail, head = _layouts()
    pairs, quad_lo, quad_hi, zeros, keep_top, keep_hi, keep_lo = \
        _digit_tables()
    point = scale.take(at)
    number = digits + digits // point * (9 * point)
    top = number // 10 ** 16
    number -= top * 10 ** 16
    hi = number // 10 ** 8
    lo = number - hi * 10 ** 8
    hi_a, lo_a = hi // 10 ** 4, lo // 10 ** 4
    hi_b, lo_b = hi - hi_a * 10 ** 4, lo - lo_a * 10 ** 4
    trailing = zeros.take(lo_b)
    if trailing.max() == 4:   # the last four digits are 0
        rows = np.flatnonzero(trailing == 4)
        trailing[rows] += _trailing_zeros(
            (top[rows] * 10 ** 8 + hi[rows]) * 10 ** 4 + lo_a[rows])
    kept = np.maximum(18 - trailing, least.take(at))
    negative = (bits >> 63).view(np.int64)
    out[:, _HEAD:_HEAD + 8].view("<u8")[:, 0] = head.take(
        at + head.size // 2 * negative)
    out[:, _TAIL:_TAIL + 8].view("<u8")[:, 0] = tail.take(at)
    out[:, _TOP:_TOP + 2].view("<u2")[:, 0] = (
        pairs.take(top) ^ dot_top.take(at)) & keep_top.take(kept)
    out[:, _HI:_HI + 8].view("<u8")[:, 0] = (
        (quad_lo.take(hi_a) | quad_hi.take(hi_b)) ^ dot_hi.take(at)) \
        & keep_hi.take(kept)
    out[:, _LO:_LO + 8].view("<u8")[:, 0] = (
        (quad_lo.take(lo_a) | quad_hi.take(lo_b)) ^ dot_lo.take(at)) \
        & keep_lo.take(kept)
    if other.size:
        zero = v[other] == 0.0
        out[other[zero]] = _ZERO
        for i in other[~zero].tolist():
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
