"""monge4.floattext prints every float64 as Python's ``repr`` does, and the
grid and trace CSVs it writes are the lines ``repr`` gives."""

import io
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monge4 import cli, floattext, locus
from monge4.classify import REL
from monge4.surfacefile import parse_surface_file

from conftest import make_trig_surface
from oracles import grid_rows_reference, repr_column

# pyproject.toml turns every RuntimeWarning into an error, so each test
# here also checks that the kernel raises none


def _texts(values):
    """The text of each value from the writer, one line each."""
    values = np.asarray(values, dtype=np.float64)
    return floattext.csv_lines([floattext.float_slots(values)]).splitlines()


def _assert_repr(values):
    assert _texts(values) == repr_column(values)


def _from_bits(patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


# d 10^e with d of 16 or 17 digits and |d 10^e| in [1e-5, 1e16), where
# repr prints positionally: most of the grid's values look like these
_long_positional = st.builds(
    lambda sign, d, e: float(f"{sign}{d}e{e}"), st.sampled_from("+-"),
    st.integers(10 ** 15, 10 ** 17 - 1), st.integers(-20, -1))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.floats(), max_size=40),
       st.lists(_long_positional, max_size=40))
def test_floats_print_as_repr(values, long_values):
    _assert_repr(values)
    _assert_repr(long_values)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_bit_patterns_print_as_repr(patterns):
    values = _from_bits(patterns)
    assert _texts(values) == [
        repr(struct.unpack("<d", struct.pack("<Q", p))[0] + 0.0)
        for p in patterns]


def test_every_power_of_two():
    """2^k from the smallest subnormal to the largest power below the
    overflow: from 2^-1073 on, the lower neighbour of a normal power of
    two is half as far as the upper one."""
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    _assert_repr(np.concatenate([powers, -powers]))


def test_powers_of_ten_and_their_neighbours():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    _assert_repr(np.concatenate([
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)]))


@pytest.mark.parametrize("value, text", [
    (5e-324, "5e-324"), (-5e-324, "-5e-324"),
    (2.2250738585072014e-308, "2.2250738585072014e-308"),
    (sys.float_info.max, "1.7976931348623157e+308"),
    (-sys.float_info.max, "-1.7976931348623157e+308"),
    (float(2 ** 53 - 1), "9007199254740991.0"),
    (float(2 ** 53), "9007199254740992.0"),
    (float(2 ** 53 + 2), "9007199254740994.0"),
    (0.0, "0.0"), (-0.0, "0.0"),
    (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
    (0.1, "0.1"), (0.3, "0.3"), (1 / 3, "0.3333333333333333"),
    (123.0, "123.0"), (-1.5, "-1.5"), (1e22, "1e+22"), (1e23, "1e+23"),
])
def test_edges(value, text):
    assert _texts([value]) == [text]


@pytest.mark.parametrize("value, text", [
    (1e16, "1e+16"), (9999999999999998.0, "9999999999999998.0"),
    (1e15, "1000000000000000.0"), (1.5e15, "1500000000000000.0"),
    (123456789012345.67, "123456789012345.67"),
    (1.0000000000000002e16, "1.0000000000000002e+16"),
    (1e-4, "0.0001"), (9.999999999999999e-05, "9.999999999999999e-05"),
    (-1.2345e-4, "-0.00012345"), (1.2345e-5, "1.2345e-05"),
    (0.00010000000000000002, "0.00010000000000000002"),
    (1e100, "1e+100"), (1.5e-100, "1.5e-100"),
])
def test_positional_and_scientific_switch(value, text):
    """Positional from 1e-4 up to below 1e16, scientific outside."""
    assert _texts([value]) == [text]


def test_every_point_position():
    """d 10^e with d of 1, 3 and 17 digits and e from -22 to 18, so every
    place of the point among the 18 digits, none (0.0ddd) and d.ddde+XX,
    with ".0" on integers and zeros before the point, for both signs."""
    values = [float(f"{d}e{e}") for e in range(-22, 19)
              for d in ("1", "123", "12345678901234567", "10000000000000001",
                        "9", "999", "99999999999999999")]
    _assert_repr(np.concatenate([values, np.negative(values)]))


def _counting(monkeypatch, name):
    """Replace floattext's ``name`` by a wrapper that counts its calls."""
    calls = []
    inner = getattr(floattext, name)

    def counted(*args):
        calls.append(len(args[-1]))
        return inner(*args)

    monkeypatch.setattr(floattext, name, counted)
    return calls


def test_interval_ends_fall_back_to_their_products(monkeypatch):
    """Values of binary exponent 50 to 67 have ends at an integer plus less
    than 2^-63: the sum of the value's product and the half-width leaves
    them in doubt, so both ends are formed by their own products.  Among
    these, 2^60 (1.152921504606847e+18) is not."""
    calls = _counting(monkeypatch, "_rop")
    values = np.ldexp(1.0, 52) + np.arange(-3.0, 40.0)
    _assert_repr(np.concatenate([values, [2.0 ** 53, 2.0 ** 54, 2.0 ** 60]]))
    assert calls == [45, 45]
    calls.clear()
    _assert_repr(np.random.default_rng(7).standard_normal(10 ** 4))
    assert calls == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 0x7FEF_FFFF_FFFF_FFFF), min_size=1,
                max_size=40))
def test_interval_ends_are_their_products(patterns):
    """Where the sum of the value's product and the half-width decides an
    end, it is the end's own product rounded to odd, bit for bit."""
    bits = np.array(patterns, dtype=np.uint64)
    t = bits & ((1 << 52) - 1)
    bq = (bits >> 52) & 0x7FF
    at = (bq | (((t - 1) >> 52) & 2048)).view(np.int64)
    _, shift, hidden, g1, g0, *half = (p.take(at)
                                       for p in floattext._exponents())
    c = t | hidden
    vbl, vbr, doubt = floattext._ends(
        *floattext._product(g1, g0, c << shift), half[:2], half[2:])
    irregular = (t == 0) & (bq > 1)
    sure = ~doubt
    assert np.array_equal(vbl[sure], floattext._rop(
        g1, g0, ((c << 2) - 2 + irregular) << (shift - 2))[sure])
    assert np.array_equal(vbr[sure], floattext._rop(
        g1, g0, ((c << 2) + 2) << (shift - 2))[sure])


def test_few_digits_and_trailing_zeros_take_their_fallbacks(monkeypatch):
    """A subnormal may have fewer than 16 digits, counted one by one; a
    value whose last four of 18 digits are 0 has its trailing zeros counted
    one by one.  17-digit normal values take neither."""
    counts = _counting(monkeypatch, "_digit_count")
    zeros = _counting(monkeypatch, "_trailing_zeros")
    _assert_repr([5e-324, -1e-320, 2.5e-310, 0.1])
    assert counts == [3] and zeros == [4]   # 0.1 gives N = 01000...0
    counts.clear()
    zeros.clear()
    _assert_repr([0.5, 1e-300, 123.0, 1e22, -0.25, 1.5e300])
    assert counts == [] and zeros == [6]
    counts.clear()
    zeros.clear()
    _assert_repr([1 / 3, -2 / 3, 0.1 + 0.2, np.pi * 1e10])
    assert counts == [] and zeros == []


@pytest.mark.parametrize("size", [0, 1, cli.BLOCK_LINES - 1,
                                  cli.BLOCK_LINES, cli.BLOCK_LINES + 1])
def test_block_sizes(size):
    rng = np.random.default_rng(size)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
    _assert_repr(values)
    assert floattext.float_slots(values).shape == (size, floattext.SLOT)


def test_int_slots_and_broadcast_lines():
    ints = np.array([0, 7, 10, 99, 100, 12345])
    assert floattext.csv_lines([floattext.int_slots(ints)]).splitlines() == \
        [str(i) for i in ints]
    x = floattext.float_slots([0.5, -2.0])[None]        # varies along a row
    y = floattext.float_slots([1.0, 3e-7, 1e300])[:, None]
    label = floattext.text_table(["a", "bcd"])[[0, 1, 0]][:, None]
    assert floattext.csv_lines([x, y, label]) == (
        "0.5,1.0,a\n-2.0,1.0,a\n0.5,3e-07,bcd\n-2.0,3e-07,bcd\n"
        "0.5,1e+300,a\n-2.0,1e+300,a\n")


@pytest.mark.parametrize("res, block_lines", [
    (17, 1), (17, 17 * 3 - 1), (17, 17 * 3), (17, 17 * 3 + 1), (20, 10 ** 6)])
def test_grid_blocks_match_reference(monkeypatch, res, block_lines):
    """The grid CSV is the reference's, whatever the block length: one
    y-row per block, blocks of 2 or 3 rows that do not divide res, one
    block."""
    monkeypatch.setattr(cli, "BLOCK_LINES", block_lines)
    surface = make_trig_surface()
    blocks = list(cli.grid_rows(surface, res, REL))
    assert len(blocks) == -(-res // max(1, block_lines // res))
    assert "".join(blocks) == "".join(grid_rows_reference(surface, res, REL))


def test_trace_csv_is_repr_of_each_vertex(tmp_path):
    """All polylines of a trace in one block: ids and vertices as the
    per-vertex formatting prints them."""
    surf = tmp_path / "loop.surf"
    surf.write_text("phi = x^2 - y^2\npsi = x^3/3 + x*y^2\n"
                    "domain = -0.5 0.5 -0.5 0.5\n", encoding="utf-8")
    out_path = tmp_path / "trace.csv"
    code = cli.run(["trace", "--surface", str(surf), "--res", "64",
                    "--out", str(out_path)], out=io.StringIO(),
                   err=io.StringIO())
    assert code == 0
    result = locus.trace_parabolic(parse_surface_file(str(surf)), 64, REL)
    assert len(result.polylines) > 1
    expected = ["polyline_id,vertex_id,x,y,delta_residual"]
    for pid, pl in enumerate(result.polylines):
        columns = zip(repr_column(pl.points[:, 0]),
                      repr_column(pl.points[:, 1]), repr_column(pl.residuals))
        expected += [f"{pid},{vid},{x},{y},{r}"
                     for vid, (x, y, r) in enumerate(columns)]
    assert out_path.read_text(encoding="utf-8").splitlines() == expected
