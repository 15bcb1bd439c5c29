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


@settings(max_examples=400, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_floats_print_as_repr(values):
    _assert_repr(values)


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
