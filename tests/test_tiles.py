"""grid, selfcheck, trace and inflections evaluate the grid in tiles of
x-rows (``localgeom.grid_tiles``): the output must equal the whole-grid
references of ``oracles``, and the memory held must not grow with every
field."""

import io
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from monge4 import cli, localgeom, locus
from monge4.classify import REL
from monge4.errors import Monge4Error, SeedCapWarning
from monge4.localgeom import surface_from_strings
from monge4.surfacefile import parse_surface_file

from conftest import (TRIG_SURFACE, make_surface, make_trig_surface,
                      random_surfaces)
from oracles import (find_inflections_reference, grid_rows_reference,
                     selfcheck_report_reference, trace_parabolic_reference)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
TRIG_TEXT = "phi = {}\npsi = {}\ndomain = -1 1 -1 1\n".format(*TRIG_SURFACE)
# log(0.9 - x) fails only for x > 0.9, in the last x-rows of the grid
LATE_FAILURE_TEXT = "phi = log(0.9 - x)\npsi = y^2\ndomain = -1 1 -1 1\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run(args):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(args, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _assert_same_trace(surface, res):
    new = locus.trace_parabolic(surface, res)
    ref = trace_parabolic_reference(surface, res)
    assert new.degenerate_cells.tolist() == list(map(list, ref.degenerate_cells))
    assert len(new.polylines) == len(ref.polylines)
    for p, q in zip(new.polylines, ref.polylines):
        assert p.closed == q.closed
        assert np.array_equal(p.points, q.points)
        assert np.array_equal(p.residuals, q.residuals)


def _assert_locus_matches_reference(surface, res):
    _assert_same_trace(surface, res)
    assert locus.find_inflections(surface, res) == \
        find_inflections_reference(surface, res)


def _assert_matches_reference(surface, res):
    assert "".join(cli.grid_rows(surface, res, REL)) == \
        "".join(grid_rows_reference(surface, res, REL))
    assert cli.selfcheck_report(surface, res) == \
        selfcheck_report_reference(surface, res)
    _assert_locus_matches_reference(surface, res)


# (res, nodes per tile): 1-row tiles, and row counts per tile (3, 2, 7, 3)
# that do not divide res
@pytest.mark.parametrize("res, tile_points", [
    (16, 1), (16, 48), (17, 40), (40, 280), (29, 100), (37, 37)])
def test_small_tiles_match_whole_grid(monkeypatch, res, tile_points):
    monkeypatch.setattr(localgeom, "TILE_POINTS", tile_points)
    for surface in (make_trig_surface(), *random_surfaces(count=3)):
        _assert_matches_reference(surface, res)


@pytest.mark.parametrize("res, tile_points", [(24, 1), (29, 58)])
def test_small_tiles_match_whole_grid_on_random_corpus(monkeypatch, res,
                                                       tile_points):
    """trace and inflections on all of the random corpus, in 1-row tiles
    and in tiles of 2 rows, which do not divide 29."""
    monkeypatch.setattr(localgeom, "TILE_POINTS", tile_points)
    for surface in random_surfaces():
        _assert_locus_matches_reference(surface, res)


def test_real_tiles_match_whole_grid():
    assert 256 * 256 > 2 * localgeom.TILE_POINTS  # several tiles
    _assert_matches_reference(make_trig_surface(), 256)


def _walker_seeds(monkeypatch, search):
    """The seeds (x, y) that ``search()`` gives the walkers, in order."""
    seeds = []
    walkers = locus._newton_walkers

    def recording(surface, px, py, cellx, celly):
        seeds.append((px.tolist(), py.tolist()))
        return walkers(surface, px, py, cellx, celly)

    with monkeypatch.context() as m:
        m.setattr(locus, "_newton_walkers", recording)
        reports = search()
    return reports, seeds[0]


# more than MAX_SEEDS seeds at res 64: on a surface lying in R^3 (psi = 0)
# every node is a local minimum of the residual, all residuals 0, and
# seeds; the ripple of the second gives 523 seeds with 460 distinct
# residuals, so the cap does not keep the first in row-major order
CAPPED = [("x^2 + x*y^2", "0"),
          ("x^2 + x*y^2", "1e-3*sin(60*x)*sin(60*y)")]


@pytest.mark.parametrize("phi, psi", CAPPED)
@pytest.mark.parametrize("tile_points", [1, 64 * 5, 2 ** 14])
def test_capped_seeds(monkeypatch, tile_points, phi, psi):
    """The walkers get the same MAX_SEEDS seeds, in the same order, as
    from the whole grid, and the search warns that it dropped the rest."""
    surface = surface_from_strings(phi, psi)
    monkeypatch.setattr(localgeom, "TILE_POINTS", tile_points)
    rho = 1.5 * np.hypot(2.0 / 63, 2.0 / 63)  # as find_inflections at res 64
    assert sum(len(idx) for idx, _ in locus._seed_tiles(surface, 64, rho)) \
        > locus.MAX_SEEDS
    with pytest.warns(SeedCapWarning):
        new = _walker_seeds(monkeypatch,
                            lambda: locus.find_inflections(surface, 64))
    ref = _walker_seeds(monkeypatch,
                        lambda: find_inflections_reference(surface, 64))
    assert len(new[1][0]) == locus.MAX_SEEDS
    assert new == ref


@pytest.mark.parametrize("rows", [17, 16])
def test_minimum_on_a_tile_boundary_row(monkeypatch, rows):
    """The real inflection of fixture H at the origin is the residual
    minimum at node (16, 16) of the 33 x 33 grid: in tiles of 17 rows it
    sits on the first tile's last row, in tiles of 16 on the second tile's
    first row, and seeds either way."""
    surface = make_surface("H")
    monkeypatch.setattr(localgeom, "TILE_POINTS", rows * 33)
    reports, seeds = _walker_seeds(
        monkeypatch, lambda: locus.find_inflections(surface, 33))
    assert seeds == ([0.0], [0.0])
    assert [(r.x, r.y, r.kind) for r in reports] == [(0.0, 0.0, "real")]
    assert reports == find_inflections_reference(surface, 33)


COMMANDS = {"grid": lambda s, res: grid_rows_reference(s, res, REL),
            "selfcheck": selfcheck_report_reference,
            "trace": trace_parabolic_reference,
            "inflections": find_inflections_reference}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_failure_in_a_later_tile(tmp_path, command):
    """A failure that only the last tiles hold is the whole-grid failure:
    same message, exit 4, no output and no output file."""
    surf = _write(tmp_path, "late.surf", LATE_FAILURE_TEXT)
    res = 256
    first_bad_row = int(np.argmax(np.linspace(-1.0, 1.0, res) > 0.9))
    assert first_bad_row * res >= 2 * localgeom.TILE_POINTS  # past the first tiles
    with pytest.raises(Monge4Error) as exc:
        COMMANDS[command](parse_surface_file(surf), res)
    out_path = tmp_path / "x.csv"
    args = [command, "--surface", surf, "--res", str(res)]
    if command in ("grid", "trace"):
        args += ["--out", str(out_path)]
    assert _run(args) == (4, "", f"monge4: numerical failure: {exc.value}\n")
    assert not out_path.exists()


def test_failed_grid_leaves_existing_output(tmp_path):
    surf = _write(tmp_path, "late.surf", LATE_FAILURE_TEXT)
    out_path = tmp_path / "x.csv"
    out_path.write_bytes(b"an earlier grid\n")
    code, _, _ = _run(["grid", "--surface", surf, "--res", "256",
                       "--out", str(out_path)])
    assert code == 4
    assert out_path.read_bytes() == b"an earlier grid\n"


def test_earlier_tile_failure_comes_first(tmp_path, monkeypatch):
    """When stages fail in different tiles, the earlier tile's failure is
    reported: here the K cross-check, failing everywhere with a negative
    bound, in the first tile, where the whole grid reports the log of the
    last tiles first."""
    k_check, *others = localgeom.CROSS_CHECKS
    monkeypatch.setattr(localgeom, "CROSS_CHECKS",
                        (k_check._replace(rel=-1.0), *others))
    surf = _write(tmp_path, "late.surf", LATE_FAILURE_TEXT)
    with pytest.raises(Monge4Error, match="log of non-positive value"):
        grid_rows_reference(parse_surface_file(surf), 256, REL)
    code, out, err = _run(["grid", "--surface", surf, "--res", "256",
                           "--out", str(tmp_path / "x.csv")])
    assert (code, out) == (4, "")
    assert err.startswith("monge4: numerical failure: K cross-check failed: ")
    assert err.endswith(" at point (-1.0, -1.0)\n")


# a cap on the child's address space at which grid, selfcheck, trace and
# inflections at res 1024 ran out of memory while they held the whole grid
MEMORY_CAP = 400 << 20


def _capped(args):
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "monge4.cli", *args],
                          env=env, preexec_fn=limit, capture_output=True,
                          text=True, timeout=300, check=False)


@pytest.mark.parametrize("args", [["grid", "--out", os.devnull],
                                  ["selfcheck"],
                                  ["trace", "--out", os.devnull],
                                  ["inflections"]])
def test_res_1024_under_memory_cap(tmp_path, args):
    surf = _write(tmp_path, "trig.surf", TRIG_TEXT)
    r = _capped([*args, "--surface", surf, "--res", "1024"])
    assert (r.returncode, r.stderr) == (0, "")


def test_flat_trace_res_2048_under_memory_cap(tmp_path):
    """On the gallery's parabolic surface Delta vanishes identically, so
    every one of the 2047^2 cells is degenerate; trace keeps them as one
    (n, 2) integer array, 16 bytes a cell, and runs at res 2048 under the
    cap."""
    surf = _write(tmp_path, "parabolic.surf",
                  "phi = x^2\npsi = 2*x*y\ndomain = -1 1 -1 1\n")
    r = _capped(["trace", "--out", os.devnull, "--surface", surf,
                 "--res", "2048"])
    assert (r.returncode, r.stderr) == (0, "")
