"""grid and selfcheck evaluate the grid in blocks of x-rows
(``cli._grid_tiles``): the output must equal the whole-grid references of
``oracles``, and the memory held must not grow with every field."""

import io
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from monge4 import cli, localgeom
from monge4.classify import REL
from monge4.errors import Monge4Error
from monge4.surfacefile import parse_surface_file

from conftest import TRIG_SURFACE, make_trig_surface, random_surfaces
from oracles import grid_rows_reference, selfcheck_report_reference

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


def _assert_matches_reference(surface, res):
    assert "".join(cli.grid_rows(surface, res, REL)) == \
        "".join(grid_rows_reference(surface, res, REL))
    assert cli.selfcheck_report(surface, res) == \
        selfcheck_report_reference(surface, res)


# (res, nodes per tile): 1-row tiles, and row counts per tile (3, 2, 7, 3)
# that do not divide res
@pytest.mark.parametrize("res, tile_points", [
    (16, 1), (16, 48), (17, 40), (40, 280), (29, 100), (37, 37)])
def test_small_tiles_match_whole_grid(monkeypatch, res, tile_points):
    monkeypatch.setattr(cli, "TILE_POINTS", tile_points)
    for surface in (make_trig_surface(), *random_surfaces(count=3)):
        _assert_matches_reference(surface, res)


def test_real_tiles_match_whole_grid():
    assert 256 * 256 > 2 * cli.TILE_POINTS  # several tiles
    _assert_matches_reference(make_trig_surface(), 256)


@pytest.mark.parametrize("command", ["grid", "selfcheck"])
def test_failure_in_a_later_tile(tmp_path, command):
    """A failure that only the last tiles hold is the whole-grid failure:
    same message, exit 4, no output and no output file."""
    surf = _write(tmp_path, "late.surf", LATE_FAILURE_TEXT)
    res = 256
    first_bad_row = int(np.argmax(np.linspace(-1.0, 1.0, res) > 0.9))
    assert first_bad_row * res >= 2 * cli.TILE_POINTS  # past the first tiles
    reference = {"grid": lambda s: grid_rows_reference(s, res, REL),
                 "selfcheck": lambda s: selfcheck_report_reference(s, res)}
    with pytest.raises(Monge4Error) as exc:
        reference[command](parse_surface_file(surf))
    out_path = tmp_path / "x.csv"
    args = [command, "--surface", surf, "--res", str(res)]
    if command == "grid":
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


# a cap on the child's address space at which grid and selfcheck at res
# 1024 ran out of memory before they went block by block (both needed
# 550-650 MB) and now need about 160 MB
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
                                  ["selfcheck"]])
def test_res_1024_under_memory_cap(tmp_path, args):
    surf = _write(tmp_path, "trig.surf", TRIG_TEXT)
    r = _capped([*args, "--surface", surf, "--res", "1024"])
    assert (r.returncode, r.stderr) == (0, "")
