"""Surface files, CLI subcommands, output formats, exit codes, determinism."""

import argparse
import hashlib
import io
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from monge4 import cli, localgeom, locus
from monge4.errors import EvaluationError, SeedCapWarning, SurfaceFileError
from monge4.jets import eval_jet
from monge4.surfacefile import parse_surface_text

from conftest import benchmark_surfaces, expression_texts
from oracles import find_inflections_reference, frame_oracle

B_TEXT = "phi = x^2 - y^2\npsi = 2*x*y\ndomain = -1 1 -1 1\n"


def run_cli(args):
    out = io.StringIO()
    err = io.StringIO()
    code = cli.run(args, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- surface files ------------------------------------------------------------

def test_parse_surface_text():
    spec = parse_surface_text(B_TEXT)
    assert spec.domain == (-1.0, 1.0, -1.0, 1.0)


def test_parse_surface_comments_and_blank_lines():
    spec = parse_surface_text(
        "# a fixture\nphi = x^2  # graph component\n\npsi = y^2\n"
        "domain = -2 2 -1 1\n")
    assert spec.domain == (-2.0, 2.0, -1.0, 1.0)


def test_missing_key():
    with pytest.raises(SurfaceFileError) as err:
        parse_surface_text("phi = x^2\ndomain = -1 1 -1 1\n")
    assert "psi" in str(err.value)


def test_duplicate_key():
    with pytest.raises(SurfaceFileError):
        parse_surface_text("phi = x\nphi = y\npsi = x\ndomain = -1 1 -1 1\n")


def test_empty_domain_interval():
    with pytest.raises(SurfaceFileError) as err:
        parse_surface_text("phi = x\npsi = y\ndomain = 1 -1 0 1\n")
    assert "empty" in str(err.value)


def test_expression_error_carries_line():
    with pytest.raises(SurfaceFileError) as err:
        parse_surface_text("phi = x +\npsi = y\ndomain = -1 1 -1 1\n")
    assert err.value.line == 1


# a left-deep sum of 1,500 terms, 3,000 nested parentheses and 3,000 unary
# minuses: the jet compiler walks the sum in a loop, and the parser refuses
# nesting deeper than expr.MAX_DEPTH with the line and offset where it
# starts
DEEP_PHIS = {
    "sum": " + ".join(f"{i}*x^2*y" for i in range(1500)),
    "parentheses": "(" * 3000 + "x" + ")" * 3000,
    "minuses": "-" * 3000 + "x^2",
}


@pytest.mark.parametrize("name", sorted(DEEP_PHIS))
def test_deep_expressions_end_in_a_result_or_one_line(tmp_path, name):
    surf = write(tmp_path, "deep.surf",
                 f"psi = 2*x*y\nphi = {DEEP_PHIS[name]}\ndomain = -1 1 -1 1\n")
    code, out, err = run_cli(["analyze", "--surface", surf, "--at", "0.1,0.2"])
    if name == "sum":   # phi = 1124250 x^2 y
        assert (code, err) == (0, "")
        one = write(tmp_path, "one.surf",
                    "psi = 2*x*y\nphi = 1124250*x^2*y\ndomain = -1 1 -1 1\n")
        want = record_dict(run_cli(["analyze", "--surface", one,
                                    "--at", "0.1,0.2"])[1])
        got = record_dict(out)
        assert got["class"] == want["class"]
        assert float(got["K"]) == pytest.approx(float(want["K"]), rel=1e-12)
        return
    assert (code, out) == (3, "")
    assert err == ("monge4: surface file error: line 2: in 'phi': syntax "
                   "error at offset 100: expression nested deeper than 100 "
                   "levels\n")


def test_nesting_up_to_the_limit_evaluates(tmp_path):
    phi = "-(" * 50 + "x^2" + ")" * 50
    surf = write(tmp_path, "deep.surf",
                 f"phi = {phi}\npsi = 2*x*y\ndomain = -1 1 -1 1\n")
    code, out, err = run_cli(["analyze", "--surface", surf, "--at", "0,0"])
    assert (code, err) == (0, "")
    assert record_dict(out)["a"] == "2.0"


def test_malformed_domain():
    with pytest.raises(SurfaceFileError):
        parse_surface_text("phi = x\npsi = y\ndomain = -1 1 zero 1\n")
    with pytest.raises(SurfaceFileError):
        parse_surface_text("phi = x\npsi = y\ndomain = -1 1 0\n")


def test_parse_memo_returns_equal_spec():
    assert parse_surface_text(B_TEXT) == parse_surface_text(B_TEXT)


def test_parse_memo_keeps_no_errors():
    text = "phi = x\npsi = y +\ndomain = -1 1 -1 1\n"
    for _ in range(3):
        with pytest.raises(SurfaceFileError) as err:
            parse_surface_text(text)
        assert err.value.line == 2


def test_parse_memo_is_bounded():
    bound = parse_surface_text.cache_parameters()["maxsize"]
    for k in range(3 * bound):
        parse_surface_text(f"phi = {k}*x^2\npsi = y^2\ndomain = -1 1 -1 1\n")
    assert parse_surface_text.cache_info().currsize <= bound


def test_rewritten_surface_file_is_read_again(tmp_path):
    surf = write(tmp_path, "s.surf", B_TEXT)
    first = run_cli(["analyze", "--surface", surf, "--at", "0.1,0.2"])
    write(tmp_path, "s.surf", B_TEXT.replace("2*x*y", "3*x*y"))
    second = run_cli(["analyze", "--surface", surf, "--at", "0.1,0.2"])
    assert first[0] == second[0] == 0
    assert record_dict(first[1])["K"] != record_dict(second[1])["K"]


# -- analyze -------------------------------------------------------------------

def record_dict(output):
    pairs = [line.split("=", 1) for line in output.strip().splitlines()]
    return dict(pairs)


def test_analyze_record_b(tmp_path):
    path = write(tmp_path, "b.surf", B_TEXT)
    code, out, _ = run_cli(["analyze", "--surface", path, "--at", "0,0"])
    assert code == 0
    rec = record_dict(out)
    assert float(rec["K"]) == -8.0
    assert float(rec["kappa"]) == 8.0
    assert float(rec["Delta"]) == 16.0
    assert rec["class"] == "elliptic"
    assert rec["umbilic"] == "true"
    assert rec["characteristic_kind"] == "ellipse"
    # key order is fixed and documented
    keys = [line.split("=", 1)[0] for line in out.strip().splitlines()]
    assert keys == list(cli.ANALYZE_KEYS)


def test_analyze_degenerate_indicatrix(tmp_path):
    path = write(tmp_path, "a.surf",
                 "phi = x^2\npsi = y^2\ndomain = -1 1 -1 1\n")
    code, out, _ = run_cli(["analyze", "--surface", path, "--at", "0,0"])
    assert code == 0
    rec = record_dict(out)
    assert rec["indicatrix_degenerate"] == "true"
    assert rec["indicatrix_conic_defined"] == "false"
    assert rec["characteristic_kind"] == "none"
    assert rec["asymptotic_count"] == "2"
    assert float(rec["binormal0_n2"]) == 1.0


def test_analyze_binormals_apart_from_asymptotic_directions(tmp_path):
    """At this parabolic point the height quadratic vanishes within its
    band (every normal degenerate), the directional quadratic does not: one
    asymptotic direction, nan binormals, and a plot without an arrow."""
    surf = write(tmp_path, "hz.surf",
                 "phi = 0.5*x^2\npsi = 3e-5*x*y\ndomain = -1 1 -1 1\n")
    code, out, _ = run_cli(["analyze", "--surface", surf, "--at", "0,0"])
    assert code == 0
    rec = record_dict(out)
    assert rec["class"] == "parabolic"
    assert rec["asymptotic_count"] == "1"
    assert (rec["asym0_u1"], rec["asym0_u2"]) == ("0.0", "1.0")
    assert all(rec[f"binormal{i}_n{j}"] == "nan" for i in (0, 1) for j in (1, 2))
    out_path = str(tmp_path / "hz.svg")
    code, _, _ = run_cli(["plot", "--surface", surf, "--at", "0,0",
                          "--out", out_path])
    assert code == 0
    svg = (tmp_path / "hz.svg").read_text()
    assert 'class="indicatrix"' in svg
    assert svg.count('class="binormal"') == 0


def test_analyze_inflection_point(tmp_path):
    path = write(tmp_path, "c.surf",
                 "phi = x^2 + 3*y^2\npsi = x^3/3 + x*y^2\ndomain = -1 1 -1 1\n")
    code, out, _ = run_cli(["analyze", "--surface", path, "--at", "0,0"])
    assert code == 0
    rec = record_dict(out)
    assert rec["class"] == "inflection_imaginary"
    assert rec["asymptotic_count"] == "all"


# -- grid ------------------------------------------------------------------------

def test_grid_flat_plane(tmp_path):
    surf = write(tmp_path, "flat.surf", "phi = 0\npsi = 0\ndomain = -1 1 -1 1\n")
    out_path = str(tmp_path / "grid.csv")
    code, _, _ = run_cli(["grid", "--surface", surf, "--res", "16",
                          "--out", out_path])
    assert code == 0
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert lines[0] == "x,y,K,kappa,Delta,class"
    assert len(lines) == 1 + 256
    for line in lines[1:]:
        cols = line.split(",")
        assert float(cols[2]) == 0.0
        assert cols[5] == "inflection_flat"
    # row-major from (xmin, ymin): x varies fastest
    assert lines[1].startswith("-1.0,-1.0,")
    assert lines[2].split(",")[1] == "-1.0"
    assert float(lines[2].split(",")[0]) > -1.0


def test_grid_matches_analyze(tmp_path):
    surf = write(tmp_path, "b.surf", B_TEXT)
    out_path = str(tmp_path / "grid.csv")
    code, _, _ = run_cli(["grid", "--surface", surf, "--res", "16",
                          "--out", out_path])
    assert code == 0
    lines = (tmp_path / "grid.csv").read_text().splitlines()[1:]
    # pick a row and compare against analyze at those coordinates
    cols = lines[37].split(",")
    code, out, _ = run_cli(["analyze", "--surface", surf,
                            f"--at={cols[0]},{cols[1]}"])
    rec = record_dict(out)
    assert float(rec["K"]) == pytest.approx(float(cols[2]), rel=1e-15)
    assert float(rec["Delta"]) == pytest.approx(float(cols[4]), rel=1e-15)
    assert rec["class"] == cols[5]


# -- trace / inflections -----------------------------------------------------------

def test_trace_csv(tmp_path):
    surf = write(tmp_path, "v.surf",
                 "phi = x^2 - y^2\npsi = 2*x*y - x^3\ndomain = -1 1 -1 1\n")
    out_path = str(tmp_path / "trace.csv")
    code, _, _ = run_cli(["trace", "--surface", surf, "--res", "48",
                          "--out", out_path])
    assert code == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "polyline_id,vertex_id,x,y,delta_residual"
    assert len(lines) > 40
    ids = {line.split(",")[0] for line in lines[1:]}
    assert ids == {"0", "1"}
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[4]) < 1e-8


def test_inflections_output(tmp_path):
    surf = write(tmp_path, "c.surf",
                 "phi = x^2 + 3*y^2\npsi = x^3/3 + x*y^2\n"
                 "domain = -0.5 0.5 -0.5 0.5\n")
    code, out, _ = run_cli(["inflections", "--surface", surf, "--res", "256"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    x, y, kind, k_val, det_hd, resid = lines[0].split()
    assert abs(float(x)) < 1e-6 and abs(float(y)) < 1e-6
    assert kind == "imaginary"
    assert float(k_val) == pytest.approx(12.0, rel=1e-6)
    assert float(det_hd) == pytest.approx(3072.0, rel=1e-3)
    assert float(resid) <= 1e-12


@pytest.mark.parametrize("res", ["16", "24"])
def test_inflections_umbilic_surface_coarse_grid(tmp_path, res):
    """phi = x^2 - y^2, psi = 2xy: a Newton walker meets gradients of Delta
    and kappa parallel to rounding, which LAPACK finds singular; the walker
    stops, and the surface has no inflection to report."""
    surf = write(tmp_path, "b.surf", B_TEXT)
    assert run_cli(["inflections", "--surface", surf, "--res", res]) \
        == (0, "", "")


def test_inflections_seed_cap_is_one_stderr_line(tmp_path):
    """On a surface in R^3 every node of the grid seeds: at res 32, 1,024
    seeds of which MAX_SEEDS = 512 run.  inflections says so in one line on
    stderr; stdout, the exit code and find_inflections' reports stay as
    they are, and find_inflections itself raises a SeedCapWarning."""
    surf = write(tmp_path, "bowl.surf",
                 "phi = x^2 + y^2\npsi = 0\ndomain = -1 1 -1 1\n")
    code, out, err = run_cli(["inflections", "--surface", surf, "--res", "32"])
    assert code == 0
    assert err == ("monge4: warning: inflection seeds capped: kept 512 of "
                   "1024 found, those with the smallest residuals; an "
                   "inflection may be missing\n")
    with pytest.warns(SeedCapWarning, match="kept 512 of 1024 found"):
        reports = locus.find_inflections(parse_surface_text(
            "phi = x^2 + y^2\npsi = 0\ndomain = -1 1 -1 1\n"), 32)
    assert out == "".join(
        f"{cli._fmt(r.x)} {cli._fmt(r.y)} {r.kind} {cli._fmt(r.K)} "
        f"{cli._fmt(r.det_hessian_delta)} {cli._fmt(r.residual)}\n"
        for r in reports)


@pytest.mark.parametrize("seed", range(8))
def test_inflections_on_the_locus_search_surfaces_keep_every_seed(seed):
    """The benchmark's locus-search surfaces stay well below MAX_SEEDS at
    its res 256, so no run of it warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", SeedCapWarning)
        for surface in benchmark_surfaces("locus-search", seed).values():
            locus.find_inflections(surface, 256)


def test_inflections_walker_past_a_log_singularity(tmp_path):
    """psi has a log singularity at x = -0.51, left of the domain, and the
    inflection of the H-like part sits beyond it at x = -0.54: a Newton
    walker steps past the singularity, which ends inflections in exit 4
    with one line naming the point, as it did with one walker per seed."""
    surf = write(tmp_path, "log.surf",
                 "phi = (x + 0.54)^2 - y^2\n"
                 "psi = (x + 0.54)^3/3 + (x + 0.54)*y^2 + 1e-9*log(x + 0.51)\n"
                 "domain = -0.5 0.5 -0.5 0.5\n")
    code, out, err = run_cli(["inflections", "--surface", surf, "--res", "16"])
    assert (code, out) == (4, "")
    assert err.startswith("monge4: numerical failure: log of non-positive value")
    assert " at point (" in err and err.count("\n") == 1


# -- plot -----------------------------------------------------------------------

def test_plot_hyperbolic(tmp_path):
    surf = write(tmp_path, "g.surf",
                 "phi = 1.5*x^2 + 0.5*y^2\npsi = 2*x*y\ndomain = -1 1 -1 1\n")
    out_path = str(tmp_path / "g.svg")
    code, _, _ = run_cli(["plot", "--surface", surf, "--at", "0,0",
                          "--out", out_path])
    assert code == 0
    svg = (tmp_path / "g.svg").read_text()
    assert svg.startswith("<?xml")
    assert svg.count('class="indicatrix"') == 1
    assert svg.count('class="characteristic"') == 2
    assert 'class="origin"' in svg
    assert svg.count('class="binormal"') == 6  # 2 arrows, 3 strokes each


def test_plot_elliptic_closed_conics(tmp_path):
    surf = write(tmp_path, "b.surf", B_TEXT)
    out_path = str(tmp_path / "b.svg")
    code, _, _ = run_cli(["plot", "--surface", surf, "--at", "0,0",
                          "--out", out_path])
    assert code == 0
    svg = (tmp_path / "b.svg").read_text()
    assert svg.count("<polygon") == 2  # both conics closed
    assert svg.count('class="binormal"') == 0


# -- selfcheck ---------------------------------------------------------------------

def test_selfcheck_passes(tmp_path):
    surf = write(tmp_path, "trig.surf",
                 "phi = sin(x)*cos(y) + 0.3*x^2\n"
                 "psi = 0.5*sin(x*y) + 0.2*y^2\ndomain = -1 1 -1 1\n")
    code, out, _ = run_cli(["selfcheck", "--surface", surf, "--res", "32"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.startswith("PASS") for line in lines)


def test_selfcheck_flags_float_breakdown(tmp_path):
    # derivatives of magnitude ~1e7 wreck the float64 cancellation budget of
    # the metric identities; the redundancy net must catch it and exit 1
    surf = write(tmp_path, "ill.surf",
                 "phi = 100*sin(40*x)*sin(40*y)\n"
                 "psi = 100*cos(40*x*y)\ndomain = -1 1 -1 1\n")
    code, out, _ = run_cli(["selfcheck", "--surface", surf, "--res", "32"])
    assert code == 1
    assert any(line.startswith("FAIL") for line in out.splitlines())


def test_delta_check_is_scale_free(tmp_path):
    """On s*(x^2 - y^2), s*(x^3/3 + x*y^2) for s = 2^j, j = 0 ... -266, and
    s = 1e-80, grid exits 0, every selfcheck line passes, and the live
    checks pass at a point of analyze.  Where ||M||^4 is below
    RESIDUAL_FLOOR, Delta and its band are subnormal and one rounding would
    fail the Delta check, so it compares both routes on the unit-scaled M."""
    x, y = -0.5, -0.30952380952380953
    for s in [repr(2.0 ** j) for j in range(0, -267, -1)] + ["1e-80"]:
        phi, psi = f"{s}*(x^2 - y^2)", f"{s}*(x^3/3 + x*y^2)"
        surf = write(tmp_path, "h.surf", f"phi = {phi}\npsi = {psi}\n"
                                         "domain = -0.5 0.5 -0.5 0.5\n")
        code, _, err = run_cli(["grid", "--surface", surf, "--res", "16",
                                "--out", str(tmp_path / "grid.csv")])
        assert code == 0, (s, err)
        code, out, _ = run_cli(["selfcheck", "--surface", surf, "--res", "16"])
        assert code == 0 and out.count("PASS ") == 6, (s, out)
        surface = localgeom.surface_from_strings(phi, psi)
        assert localgeom.local_invariants(surface, x, y).Delta < 0.0


# -- exit codes -----------------------------------------------------------------------

def test_exit_usage_bad_point(tmp_path):
    surf = write(tmp_path, "b.surf", B_TEXT)
    assert run_cli(["analyze", "--surface", surf, "--at", "nope"])[0] == 2
    assert run_cli(["analyze", "--surface", surf, "--at", "5,0"])[0] == 2
    assert run_cli(["grid", "--surface", surf, "--res", "8",
                    "--out", str(tmp_path / "x.csv")])[0] == 2
    assert run_cli(["grid", "--surface", surf, "--res", "5000",
                    "--out", str(tmp_path / "x.csv")])[0] == 2


def test_exit_usage_argparse():
    assert run_cli(["no-such-command"])[0] == 2


def test_exit_surface_file_errors(tmp_path):
    assert run_cli(["analyze", "--surface", str(tmp_path / "missing.surf"),
                    "--at", "0,0"])[0] == 3
    bad = write(tmp_path, "bad.surf", "phi = x +\npsi = y\ndomain = -1 1 -1 1\n")
    assert run_cli(["analyze", "--surface", bad, "--at", "0,0"])[0] == 3


def test_exit_surface_file_unreadable(tmp_path):
    binary = tmp_path / "binary.surf"
    binary.write_bytes(b"phi = \xff\xfe\n")
    for path in (tmp_path, binary):
        code, _, err = run_cli(["analyze", "--surface", str(path), "--at", "0,0"])
        assert code == 3
        assert err.startswith("monge4: cannot read surface file: ")
        assert err.count("\n") == 1


def test_exit_numerical_failure(tmp_path):
    surf = write(tmp_path, "log.surf",
                 "phi = log(x)\npsi = y^2\ndomain = -1 1 -1 1\n")
    code, _, err = run_cli(["grid", "--surface", surf, "--res", "16",
                            "--out", str(tmp_path / "x.csv")])
    assert code == 4
    assert "log" in err


# failures in a one-axis subexpression and the first offending grid point
# (x outer, y inner) that full-grid evaluation reports for them
AXIS_FAILURES = [
    ("log(x)", "y^2", "log of non-positive value at point (-1.0, -1.0)"),
    ("x^2", "sqrt(y)", "sqrt of non-positive value at point (-1.0, -1.0)"),
    ("log(0.3 - x)", "y^2",
     "log of non-positive value at point (0.33333333333333326, -1.0)"),
    ("x^2", "sqrt(0.3 - y)",
     "sqrt of non-positive value at point (-1.0, 0.33333333333333326)"),
    ("exp(1000*x)", "y^2",
     "non-finite result at point (0.7333333333333334, -1.0)"),
]


@pytest.mark.parametrize("command", ["grid", "selfcheck", "trace", "inflections"])
@pytest.mark.parametrize("phi, psi, message", AXIS_FAILURES)
def test_exit_numerical_failure_names_first_grid_point(tmp_path, command, phi,
                                                       psi, message):
    surf = write(tmp_path, "axis.surf",
                 f"phi = {phi}\npsi = {psi}\ndomain = -1 1 -1 1\n")
    args = [command, "--surface", surf, "--res", "16"]
    if command in ("grid", "trace"):
        args += ["--out", str(tmp_path / "x.csv")]
    code, out, err = run_cli(args)
    assert (code, out) == (4, "")
    assert err == f"monge4: numerical failure: {message}\n"


# exp(1e103*x) on x in [-5e-103, 0]: its value and its first and second
# derivatives are finite on the whole domain, its third derivative only for
# x below about -1.7e-103
THIRD_ORDER_OVERFLOW_TEXT = \
    "phi = exp(1e103*x)\npsi = y^2 + x*y\ndomain = -5e-103 0 -1 1\n"


def test_inflections_third_order_overflow_names_first_minimum(tmp_path):
    """inflections evaluates third derivatives at the residual's minima
    only, so the failing point is the first minimum where they overflow,
    (0, -1/63), not the grid's first node (-5e-103, -1), which the
    whole-grid reference of order 3 names.  trace needs no third
    derivative and succeeds."""
    surf = write(tmp_path, "third.surf", THIRD_ORDER_OVERFLOW_TEXT)
    assert run_cli(["inflections", "--surface", surf, "--res", "64"]) == (
        4, "", "monge4: numerical failure: non-finite result at point "
        "(0.0, -0.015873015873015928)\n")
    with pytest.raises(EvaluationError) as exc:
        find_inflections_reference(
            parse_surface_text(THIRD_ORDER_OVERFLOW_TEXT), 64)
    assert str(exc.value) == "non-finite result at point (-5e-103, -1.0)"
    code, _, err = run_cli(["trace", "--surface", surf, "--res", "64",
                            "--out", str(tmp_path / "t.csv")])
    assert (code, err) == (0, "")


# surfaces the metric used to break: steep (E*G - F^2 off by 1.2e-10, so
# the Gram check failed), E*G - F^2 cancelling to 0.0 (E, G ~ 4e140), and
# denominators of degree 9 (E*W*sqrt(W)*sqrt(Eh)) overflowing at a..g ~ 1e-70
STEEP_SURFACES = {
    "steep": ("1000*(x + 2*y) + x^2", "x*y + y^2"),
    "cancelling": ("1e70*(x^2+y^2)", "1e-300*y^2"),
    "overflowing": ("1e35*x^2", "1e35*y^2"),
}


def _steep_text(name):
    return "phi = {}\npsi = {}\ndomain = -1 1 -1 1\n".format(
        *STEEP_SURFACES[name])


@pytest.mark.parametrize("name", sorted(STEEP_SURFACES))
def test_steep_surfaces_evaluate(tmp_path, name):
    """grid, trace and inflections exit 0, and analyze prints a..g within
    4 eps ||M|| and W within 3 eps of frame_oracle; selfcheck passes except
    on the cancelling surface (below)."""
    text = _steep_text(name)
    surf = write(tmp_path, "steep.surf", text)
    for command in ("grid", "trace", "inflections", "selfcheck"):
        if command == "selfcheck" and name == "cancelling":
            continue
        args = [command, "--surface", surf, "--res", "16"]
        if command in ("grid", "trace"):
            args += ["--out", str(tmp_path / "x.csv")]
        code, _, err = run_cli(args)
        assert (code, err) == (0, ""), command
    spec = parse_surface_text(text)
    eps = np.finfo(float).eps
    for x, y in ((0.3, 0.2), (0.5, 0.1), (-0.7, 0.9), (-1.0, -1.0)):
        code, out, err = run_cli(["analyze", "--surface", surf,
                                  f"--at={x!r},{y!r}"])
        assert (code, err) == (0, "")
        rec = record_dict(out)
        orc = frame_oracle(eval_jet(spec.phi, x, y, 2).coeffs[1:6],
                           eval_jet(spec.psi, x, y, 2).coeffs[1:6])
        norm = math.hypot(*(orc[k] for k in "abcefg"))
        for key in "abcefg":
            assert abs(float(rec[key]) - orc[key]) <= 4 * eps * norm, key
        assert abs(float(rec["W"]) - orc["W"]) <= 3 * eps * orc["W"]


def test_selfcheck_route_overflow_names_first_grid_point(tmp_path):
    """On the same surface the Brioschi determinant, a product of metric
    entries of about 4e140, overflows from the third grid point on:
    selfcheck ends in exit 4 with one line naming that point, not in a FAIL
    with margin nan."""
    surf = write(tmp_path, "w.surf", _steep_text("cancelling"))
    assert run_cli(["selfcheck", "--surface", surf, "--res", "16"]) == (
        4, "", "monge4: numerical failure: non-finite invariants (overflow) "
        "at point (-1.0, -0.7333333333333334)\n")


OVERFLOW_TEXT = "phi = 1e80*x^2\npsi = 1e80*y^2\ndomain = -1 1 -1 1\n"


@pytest.mark.parametrize("args", [
    ["grid", "--res", "16", "--out", "{tmp}/x.csv"],
    ["selfcheck", "--res", "16"],
    ["analyze", "--at=0.5,0.1"],
    ["analyze", "--at=0,0"],
])
def test_exit_numerical_overflow(tmp_path, args):
    """Invariants that overflow end in exit 4 with one line naming a point."""
    surf = write(tmp_path, "big.surf", OVERFLOW_TEXT)
    args = [a.replace("{tmp}", str(tmp_path)) for a in args]
    code, out, err = run_cli(args + ["--surface", surf])
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("monge4: numerical failure: non-finite invariants")
    assert "at point (" in err
    assert not (tmp_path / "x.csv").exists()


def test_exit_numerical_failed_cross_check(tmp_path, monkeypatch):
    """grid runs the live cross-checks on its fields: with the K check's
    bound at 0 it ends in exit 4, one line naming the first failing point,
    and no output file."""
    k_check, *others = localgeom.CROSS_CHECKS
    monkeypatch.setattr(localgeom, "CROSS_CHECKS",
                        (k_check._replace(rel=0.0), *others))
    surf = write(tmp_path, "b.surf", B_TEXT)
    code, out, err = run_cli(["grid", "--surface", surf, "--res", "16",
                              "--out", str(tmp_path / "x.csv")])
    assert (code, out) == (4, "")
    assert err.startswith("monge4: numerical failure: K cross-check failed: ")
    assert " at point (" in err and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_exit_numerical_linalg_error(tmp_path, monkeypatch):
    """numpy's LinAlgError is a ValueError, but a numerical failure."""
    surf = write(tmp_path, "b.surf", B_TEXT)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    # the inverse of A A^T that the indicatrix conic takes
    monkeypatch.setattr(np.linalg, "inv", fail)
    code, _, err = run_cli(["analyze", "--surface", surf, "--at", "0.1,0.2"])
    assert code == 4
    assert err == "monge4: numerical failure: Singular matrix\n"


def _raise_memory_error(*args, **kwargs):
    raise MemoryError("cannot allocate the grid")


def _raise_numpy_memory_error(*args, **kwargs):
    np.empty(1 << 62, dtype=np.uint8)  # 4 EiB: the allocation itself fails


@pytest.mark.parametrize("fail", [_raise_memory_error,
                                  _raise_numpy_memory_error])
def test_exit_numerical_out_of_memory(tmp_path, monkeypatch, fail):
    """MemoryError, numpy's _ArrayMemoryError included, is one line and
    exit 4, not a traceback."""
    surf = write(tmp_path, "b.surf", B_TEXT)
    # the grid's tiles call invariant_grid from localgeom
    monkeypatch.setattr(localgeom, "invariant_grid", fail)
    code, out, err = run_cli(["trace", "--surface", surf, "--res", "16",
                              "--out", str(tmp_path / "t.csv")])
    assert code == 4
    assert out == ""
    assert err.startswith("monge4: out of memory: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_exit_out_of_memory_without_message(tmp_path, monkeypatch):
    """Python's own MemoryError has no message: one complete line still."""
    def fail(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setitem(cli._COMMANDS, "trace", fail)
    surf = write(tmp_path, "b.surf", B_TEXT)
    args = ["trace", "--surface", surf, "--res", "16",
            "--out", str(tmp_path / "t.csv")]
    assert run_cli(args) == (4, "", "monge4: out of memory\n")


def test_negative_point_as_separate_argument(tmp_path):
    """--at -0.5,0 is read like --at=-0.5,0, not as an option."""
    surf = write(tmp_path, "b.surf", B_TEXT)
    spaced = run_cli(["analyze", "--surface", surf, "--at", "-0.5,0"])
    joined = run_cli(["analyze", "--surface", surf, "--at=-0.5,0"])
    assert spaced[0] == 0, spaced[2]
    assert spaced == joined
    assert record_dict(spaced[1])["x"] == "-0.5"


def test_integer_power_above_powi_limit_on_negative_base(tmp_path):
    surf = write(tmp_path, "p.surf",
                 "phi = x^600\npsi = y^2\ndomain = -1 1 -1 1\n")
    code, _, err = run_cli(["analyze", "--surface", surf, "--at=-0.5,0"])
    assert code == 4
    assert "integer power 600 (above the powi limit 512)" in err
    assert "non-integer" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["grid", "--res", "16"],
    ["trace", "--res", "16"],
    ["plot", "--at", "0.1,0.2"],
])
def test_exit_usage_unwritable_output(tmp_path, args):
    surf = write(tmp_path, "b.surf", B_TEXT)
    target = tmp_path / "no-such-dir" / "out"
    code, _, err = run_cli(args + ["--surface", surf, "--out", str(target)])
    assert code == 2
    assert err.startswith("monge4: cannot write output: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full")


@needs_dev_full
@pytest.mark.parametrize("args", [
    ["grid", "--res", "16"],
    ["trace", "--res", "16"],
    ["plot", "--at", "0.1,0.2"],
])
def test_exit_usage_output_write_fails(tmp_path, args):
    surf = write(tmp_path, "b.surf", B_TEXT)
    code, _, err = run_cli(args + ["--surface", surf, "--out", "/dev/full"])
    assert code == 2
    assert err == "monge4: cannot write output: [Errno 28] No space left on device\n"


def _run_to_stdout(args, stdout, unbuffered):
    """The CLI in a subprocess writing to ``stdout``: buffered, output fails
    in the flush before exit; unbuffered, in the first write."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "monge4.cli", *args],
                          stdout=stdout, stderr=subprocess.PIPE, env=env,
                          check=False)


@needs_dev_full
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("args", [
    ["analyze", "--at", "0.1,0.2"],
    ["selfcheck", "--res", "16"],
])
def test_exit_usage_stdout_write_fails(tmp_path, args, unbuffered):
    surf = write(tmp_path, "b.surf", B_TEXT)
    with open("/dev/full", "wb") as full:
        r = _run_to_stdout(args + ["--surface", surf], full, unbuffered)
    assert r.returncode == 2
    assert r.stderr == (b"monge4: cannot write output: "
                        b"[Errno 28] No space left on device\n")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_exit_usage_stdout_pipe_closed(tmp_path, unbuffered):
    surf = write(tmp_path, "b.surf", B_TEXT)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = _run_to_stdout(["analyze", "--surface", surf, "--at", "0.1,0.2"],
                           write_end, unbuffered)
    finally:
        os.close(write_end)
    assert r.returncode == 2
    assert r.stderr == b"monge4: cannot write output: [Errno 32] Broken pipe\n"


# -- determinism ------------------------------------------------------------------------

def _run_subprocess(args):
    return subprocess.run([sys.executable, "-m", "monge4.cli", *args],
                          capture_output=True, check=False)


def test_byte_identical_outputs(tmp_path):
    surf = write(tmp_path, "g.surf",
                 "phi = 1.5*x^2 + 0.5*y^2\npsi = 2*x*y\ndomain = -1 1 -1 1\n")
    csv1, csv2 = str(tmp_path / "g1.csv"), str(tmp_path / "g2.csv")
    svg1, svg2 = str(tmp_path / "g1.svg"), str(tmp_path / "g2.svg")
    for out in (csv1, csv2):
        r = _run_subprocess(["grid", "--surface", surf, "--res", "24",
                             "--out", out])
        assert r.returncode == 0, r.stderr
    for out in (svg1, svg2):
        r = _run_subprocess(["plot", "--surface", surf, "--at", "0.25,-0.5",
                             "--out", out])
        assert r.returncode == 0, r.stderr
    assert (tmp_path / "g1.csv").read_bytes() == (tmp_path / "g2.csv").read_bytes()
    assert (tmp_path / "g1.svg").read_bytes() == (tmp_path / "g2.svg").read_bytes()
    # LF line endings
    assert b"\r" not in (tmp_path / "g1.csv").read_bytes()


# sha256 of the outputs for GOLDEN_TEXT at --res 32.  The surface is
# polynomial, so the bytes depend on neither libm nor LAPACK; a change that
# alters any digit of the grid or the trace shows here.
# The grid digest was re-recorded when W came from the Lagrange identity:
# K, kappa and Delta moved by at most 4 eps |M|^2 and 1 eps |M|^4.
GOLDEN_TEXT = ("phi = 1.5*x^2 + 0.5*y^2\npsi = 2*x*y + 0.3*y^3\n"
               "domain = -1 1 -1 1\n")
GOLDEN_SHA256 = {
    "grid": "2c2081f9225503212645ba2ae573f1975d74b464ca66436c94ea3806c5623fc9",
    "trace": "d7719485d10b9cbddda19edb94d00d6e1f9ed2c806ff8c28a0a57113284eaba9",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_golden_outputs(tmp_path, command):
    surf = write(tmp_path, "g.surf", GOLDEN_TEXT)
    out_path = tmp_path / f"{command}.csv"
    code, _, err = run_cli([command, "--surface", surf, "--res", "32",
                            "--out", str(out_path)])
    assert code == 0, err
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[command]


# -- --tol ----------------------------------------------------------------------

def _grid_classes(tmp_path, surf, *tol):
    out_path = tmp_path / "tol.csv"
    code, _, err = run_cli(["grid", "--surface", surf, "--res", "16",
                            "--out", str(out_path), *tol])
    assert code == 0, err
    return [line.rsplit(",", 1)[1]
            for line in out_path.read_text().splitlines()[1:]]


def test_tol_moves_the_bands(tmp_path):
    """On the golden surface, which is hyperbolic on the whole 16 x 16 grid,
    --tol 0.1 takes the point (0.25, -0.2) into the parabolic band: one
    asymptotic direction instead of two, and grid labels move too."""
    surf = write(tmp_path, "g.surf", GOLDEN_TEXT)
    for tol, kind, count in (([], "hyperbolic", "2"),
                             (["--tol", "0.1"], "parabolic", "1")):
        code, out, _ = run_cli(["analyze", "--surface", surf,
                                "--at=0.25,-0.2", *tol])
        rec = record_dict(out)
        assert (code, rec["class"], rec["asymptotic_count"]) == (0, kind, count)
    default = _grid_classes(tmp_path, surf)
    assert set(default) == {"hyperbolic"}
    assert _grid_classes(tmp_path, surf, "--tol", "0.1") != default
    assert _grid_classes(tmp_path, surf, "--tol", "0") == default
    for command in ("trace", "inflections"):
        args = [command, "--surface", surf, "--res", "16", "--tol", "0.1"]
        if command == "trace":
            args += ["--out", str(tmp_path / "t.csv")]
        assert run_cli(args)[0] == 0


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_exit_usage_tol_not_finite_or_negative(tmp_path, tol):
    """A --tol that is nan, negative or infinite would relabel every point
    (all parabolic, all elliptic, or every direction asymptotic): exit 2 with
    one line, before anything is written."""
    surf = write(tmp_path, "g.surf", GOLDEN_TEXT)
    out_path = tmp_path / "g.csv"
    for args in (["analyze", "--at=0.25,-0.2"],
                 ["grid", "--res", "16", "--out", str(out_path)]):
        code, out, err = run_cli(args + ["--surface", surf, "--tol", tol])
        assert (code, out) == (2, "")
        assert err.startswith("monge4: --tol") and err.count("\n") == 1, err
    assert not out_path.exists()


# sha256 of the plot SVG at one point of a polynomial surface each, recorded
# before the evolvent sweep was batched: an elliptic point (both conics
# closed), a hyperbolic one (a clipped sample, two characteristic branches),
# a parabolic one (a singular sample, one open branch) and a segment
# indicatrix (no characteristic curve).  The hyperbolic and parabolic digests
# were re-recorded when the sweep was cut where eta x zeta changes sign, in
# place of at steps longer than 30 times the median step: their
# characteristic vertices went from 469 to 511 and from 429 to 489, each of
# the old ones still drawn, and their branch counts stayed.
PLOT_GOLDEN = {
    "elliptic": (
        "phi = x^2 - y^2 + 0.5*x^3\npsi = 2*x*y + 0.3*y^3\n"
        "domain = -1 1 -1 1\n", "0.3,-0.1", 1,
        "29778424ec996a0efe99e04906ac983b14e06b2f1e91e5a63803c908e9b13449"),
    "hyperbolic": (
        GOLDEN_TEXT, "0.25,-0.5", 2,
        "4aa407a5917e48cd5d821812cc2185b9136454cbd5840417a06ffec883cfa906"),
    "parabolic": (
        "phi = x^2\npsi = 2*x*y\ndomain = -1 1 -1 1\n", "0,0", 1,
        "163563fe35397f9da61158994ffd047f58eedeb3e8864a95845ec753b4b4046b"),
    "segment": (
        "phi = x^2\npsi = y^2\ndomain = -1 1 -1 1\n", "0.3,-0.2", 0,
        "4e2f5ffc7f49772c76d662c202ee9b2b98b50db33e0782c912f761282b1730ec"),
}


@pytest.mark.parametrize("name", sorted(PLOT_GOLDEN))
def test_plot_golden_outputs(tmp_path, name):
    text, at, branches, sha = PLOT_GOLDEN[name]
    surf = write(tmp_path, f"{name}.surf", text)
    out_path = tmp_path / f"{name}.svg"
    code, _, err = run_cli(["plot", "--surface", surf, "--at", at,
                            "--out", str(out_path)])
    assert code == 0, err
    svg = out_path.read_text(encoding="utf-8")
    assert svg.count('class="characteristic"') == branches
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == sha


def test_plot_draws_every_sample_near_the_asymptotes(tmp_path):
    """At this hyperbolic point of the benchmark's point-queries surfaces
    (seed 0), all 512 samples of the characteristic sweep lie within the
    clip, and the curve is cut only at its two points at infinity: 512
    vertices in two branches, 492 of them inside the 800 x 800 view (a cut
    at steps longer than 30 times the median step drew 468, all inside)."""
    surface = benchmark_surfaces("point-queries", 0)["poly0"]
    out_path = tmp_path / "p.svg"
    args = argparse.Namespace(at="-0.557,0.516", tol=localgeom.REL,
                              out=str(out_path))
    assert cli._cmd_plot(surface, args, None) == 0
    svg = out_path.read_text(encoding="utf-8")
    vertices = [tuple(map(float, v.split(",")))
                for line in svg.splitlines() if 'class="characteristic"' in line
                for v in line.split('points="')[1].split('"')[0].split()]
    assert svg.count('class="characteristic"') == 2
    assert len(vertices) == 512
    assert sum(0.0 <= x <= 800.0 and 0.0 <= y <= 800.0
               for x, y in vertices) == 492


# sha256 of the trace CSV and the inflections stdout at --res 64 for two
# gallery surfaces (scripts/fixture_gallery.py) and one with a saddle cell of
# the sampled Delta field, where marching squares needs the centre test.
# All three are polynomial; the digests pin vertices, residuals and reports
# bit for bit.  The inflections digests were recorded before the locus search
# was batched, and re-recorded when det_hessian_delta became exact (jets in
# place of differences): it now reads -1024.0 on both surfaces, and the
# inflection_real report moved by 8e-28 with the last bits of the Newton
# gradients.  The trace digests were re-recorded when Illinois iteration
# replaced the edge bisection, after checking that the vertex ids stay the
# same, no vertex moves by more than 1.4e-14 and the largest residual drops.
# All but the parabolic_loop inflections digest were re-recorded when W came
# from the Lagrange identity and a..g from normalised factors: parabolic_loop
# and saddle keep their ids and move by at most 5.5e-15; the inflection
# reports move by at most 5.2e-26.  On inflection_real Delta changes sign
# across x = +-y, which pass through grid nodes, so the sign of Delta's
# rounding noise at those nodes splits the locus: 16 polylines of 222
# vertices instead of 5 of 246, every vertex of both within 2.8e-16 of
# |x| = |y|, and the largest residual 2.9e-16 instead of 3.1e-16.
# The inflection_real and saddle inflections digests were re-recorded when
# the walkers became one batch on grad Delta = 0, kappa = 0: the same one
# real report on each, with K and det_hessian_delta unchanged; on
# inflection_real it moved from (8.3e-25, 0) to (0, 0), residual 1.7e-49 to
# 0, on saddle from (3.5e-10, 0) to (5.0e-29, -5.0e-29), residual 3.0e-20
# to 5.0e-29.
LOCUS_GOLDEN = {
    "parabolic_loop": (
        "phi = x^2 - y^2 - x^4 - 2*x^2*y^2 - y^4\npsi = 2*x*y\n"
        "domain = -1 1 -1 1\n",
        "e9714165291caa31c56c8276edf7b69211df88f01914444604c49d6e5729cc33",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "inflection_real": (
        "phi = x^2 - y^2\npsi = x^3/3 + x*y^2\ndomain = -0.5 0.5 -0.5 0.5\n",
        "94875a52ef08913c6988cc61122ddf1930b7045330c8db6d4cd81adfe9a638ec",
        "2339a1059bb16ee7897788ffd4a4772b823b6b12caef1f85dbc1631faed563de"),
    "saddle": (
        "phi = x^2 - y^2\npsi = x^3/3 + x*y^2 + 0.2*y^3\n"
        "domain = -0.5 0.5 -0.5 0.5\n",
        "9270a973729cd86ff198d34a85ecbe13dbb3890b17d97e3d5686b1118594967f",
        "e45db765414223a54f30899c7300dcaf80038d4673a36e7e0769390fcb9fcb4d"),
}


def _saddle_cells(text, res):
    """Cells of the sampled Delta grid whose corner signs alternate."""
    from monge4.localgeom import invariant_grid
    spec = parse_surface_text(text)
    xmin, xmax, ymin, ymax = spec.domain
    gx, gy = np.meshgrid(np.linspace(xmin, xmax, res),
                         np.linspace(ymin, ymax, res), indexing="ij")
    d = invariant_grid(spec, gx, gy).Delta
    s00, s10, s11, s01 = d[:-1, :-1], d[1:, :-1], d[1:, 1:], d[:-1, 1:]
    return np.argwhere(((s00 > 0) & (s10 < 0) & (s11 > 0) & (s01 < 0))
                       | ((s00 < 0) & (s10 > 0) & (s11 < 0) & (s01 > 0)))


def test_locus_golden_fixture_has_saddle_cell():
    assert len(_saddle_cells(LOCUS_GOLDEN["saddle"][0], 64)) >= 1


@pytest.mark.parametrize("name", sorted(LOCUS_GOLDEN))
def test_locus_golden_outputs(tmp_path, name):
    text, trace_sha, infl_sha = LOCUS_GOLDEN[name]
    surf = write(tmp_path, f"{name}.surf", text)
    out_path = tmp_path / "trace.csv"
    code, _, err = run_cli(["trace", "--surface", surf, "--res", "64",
                            "--out", str(out_path)])
    assert code == 0, err
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == trace_sha
    code, out, err = run_cli(["inflections", "--surface", surf, "--res", "64"])
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == infl_sha


def test_inflections_on_a_tiny_domain_print_no_nan(tmp_path):
    """On a domain 1e-120 wide the Hessian of Delta is finite at every
    report: it comes from jets at the report, not from differences over a
    step that reaches far outside the domain."""
    surf = write(tmp_path, "tiny.surf",
                 "phi = 1e70*(x^2+y^2)\npsi = 1e-300*y^2\n"
                 "domain = -1e-120 1e-120 -1e-120 1e-120\n")
    code, out, err = run_cli(["inflections", "--surface", surf, "--res", "16"])
    assert code == 0, err
    assert out and "nan" not in out


def test_passes_evaluate_only_the_derivatives_they_use(tmp_path):
    """phi = 1e308 x^3 has an infinite third derivative and finite
    invariants: grid and trace, which use derivatives up to order 2, run;
    selfcheck and inflections, which use the third, fail with exit 4."""
    surf = write(tmp_path, "cubic.surf",
                 "phi = 1e308*x^3\npsi = y^2\n"
                 "domain = -1e-300 1e-300 -1e-300 1e-300\n")
    for command in ("grid", "trace"):
        code, _, err = run_cli([command, "--surface", surf, "--res", "16",
                                "--out", str(tmp_path / f"{command}.csv")])
        assert code == 0, err
    for command in ("selfcheck", "inflections"):
        code, _, err = run_cli([command, "--surface", surf, "--res", "16"])
        assert code == 4
        assert "non-finite result" in err


# -- hostile surfaces through run() ---------------------------------------------

_ATOMS = st.sampled_from(["x", "y", "x", "y", "0", "1", "2.5", "pi", "1e300",
                          "1e-300", "1e160", "1e76", "1e-155"])
_EXPONENTS = st.sampled_from(["2", "3", "-1", "-2", "0.5", "2.5", "40",
                              "600", "-600"])

_HOSTILE_EXPRESSIONS = expression_texts(_ATOMS, _EXPONENTS, max_leaves=8)
_TINY = "-1e-120 1e-120 -1e-120 1e-120"
_DOMAINS = st.sampled_from(["-1 1 -1 1", "0 1 -1 0", "-1e-8 1e-8 -1e-8 1e-8",
                            _TINY, "-1000 1000 -1000 1000", "-3 3 0.5 2"])


@given(_HOSTILE_EXPRESSIONS, _HOSTILE_EXPRESSIONS, _DOMAINS,
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
# a subnormal largest coefficient (the classifier's 2^k scale overflowed)
@example("((x * -(2.5)^0.5))^40", "2.5", "-1e-8 1e-8 -1e-8 1e-8", 0.5, 0.5)
# tan of an infinite constant (math.tan raised ValueError: exit 2)
@example("(exp(tan((1e300)^3)) / x)", "y", "-1 1 -1 1", 0.5, 0.5)
# ||M||^2 of Python floats overflowed (OverflowError)
@example("1e160*x^2", "1e-300*y^2", "-1 1 -1 1", 0.5, 0.5)
# overflowing Delta gradients and a non-finite Delta Hessian (warnings)
@example("1e160*x^2", "1e-300*y^2", _TINY, 0.5, 0.5)
@example("1e76*x^2", "1e-300*y^2", _TINY, 0.5, 0.5)
# a subnormal coordinate: LU pivots underflow in numpy's det (warning)
@example("x", "(x * y)", "0 1 -1 0", 1.1125369292536007e-308, 0.0)
# W and a..g finite, the Gram check's Eh*Gh infinite (a RuntimeWarning)
@example("(x)^-1", "x*(1e76)^2", "-1 1 -1 1", 0.5, 0.5)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_hostile_surfaces_exit_cleanly(tmp_path, phi, psi, domain, u, v):
    """Huge and tiny constants, tan, division, log/sqrt of arguments that
    change sign and large powers: every subcommand ends in success or a
    numerical failure (exit 4) with one line on stderr, and never raises
    (warnings are errors under the test configuration)."""
    surf = write(tmp_path, "hostile.surf",
                 f"phi = {phi}\npsi = {psi}\ndomain = {domain}\n")
    xmin, xmax, ymin, ymax = (float(t) for t in domain.split())
    at = (f"--at={min(xmin + u * (xmax - xmin), xmax)!r},"
          f"{min(ymin + v * (ymax - ymin), ymax)!r}")
    for args in (["analyze", at],
                 ["grid", "--res", "16", "--out", str(tmp_path / "g.csv")],
                 ["trace", "--res", "16", "--out", str(tmp_path / "t.csv")],
                 ["inflections", "--res", "16"]):
        code, _, err = run_cli(args + ["--surface", surf])
        assert code in (0, 4), (args[0], err)
        assert "Traceback" not in err
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), err
        else:
            assert err == ""
