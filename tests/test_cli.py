"""Surface files, CLI subcommands, output formats, exit codes, determinism."""

import hashlib
import io
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from monge4 import cli, locus
from monge4.errors import SurfaceFileError
from monge4.surfacefile import parse_surface_text

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


def test_malformed_domain():
    with pytest.raises(SurfaceFileError):
        parse_surface_text("phi = x\npsi = y\ndomain = -1 1 zero 1\n")
    with pytest.raises(SurfaceFileError):
        parse_surface_text("phi = x\npsi = y\ndomain = -1 1 0\n")


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


def test_exit_numerical_linalg_error(tmp_path, monkeypatch):
    """numpy's LinAlgError is a ValueError, but a numerical failure."""
    surf = write(tmp_path, "b.surf", B_TEXT)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    code, _, err = run_cli(["analyze", "--surface", surf, "--at", "0.1,0.2"])
    assert code == 4
    assert err == "monge4: numerical failure: SVD did not converge\n"


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
    monkeypatch.setattr(locus, "invariant_grid", fail)
    code, out, err = run_cli(["trace", "--surface", surf, "--res", "16",
                              "--out", str(tmp_path / "t.csv")])
    assert code == 4
    assert out == ""
    assert err.startswith("monge4: out of memory: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


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
GOLDEN_TEXT = ("phi = 1.5*x^2 + 0.5*y^2\npsi = 2*x*y + 0.3*y^3\n"
               "domain = -1 1 -1 1\n")
GOLDEN_SHA256 = {
    "grid": "c7729615c18177e5b7475b480097dd28f04e6436ee4213bae870cb4bb90e9be3",
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


# sha256 of the plot SVG at one point of a polynomial surface each, recorded
# before the evolvent sweep was batched: an elliptic point (both conics
# closed), a hyperbolic one (a clipped sample, two characteristic branches),
# a parabolic one (a singular sample, one open branch) and a segment
# indicatrix (no characteristic curve).
PLOT_GOLDEN = {
    "elliptic": (
        "phi = x^2 - y^2 + 0.5*x^3\npsi = 2*x*y + 0.3*y^3\n"
        "domain = -1 1 -1 1\n", "0.3,-0.1", 1,
        "29778424ec996a0efe99e04906ac983b14e06b2f1e91e5a63803c908e9b13449"),
    "hyperbolic": (
        GOLDEN_TEXT, "0.25,-0.5", 2,
        "1fbc67cabde615c30a881c99f4eac99856b3f6266d2d3be0ce8441e12f214c0f"),
    "parabolic": (
        "phi = x^2\npsi = 2*x*y\ndomain = -1 1 -1 1\n", "0,0", 1,
        "b281ed011cde657e6f90980f25734b221f7497b57ec4bd8728a943fb36ba7ab4"),
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


# sha256 of the trace CSV and the inflections stdout at --res 64 for two
# gallery surfaces (scripts/fixture_gallery.py) and one with a saddle cell of
# the sampled Delta field, where marching squares needs the centre test.
# All three are polynomial; the digests were recorded before the locus
# search was batched and pin its vertices, residuals and reports bit for bit.
LOCUS_GOLDEN = {
    "parabolic_loop": (
        "phi = x^2 - y^2 - x^4 - 2*x^2*y^2 - y^4\npsi = 2*x*y\n"
        "domain = -1 1 -1 1\n",
        "8bc31b8133b031ca504403e3c85d5d9c3305959cc45bcea789e9467cc5a8673d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "inflection_real": (
        "phi = x^2 - y^2\npsi = x^3/3 + x*y^2\ndomain = -0.5 0.5 -0.5 0.5\n",
        "e5b07ae37d7c2ec588e9487096997e3464674fe4fd99b60f045e842cad8a51e6",
        "61180aab4e7e54429604b29e87c90a7e3ef4d84745bec37f74f65f70ed0ab755"),
    "saddle": (
        "phi = x^2 - y^2\npsi = x^3/3 + x*y^2 + 0.2*y^3\n"
        "domain = -0.5 0.5 -0.5 0.5\n",
        "9cf5b9c73c169a03f4a3a5a66f22e995e81514ed57d596c48209ebe787b8f58b",
        "d110f1fc2a0b8e9264903e0598299e37ebf800099c40a0b5d344205226f6e503"),
}


def _saddle_cells(text, res):
    """Cells of the sampled Delta grid whose corner signs alternate."""
    from monge4.localgeom import invariant_grid
    spec = parse_surface_text(text)
    xmin, xmax, ymin, ymax = spec.domain
    gx, gy = np.meshgrid(np.linspace(xmin, xmax, res),
                         np.linspace(ymin, ymax, res), indexing="ij")
    d = invariant_grid(spec, gx, gy, cross_check=False).Delta
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


# -- hostile surfaces through run() ---------------------------------------------

_ATOMS = st.sampled_from(["x", "y", "x", "y", "0", "1", "2.5", "pi", "1e300",
                          "1e-300", "1e160", "1e76", "1e-155"])
_EXPONENTS = st.sampled_from(["2", "3", "-1", "-2", "0.5", "2.5", "40",
                              "600", "-600"])


def _compound(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "tan", "exp", "log", "sqrt"]),
                  children).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(children, _EXPONENTS).map(lambda t: f"({t[0]})^{t[1]}"),
        children.map(lambda c: f"-{c}"),
    )


_HOSTILE_EXPRESSIONS = st.recursive(_ATOMS, _compound, max_leaves=8)
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
