"""analyze and plot do not depend on the scale of the surface.

The surfaces phi and psi times s = 2^j, for j from -40 down to -1000,
have the same class, conic kinds, rank and flags at every j, and plot
draws the same picture, byte for byte.  At j = -40 the metric is the
identity to the last bit, so from there on only the second fundamental
form scales, but the metric's cross terms F and Fhat, of order s^2, still
add terms of a higher order in s to some numbers, where their leading
terms cancel.  From j = -100 on those fall below the last bit, and every
number analyze prints scales by its own exact power of two of s wherever
the scaled value is a normal float.  Every run exits 0 with nothing on
stderr (and no numpy warning, which the test configuration makes an
error).
"""

import io
import math

import numpy as np
import pytest

from monge4 import cli

from conftest import gallery_texts, random_surface_text

SCALES = (-40, -64, -100, -101, -255, -300, -511, -512, -700, -1000)
POINTS = ("0.3,-0.2", "-0.45,0.35")

# the fields that must be the same at every scale
FLAGS = ("class", "inflection_type", "rank_m", "circle", "minimal",
         "umbilic", "indicatrix_degenerate", "asymptotic_count",
         "indicatrix_conic_defined", "characteristic_kind")

TRIG = ("sin(3*x)*cos(2*y) + 0.6*x^2*y", "cos(2*x+y) + 0.3*x*y^2 - 0.2*y^3")


def _surfaces():
    table = {name: (phi, psi) for name, (phi, psi, _) in gallery_texts().items()}
    table["trig"] = TRIG
    rng = np.random.default_rng(2718)
    for n in range(3):
        table[f"random{n}"] = random_surface_text(rng)
    return table


SURFACES = _surfaces()


def _scaled_text(phi, psi, j):
    s = repr(math.ldexp(1.0, j))
    return f"phi = {s}*({phi})\npsi = {s}*({psi})\ndomain = -1 1 -1 1\n"


def _run(tmp_path, args, text):
    path = tmp_path / "s.surf"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code = cli.run([args[0], "--surface", str(path), *args[1:]],
                   out=out, err=err)
    assert (code, err.getvalue()) == (0, ""), (args, text)
    return out.getvalue()


def _record(tmp_path, phi, psi, j, at):
    out = _run(tmp_path, ["analyze", f"--at={at}"], _scaled_text(phi, psi, j))
    return dict(line.split("=", 1) for line in out.splitlines())


def _degree(v0, v1):
    """d with v1 = v0 2^-d, for the values v0 at j = -100 and v1 at
    j = -101; None where both are zero or nan."""
    if v0 == 0.0 or math.isnan(v0):
        assert v1 == v0 or (math.isnan(v0) and math.isnan(v1))
        return None
    mantissa, d = math.frexp(v0 / v1)
    assert mantissa == 0.5, (v0, v1)
    return d - 1


# scaled values at least this large are compared bit for bit: far enough
# above the subnormal range that no term of them lost a bit there
NORMAL = math.ldexp(1.0, -1022 + 64)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_analyze_scales_exactly(tmp_path, name):
    phi, psi = SURFACES[name]
    numbers = [k for k in cli.ANALYZE_KEYS if k not in FLAGS]
    for at in POINTS:
        recs = {j: _record(tmp_path, phi, psi, j, at) for j in SCALES}
        for j in SCALES:
            assert [recs[j][k] for k in FLAGS] \
                == [recs[-40][k] for k in FLAGS], (j, at)
        base = recs[-100]
        degrees = {k: _degree(float(base[k]), float(recs[-101][k]))
                   for k in numbers}
        for j in SCALES[3:]:
            rec = recs[j]
            for k in numbers:
                got, d = float(rec[k]), degrees[k]
                if d is None:
                    assert rec[k] == base[k], (k, j, at)
                    continue
                want = math.ldexp(float(base[k]), d * (j + 100))
                if abs(want) >= NORMAL:
                    assert got == want, (k, j, at)
                else:
                    assert abs(got) < NORMAL, (k, j, at)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_plot_is_the_same_at_every_scale(tmp_path, name):
    phi, psi = SURFACES[name]
    out_path = tmp_path / "p.svg"
    for at in POINTS:
        images = set()
        for j in SCALES:
            _run(tmp_path, ["plot", f"--at={at}", "--out", str(out_path)],
                 _scaled_text(phi, psi, j))
            images.add(out_path.read_bytes())
        assert len(images) == 1, at


def test_trig_point_is_hyperbolic_with_a_hyperbola_at_every_scale(tmp_path):
    """The trig surface at (0.3, -0.2): class hyperbolic, rank 2, neither
    circle nor minimal, and a hyperbola for the characteristic conic at
    every j in [-1000, 0]."""
    for j in range(0, -1001, -1):
        rec = _record(tmp_path, *TRIG, j, "0.3,-0.2")
        assert [rec[k] for k in FLAGS] == [
            "hyperbolic", "none", "2", "false", "false", "false", "false",
            "2", "true", "hyperbola"], j


@pytest.mark.parametrize("s", ["1", "1e-40", "1e-80"])
def test_hyperbolic_point_near_a_real_inflection(tmp_path, s):
    """A hyperbolic point of s (x^2 - y^2), s (x^3/3 + x y^2): rank 2, no
    circle, a hyperbola and finite conic entries at s = 1, 1e-40 and
    1e-80 alike (rank 0 and a degenerate or nan conic were printed once
    ||M|| fell below an absolute floor)."""
    rec = _record(tmp_path, f"{s}*(x^2 - y^2)", f"{s}*(x^3/3 + x*y^2)", 0,
                  "-0.5,-0.30952380952380953")
    assert (rec["class"], rec["rank_m"], rec["circle"],
            rec["characteristic_kind"]) == ("hyperbolic", "2", "false",
                                           "hyperbola")
    assert all(math.isfinite(float(rec[f"char_q{i}"]))
               for i in ("11", "12", "13", "22", "23", "33"))
