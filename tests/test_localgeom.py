"""Pointwise invariants: fixtures, redundant-formula agreement, and the
independent Gram-Schmidt/finite-difference oracle."""

import math

import numpy as np
import pytest

from monge4 import expr as ex
from monge4 import localgeom
from monge4.errors import CrossCheckError
from monge4.localgeom import (brioschi_curvature, brioschi_field, coeff_norm,
                              delta_resultant, invariant_grid,
                              invariant_gradients, local_invariants,
                              surface_from_strings)

from conftest import (AXIS_XS, AXIS_YS, fixture_callables, grid_corpus,
                      make_surface, random_points, random_surfaces)
from oracles import eval_value, geometric_oracle


def test_surface_a_values(surfaces):
    inv = local_invariants(surfaces["A"], 0.0, 0.0)
    assert (inv.a, inv.b, inv.c) == (2.0, 0.0, 0.0)
    assert (inv.e, inv.f, inv.g) == (0.0, 0.0, 2.0)
    assert inv.K == 0.0 and inv.kappa == 0.0
    assert inv.Delta == pytest.approx(-4.0, abs=1e-12)
    assert inv.H == pytest.approx([1.0, 1.0])


def test_surface_b_values(surfaces):
    inv = local_invariants(surfaces["B"], 0.0, 0.0)
    assert (inv.a, inv.b, inv.c) == (2.0, 0.0, -2.0)
    assert (inv.e, inv.f, inv.g) == (0.0, 2.0, 0.0)
    assert inv.K == -8.0 and inv.kappa == 8.0
    assert inv.Delta == pytest.approx(16.0, abs=1e-12)
    assert inv.H == pytest.approx([0.0, 0.0])


def test_flat_plane(surfaces):
    inv = local_invariants(surfaces["flat"], 0.37, -0.9)
    for name in ("a", "b", "c", "e", "f", "g", "K", "kappa", "Delta"):
        assert getattr(inv, name) == 0.0
    assert (inv.E, inv.F, inv.G) == (1.0, 0.0, 1.0)
    assert inv.H == pytest.approx([0.0, 0.0])


def test_first_fundamental_form_off_origin(surfaces):
    inv = local_invariants(surfaces["B"], 0.5, -0.25)
    # T1 = (1, 0, phi_x, psi_x) with phi_x = 2x, psi_x = 2y
    assert inv.E == pytest.approx(1 + 1.0 ** 2 + (-0.5) ** 2)
    assert inv.W == pytest.approx(inv.E * inv.G - inv.F ** 2)
    assert inv.Ehat * inv.Ghat - inv.Fhat ** 2 == pytest.approx(inv.W, rel=1e-12)


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "E", "G", "H"])
@pytest.mark.parametrize("point", [(0.0, 0.0), (0.31, -0.22), (-0.6, 0.45)])
def test_against_geometric_oracle(name, point):
    """The frame-formula implementation agrees with an oracle that builds the
    frames by Gram-Schmidt and differentiates the embedding numerically."""
    surface = make_surface(name)
    phi, psi = fixture_callables(name)
    inv = local_invariants(surface, *point)
    orc = geometric_oracle(phi, psi, *point)
    for key, mine in (("E", inv.E), ("F", inv.F), ("G", inv.G), ("W", inv.W),
                      ("Eh", inv.Ehat), ("Fh", inv.Fhat), ("Gh", inv.Ghat),
                      ("a", inv.a), ("b", inv.b), ("c", inv.c),
                      ("e", inv.e), ("f", inv.f), ("g", inv.g),
                      ("K", inv.K), ("kappa", inv.kappa),
                      ("Delta", inv.Delta)):
        assert mine == pytest.approx(orc[key], rel=1e-6, abs=1e-6), key


def test_oracle_on_random_surfaces():
    rng = np.random.default_rng(33)
    for surface in random_surfaces(seed=12, count=4):
        phi_fn = lambda u, v, s=surface: eval_value(s.phi, u, v)
        psi_fn = lambda u, v, s=surface: eval_value(s.psi, u, v)
        for x, y in random_points(rng, 3, lim=0.7):
            inv = local_invariants(surface, float(x), float(y))
            orc = geometric_oracle(phi_fn, psi_fn, float(x), float(y))
            for key in ("a", "b", "c", "e", "f", "g", "K", "kappa", "Delta"):
                mine = getattr(inv, key if key != "Delta" else "Delta")
                assert mine == pytest.approx(orc[key], rel=2e-5, abs=2e-5), key


def test_delta_resultant_values():
    assert delta_resultant(2, 0, 0, 0, 0, 2) == pytest.approx(-4.0, abs=1e-12)
    assert delta_resultant(2, 0, -2, 0, 2, 0) == pytest.approx(16.0, abs=1e-12)
    assert delta_resultant(0, 0, 0, 0, 0, 0) == 0.0


def test_delta_resultant_matches_expansion_randomly():
    rng = np.random.default_rng(21)
    vals = rng.uniform(-3, 3, size=(200, 6))
    a, b, c, e, f, g = vals.T
    expanded = (a * c - b * b) * (e * g - f * f) \
        - 0.25 * (a * g + c * e - 2 * b * f) ** 2
    det = delta_resultant(a, b, c, e, f, g)
    assert np.allclose(det, expanded, rtol=1e-9, atol=1e-9)


def test_brioschi_flat_plane(surfaces):
    assert brioschi_curvature(surfaces["flat"], 0.2, 0.7) == 0.0


def test_brioschi_matches_k_at_fixture(surfaces):
    kg = brioschi_curvature(surfaces["B"], 0.0, 0.0)
    assert kg == pytest.approx(-8.0, rel=1e-12)


def test_brioschi_classical_graph_case():
    # psi = 0 reduces to a surface in R^3; Brioschi equals the coefficient K
    surface = surface_from_strings("x^2 + y^2", "0")
    inv = local_invariants(surface, 0.3, -0.2)
    kg = brioschi_curvature(surface, 0.3, -0.2)
    assert kg == pytest.approx(inv.K, rel=1e-8)


def test_cross_formula_random_suite():
    rng = np.random.default_rng(2)
    for surface in random_surfaces(seed=91, count=8):
        pts = random_points(rng, 200)
        fl = invariant_grid(surface, pts[:, 0], pts[:, 1], cross_check=False)
        msq = np.asarray(coeff_norm(fl)) ** 2

        def bound(u, v, rel, scale):
            return rel * np.maximum(np.maximum(np.abs(u), np.abs(v)), scale)

        assert np.all(np.abs(fl.K - fl.K_closed)
                      <= bound(fl.K, fl.K_closed, 1e-9, msq))
        assert np.all(np.abs(fl.kappa - fl.kappa_closed)
                      <= bound(fl.kappa, fl.kappa_closed, 1e-9, msq))
        det = delta_resultant(fl.a, fl.b, fl.c, fl.e, fl.f, fl.g)
        assert np.all(np.abs(fl.Delta - det)
                      <= bound(fl.Delta, det, 1e-9, msq * msq))
        gram = fl.Eh * fl.Gh - fl.Fh ** 2
        assert np.all(np.abs(gram - fl.W) <= 1e-10 * np.abs(fl.W))
        kg = brioschi_field(fl.jet_phi, fl.jet_psi)
        assert np.all(np.abs(kg - fl.K) <= bound(kg, fl.K, 1e-8, msq))


def test_killing_sum_at_adapted_points():
    """Where both components have vanishing first order, K is the sum of the
    two Hessian determinants."""
    rng = np.random.default_rng(17)
    for _ in range(10):
        q = rng.uniform(-2, 2, size=8)
        phi = f"{q[0]}*x^2 + {q[1]}*x*y + {q[2]}*y^2 + {q[3]}*x^3"
        psi = f"{q[4]}*x^2 + {q[5]}*x*y + {q[6]}*y^2 + {q[7]}*y^3"
        inv = local_invariants(surface_from_strings(phi, psi), 0.0, 0.0)
        h_phi = 4 * q[0] * q[2] - q[1] ** 2
        h_psi = 4 * q[4] * q[6] - q[5] ** 2
        assert inv.K == pytest.approx(h_phi + h_psi, rel=1e-12, abs=1e-12)


def _rotated(surface, angle):
    c, s = math.cos(angle), math.sin(angle)
    sub = {
        "x": ex.parse_expression(f"{c!r}*x - {s!r}*y"),
        "y": ex.parse_expression(f"{s!r}*x + {c!r}*y"),
    }
    return localgeom.SurfaceSpec(ex.substitute(surface.phi, sub),
                                 ex.substitute(surface.psi, sub),
                                 (-2.0, 2.0, -2.0, 2.0))


def test_parameter_rotation_invariance():
    """Precomposing with a rotation is an ambient isometry: K, kappa, Delta
    and |H| are unchanged at the mapped point."""
    rng = np.random.default_rng(55)
    for surface in random_surfaces(seed=44, count=4, trig=True):
        for _ in range(3):
            angle = float(rng.uniform(0, 2 * math.pi))
            x, y = (float(v) for v in rng.uniform(-0.5, 0.5, 2))
            rot = _rotated(surface, angle)
            c, s = math.cos(angle), math.sin(angle)
            # rotated surface at p corresponds to original at R p
            xo, yo = c * x - s * y, s * x + c * y
            inv0 = local_invariants(surface, xo, yo)
            inv1 = local_invariants(rot, x, y)
            scale = max(inv0.coeff_norm ** 2, 1.0)
            assert abs(inv1.K - inv0.K) <= 1e-9 * max(abs(inv0.K), scale)
            assert abs(inv1.kappa - inv0.kappa) \
                <= 1e-9 * max(abs(inv0.kappa), scale)
            assert abs(inv1.Delta - inv0.Delta) \
                <= 1e-9 * max(abs(inv0.Delta), scale ** 2)
            h0 = float(np.hypot(*inv0.H))
            h1 = float(np.hypot(*inv1.H))
            assert abs(h1 - h0) <= 1e-9 * max(h0, inv0.coeff_norm)


def test_strict_flag_controls_cross_check(surfaces, monkeypatch, caplog):
    monkeypatch.setattr(localgeom, "REL_K", 0.0)
    with pytest.raises(CrossCheckError):
        local_invariants(surfaces["G"], 0.3, 0.2, strict=True)
    with caplog.at_level("WARNING"):
        inv = local_invariants(surfaces["G"], 0.3, 0.2, strict=False)
    assert inv.K is not None
    assert any("cross-check" in rec.message for rec in caplog.records)


def test_invariant_gradients_match_fd(surfaces):
    surface = surfaces["G"]
    g = invariant_gradients(surface, 0.23, -0.11)
    h = 1e-6

    def delta(x, y):
        return local_invariants(surface, x, y).Delta

    def kappa(x, y):
        return local_invariants(surface, x, y).kappa

    fd_d = np.array([
        (delta(0.23 + h, -0.11) - delta(0.23 - h, -0.11)) / (2 * h),
        (delta(0.23, -0.11 + h) - delta(0.23, -0.11 - h)) / (2 * h)])
    fd_k = np.array([
        (kappa(0.23 + h, -0.11) - kappa(0.23 - h, -0.11)) / (2 * h),
        (kappa(0.23, -0.11 + h) - kappa(0.23, -0.11 - h)) / (2 * h)])
    assert g.grad_delta == pytest.approx(fd_d, rel=1e-6, abs=1e-8)
    assert g.grad_kappa == pytest.approx(fd_k, rel=1e-6, abs=1e-8)


def test_domain_validation():
    with pytest.raises(ValueError):
        surface_from_strings("x", "y", (1.0, -1.0, 0.0, 1.0))


def test_grid_matches_pointwise(surfaces):
    surface = surfaces["G"]
    xs = np.array([0.1, -0.4, 0.7])
    ys = np.array([0.2, 0.3, -0.5])
    fl = invariant_grid(surface, xs, ys)
    for k in range(3):
        inv = local_invariants(surface, float(xs[k]), float(ys[k]))
        assert fl.K[k] == pytest.approx(inv.K, rel=1e-14)
        assert fl.Delta[k] == pytest.approx(inv.Delta, rel=1e-14)


def test_invariant_grid_on_axes_matches_meshgrid():
    """Every field of the grid pass, and every jet coefficient, is the same
    under == whether the grid is given as its axes or as full arrays."""
    gx, gy = np.meshgrid(AXIS_XS, AXIS_YS, indexing="ij")
    for surface in grid_corpus():
        axes = invariant_grid(surface, AXIS_XS[:, None], AXIS_YS[None, :])
        full = invariant_grid(surface, gx, gy)
        assert vars(axes).keys() == vars(full).keys()
        for name, value in vars(full).items():
            if name.startswith("jet_"):
                pairs = zip(getattr(axes, name).coeffs(), value.coeffs())
            else:
                pairs = [(getattr(axes, name), value)]
            for u, v in pairs:
                assert u.shape == v.shape == gx.shape, name
                assert np.array_equal(u, v), name
