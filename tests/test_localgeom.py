"""Pointwise invariants: fixtures, redundant-formula agreement, and the
independent Gram-Schmidt/finite-difference oracle."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monge4 import expr as ex
from monge4 import localgeom
from monge4.errors import CrossCheckError, EvaluationError
from monge4.jets import eval_jet
from monge4.localgeom import (K_closed, _raw_derivatives, brioschi_curvature,
                              brioschi_field, coeff_norm, delta_resultant,
                              invariant_grid, kappa_closed, local_invariants,
                              scaled_jets, surface_from_strings)

from conftest import (AXIS_XS, AXIS_YS, fixture_callables, gallery_surfaces,
                      grid_corpus, make_surface, random_points,
                      random_surfaces)
from oracles import (eval_value, frame_oracle, geometric_oracle,
                     sylvester_delta)

EPS = np.finfo(float).eps


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


def _oracle_at(fl, i):
    """:func:`frame_oracle` of the derivatives behind the fields ``fl`` of
    :func:`invariant_grid` at its flat index i."""
    def at(jet):
        return [float(np.broadcast_to(d, np.shape(fl.W))[i])
                for d in jet.coeffs[1:6]]
    return frame_oracle(at(fl.jet_phi), at(fl.jet_psi))


def test_coefficients_match_decimal_oracle_on_corpus():
    """At 25 points each of the random corpus and the gallery, a..g are
    within 4 eps ||M|| and W within 3 eps (relative) of an 800-digit
    evaluation of the textbook formulas from the same float derivatives.
    Those formulas in floats, W = EG - F^2 and quotients of products, put
    g 17 eps ||M|| and W 12 eps off here."""
    rng = np.random.default_rng(1)
    for surface in random_surfaces() + list(gallery_surfaces().values()):
        xmin, xmax, ymin, ymax = surface.domain
        fl = invariant_grid(surface, rng.uniform(xmin, xmax, 25),
                            rng.uniform(ymin, ymax, 25))
        for i in range(25):
            orc = _oracle_at(fl, i)
            norm = math.hypot(*(orc[k] for k in "abcefg"))
            for key in "abcefg":
                assert abs(getattr(fl, key)[i] - orc[key]) <= 4 * EPS * norm, key
            assert abs(fl.W[i] - orc["W"]) <= 3 * EPS * orc["W"]


_STEEP = st.builds(lambda sign, k: sign * 10.0 ** k,
                   st.sampled_from([-1.0, 1.0]), st.floats(0.0, 70.0))
_TERMS = ("x", "y", "x^2", "x*y", "y^2")


@given(st.lists(_STEEP, min_size=4, max_size=4),
       st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_steep_planes_match_decimal_oracle(grad, quad, x, y):
    """A plane with gradients from 1 to 1e70 plus a quadratic: either
    local_invariants raises CrossCheckError (mostly the Gram check, whose
    own Eh Gh - Fh^2 cancels), or it agrees with :func:`frame_oracle`.

    The bounds carry kT = sqrt(EG/W) and kN = sqrt(Eh Gh/W), 1/sin of the
    angles between T1 and T2 and between N1 and N2: F/E and Fh/Eh are
    rounded once, and an ill-conditioned frame magnifies that (gradients
    1, 1, 100, 100 and psi = 100 (x + y) + xy + y^2 at the origin put g
    72 eps ||M|| off, with kT = 71), as J = px qy - py qx magnifies its
    rounding in W by up to kT.  K, kappa and Delta are compared only where
    their exact value is a normal float (at |grad| = 1e67, K = 1e-402 is
    0.0), and 2^-1060 absorbs the rounding of coefficients that underflow.
    """
    phi = " + ".join(f"({c!r})*{t}" for c, t in zip(grad[:2] + quad[:3], _TERMS))
    psi = " + ".join(f"({c!r})*{t}" for c, t in zip(grad[2:] + quad[3:], _TERMS))
    try:
        inv = local_invariants(surface_from_strings(phi, psi), x, y)
    except CrossCheckError:
        return
    orc = frame_oracle(inv.jet_phi.coeffs[1:6], inv.jet_psi.coeffs[1:6])
    norm = math.hypot(*(orc[k] for k in "abcefg"))
    k_t = math.sqrt(inv.E * inv.G / inv.W)
    k_tn = k_t * math.sqrt(inv.Ehat * inv.Ghat / inv.W)
    for key in "abcefg":
        assert abs(getattr(inv, key) - orc[key]) \
            <= 8 * EPS * norm * k_tn + 2.0 ** -1060, key
    assert abs(inv.W - orc["W"]) <= 4 * EPS * orc["W"] * k_t
    for key, power in (("K", 2), ("kappa", 2), ("Delta", 4)):
        if abs(orc[key]) >= np.finfo(float).tiny:
            assert abs(getattr(inv, key) - orc[key]) \
                <= 16 * EPS * norm ** power * k_tn + 2.0 ** -1060, key


def test_route_overflow_is_an_evaluation_error():
    """Where W and the coefficients are finite but Eh * Gh, the Gram
    check's route, overflows (1/x^4 * 1e304), check_invariants raises
    EvaluationError at the first such point instead of comparing inf."""
    surface = surface_from_strings("(x)^-1", "x*(1e76)^2")
    xs = np.linspace(-1.0, 1.0, 16)
    fl = invariant_grid(surface, xs[:, None], xs[None, :])
    with pytest.raises(EvaluationError) as err:
        localgeom.check_invariants(fl, (xs[:, None], xs[None, :]))
    assert str(err.value) == ("non-finite invariants (overflow) at point "
                              f"({float(xs[7])!r}, -1.0)")


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


def test_delta_resultant_matches_sylvester_determinant():
    """The Bezout form agrees with the 4x4 Sylvester determinant it replaced
    on M over 40 decades, to within the LU route's own rounding, which
    reaches about 4.4e-15 ||M||^4 here (against exact rational arithmetic,
    the Bezout form is off by 4.9e-19 ||M||^4 at that M)."""
    rng = np.random.default_rng(7)
    m = rng.uniform(-1, 1, size=(20000, 6)) \
        * 10.0 ** rng.uniform(-20, 20, size=(20000, 1))
    norm4 = np.sum(m * m, axis=1) ** 2
    diff = np.abs(delta_resultant(*m.T) - sylvester_delta(*m.T))
    assert np.all(diff <= 1e-14 * norm4)


def test_delta_check_catches_a_sign_error():
    """A Delta whose squared term has the wrong sign fails the registry's
    Delta check wherever that term is above the band, and check_invariants
    raises on it with the first such point."""
    surface = surface_from_strings(
        "sin(x)*cos(y) + 0.3*x^2", "0.5*sin(x*y) + 0.2*y^2")
    xs = np.linspace(-1.0, 1.0, 64)
    fl = invariant_grid(surface, xs[:, None], xs[None, :])
    square = 0.25 * (fl.a * fl.g + fl.c * fl.e - 2.0 * fl.b * fl.f) ** 2
    fl.Delta = (fl.a * fl.c - fl.b ** 2) * (fl.e * fl.g - fl.f ** 2) + square
    msq = coeff_norm(fl) ** 2
    check = next(c for c in localgeom.CROSS_CHECKS if c.tag == "Delta")
    caught = check.margin(fl, msq)[0] > 0
    assert np.all(caught[square > 1e-8 * msq * msq])
    assert caught.mean() > 0.99
    with pytest.raises(CrossCheckError, match="^Delta cross-check failed"):
        localgeom.check_invariants(fl, (xs[:, None], xs[None, :]))


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
        fl = invariant_grid(surface, pts[:, 0], pts[:, 1], order=3)
        msq = np.asarray(coeff_norm(fl)) ** 2

        def bound(u, v, rel, scale):
            return rel * np.maximum(np.maximum(np.abs(u), np.abs(v)), scale)

        k_closed = K_closed(fl, *_raw_derivatives(fl))
        kappa_c = kappa_closed(fl, *_raw_derivatives(fl))
        assert np.all(np.abs(fl.K - k_closed)
                      <= bound(fl.K, k_closed, 1e-9, msq))
        assert np.all(np.abs(fl.kappa - kappa_c)
                      <= bound(fl.kappa, kappa_c, 1e-9, msq))
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


def test_failed_cross_check_raises(surfaces, monkeypatch):
    """With the K check's bound at 0, local_invariants raises; invariant_grid
    only evaluates, and check_invariants on its fields names the first
    failing point, x outer and y inner."""
    k_check, *others = localgeom.CROSS_CHECKS
    monkeypatch.setattr(localgeom, "CROSS_CHECKS",
                        (k_check._replace(rel=0.0), *others))
    with pytest.raises(CrossCheckError):
        local_invariants(surfaces["G"], 0.3, 0.2)
    xs = np.array([0.0, 0.3])
    ys = np.array([0.0, 0.2])
    fl = invariant_grid(surfaces["G"], xs[:, None], ys[None, :])
    k_closed = K_closed(fl, *_raw_derivatives(fl))
    bad = fl.K != k_closed
    assert bad.any()
    i, j = np.argwhere(bad)[0]
    with pytest.raises(CrossCheckError) as err:
        localgeom.check_invariants(fl, (xs[:, None], ys[None, :]))
    assert str(err.value) == (f"K cross-check failed: {float(fl.K[i, j])!r} vs "
                              f"{float(k_closed[i, j])!r} at point "
                              f"({float(xs[i])!r}, {float(ys[j])!r})")


def _k_fields(K, pxx):
    """Fields of M = [[1, 0, 0], [0, 0, 0]] and the unit metric whose K is
    ``K`` and whose closed form of K is ``pxx`` (phi_yy = 1, and the other
    derivatives of phi and psi 0), all of the type of ``K``."""
    zero = 0.0 * K
    one = zero + 1.0
    jet_phi = SimpleNamespace(coeffs=(zero, zero, zero, pxx, zero, one))
    jet_psi = SimpleNamespace(coeffs=(zero,) * 6)
    return SimpleNamespace(a=one, b=zero, c=zero, e=zero, f=zero, g=zero,
                           E=one, F=zero, G=one, W=one, Eh=one, Fh=zero,
                           Gh=one, K=K, kappa=zero, Delta=zero,
                           jet_phi=jet_phi, jet_psi=jet_psi)


def test_cross_check_message_prints_plain_floats(monkeypatch):
    """The values and the point of a failed check print as Python floats,
    not as numpy scalars, from 2-D array fields and at a point: the K
    check, with its bound at 0, fails wherever its routes differ."""
    k_check, *others = localgeom.CROSS_CHECKS
    monkeypatch.setattr(localgeom, "CROSS_CHECKS",
                        (k_check._replace(rel=0.0), *others))
    u = np.array([[1.0, 2.0], [3.0, 5091454.0664]])
    v = np.array([[1.0, 2.0], [3.0, 5091454.067871094]])
    where = (np.array([[0.0, 0.0], [0.3, 0.3]]), np.array([[0.0, 0.2], [0.0, 0.2]]))
    with pytest.raises(CrossCheckError) as err:
        localgeom.check_invariants(_k_fields(u, v), where)
    assert str(err.value) == ("K cross-check failed: 5091454.0664 vs "
                              "5091454.067871094 at point (0.3, 0.2)")
    with pytest.raises(CrossCheckError) as err:
        localgeom.check_invariants(_k_fields(1.0, 2.0))
    assert str(err.value) == "K cross-check failed: 1.0 vs 2.0"


@settings(max_examples=2000, deadline=None)
@given(u=st.floats(allow_nan=False, allow_infinity=False),
       v=st.floats(allow_nan=False, allow_infinity=False),
       scale=st.floats(min_value=0.0, allow_infinity=False),
       rel=st.sampled_from([0.0, 1e-10, 1e-9, 1e-8]),
       one_sided=st.booleans())
def test_margin_sign_is_the_comparison(u, v, scale, rel, one_sided):
    """For finite doubles, subnormals included, a margin above 0 is the
    deviation above the bound: gradual underflow keeps the difference of
    two distinct doubles nonzero.  Where u - v overflows, margin raises."""
    check = localgeom.CrossCheck("t", "t", rel, True,
                                 lambda fl, msq: (u, v, scale), one_sided)
    deviation = u - v if one_sided else abs(u - v)
    if not math.isfinite(u - v):
        with pytest.raises(EvaluationError):
            check.margin(None, 1.0)
        return
    assert (deviation - rel * scale > 0) == (deviation > rel * scale)
    assert (check.margin(None, 1.0)[0] > 0) == (deviation > rel * scale)
    on_arrays = check._replace(routes=lambda fl, msq: (
        np.array([u]), np.array([v]), np.array([scale])))
    assert (on_arrays.margin(None, np.ones(1))[0] > 0).tolist() == \
        [deviation > rel * scale]


def test_scaled_jet_gradients_match_fd(surfaces):
    """The order-1 jets of scaled_jets, scaled back by 2^-4k and 2^-2k,
    are the gradients of Delta and kappa."""
    surface = surfaces["G"]
    fl, m = scaled_jets(eval_jet(surface.phi, 0.23, -0.11, 3),
                        eval_jet(surface.psi, 0.23, -0.11, 3), 1)
    grad_delta = np.ldexp([fl.Delta.fx, fl.Delta.fy], -4 * m.k)
    grad_kappa = np.ldexp([fl.kappa.fx, fl.kappa.fy], -2 * m.k)
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
    assert grad_delta == pytest.approx(fd_d, rel=1e-6, abs=1e-8)
    assert grad_kappa == pytest.approx(fd_k, rel=1e-6, abs=1e-8)


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
    """Every field of the grid pass, every jet coefficient, both closed
    forms and the minors are the same under == whether the grid is given
    as its axes or as full arrays."""
    gx, gy = np.meshgrid(AXIS_XS, AXIS_YS, indexing="ij")

    def routes(fl):
        coeffs = fl.a, fl.b, fl.c, fl.e, fl.f, fl.g
        return {"K_closed": K_closed(fl, *_raw_derivatives(fl)),
                "kappa_closed": kappa_closed(fl, *_raw_derivatives(fl)),
                **dict(zip(("nq0", "nq1", "nq2"), localgeom.minors(*coeffs)))}

    for surface in grid_corpus():
        axes = invariant_grid(surface, AXIS_XS[:, None], AXIS_YS[None, :],
                              order=3)
        full = invariant_grid(surface, gx, gy, order=3)
        assert vars(axes).keys() == vars(full).keys()
        axes_routes = routes(axes)
        for name, value in [*vars(full).items(), *routes(full).items()]:
            if name.startswith("jet_"):
                pairs = zip(getattr(axes, name).coeffs, value.coeffs)
            elif name in axes_routes:
                pairs = [(axes_routes[name], value)]
            else:
                pairs = [(getattr(axes, name), value)]
            for u, v in pairs:
                assert u.shape == v.shape == gx.shape, name
                assert np.array_equal(u, v), name
