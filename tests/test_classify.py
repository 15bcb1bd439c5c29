"""Point taxonomy, asymptotic directions, binormals and the Delta Hessian."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monge4 import classify, conics
from monge4.classify import (asymptotic_directions, binormals,
                             canonical_direction, class_labels_grid,
                             classify_point, hessian_of_delta)
from monge4.errors import EvaluationError, InflectionPointError
from monge4.heightfn import degenerate_normals
from monge4.jets import eval_jet
from monge4.localgeom import (invariant_grid, local_invariants, scaled_jets,
                              surface_from_strings)

from conftest import make_surface, random_points, random_surfaces
from oracles import hessian_of_delta_fd, rank_m, winding_number


@pytest.fixture(scope="module")
def invs(surfaces):
    return {k: local_invariants(s, 0.0, 0.0) for k, s in surfaces.items()}


def test_fixture_classes(invs):
    b = classify_point(invs["B"])
    assert b.label.kind == "elliptic" and b.is_umbilic and b.is_circle \
        and b.is_minimal
    assert b.label.rank == 2

    c = classify_point(invs["C"])
    assert c.label.kind == "inflection" and c.label.k_type == "imaginary"
    assert c.label.rank == 1 and invs["C"].K == pytest.approx(12.0)

    g = classify_point(invs["G"])
    assert g.label.kind == "hyperbolic" \
        and invs["G"].Delta == pytest.approx(-12.0)

    d = classify_point(invs["D"])
    assert d.label.kind == "parabolic" and not d.is_umbilic

    a = classify_point(invs["A"])
    assert a.label.kind == "hyperbolic" and not a.is_circle

    h = classify_point(invs["H"])
    assert h.label.kind == "inflection" and h.label.k_type == "real"

    flat = classify_point(invs["flat"])
    assert flat.label.kind == "inflection" and flat.label.k_type == "flat"
    assert flat.label.rank == 0


def test_circle_point_flags_without_umbilic():
    from monge4.localgeom import surface_from_strings
    inv = local_invariants(
        surface_from_strings("1.5*x^2 - 0.5*y^2", "2*x*y"), 0.0, 0.0)
    c = classify_point(inv)
    assert c.is_circle and not c.is_minimal and not c.is_umbilic


def test_class_labels(invs):
    assert classify_point(invs["B"]).label == "elliptic"
    assert classify_point(invs["C"]).label == "inflection_imaginary"
    assert classify_point(invs["flat"]).label == "inflection_flat"


def test_classification_scale_invariant():
    """Rescaling the normal components leaves the taxonomy unchanged."""
    from monge4.localgeom import surface_from_strings
    for lam in (1e-4, 1e4):
        scaled = surface_from_strings(
            f"{lam}*(1.5*x^2 + 0.5*y^2)", f"{lam}*(2*x*y)")
        inv = local_invariants(scaled, 0.0, 0.0)
        assert classify_point(inv).label.kind == "hyperbolic"
        inflected = surface_from_strings(
            f"{lam}*(x^2 + 3*y^2)", f"{lam}*(x^3/3 + x*y^2)")
        inv = local_invariants(inflected, 0.0, 0.0)
        assert classify_point(inv).label == "inflection_imaginary"


def test_asymptotic_directions_fixtures(invs):
    dirs = asymptotic_directions(invs["A"])
    assert len(dirs) == 2
    assert dirs[0] == pytest.approx([1.0, 0.0])
    assert dirs[1] == pytest.approx([0.0, 1.0])

    dirs = asymptotic_directions(invs["D"])
    assert len(dirs) == 1
    assert dirs[0] == pytest.approx([0.0, 1.0], abs=1e-15)

    assert asymptotic_directions(invs["B"]) == []
    # the directional quadratic of B is 4x^2 + 4y^2
    assert (invs["B"].nq0, invs["B"].nq1, invs["B"].nq2) == (4.0, 0.0, 4.0)


def test_asymptotic_directions_inflection_error(invs):
    with pytest.raises(InflectionPointError):
        asymptotic_directions(invs["C"])
    with pytest.raises(InflectionPointError):
        asymptotic_directions(invs["flat"])


def test_asymptotic_count_law():
    rng = np.random.default_rng(83)
    for surface in random_surfaces(seed=97, count=8):
        for x, y in random_points(rng, 10):
            inv = local_invariants(surface, float(x), float(y))
            msq = inv.coeff_norm ** 2
            tau = classify.REL * msq * msq
            try:
                dirs = asymptotic_directions(inv)
            except InflectionPointError:
                continue
            if inv.Delta > tau:
                assert len(dirs) == 0
            elif inv.Delta < -tau:
                assert len(dirs) == 2
            else:
                assert len(dirs) == 1


def test_binormals_fixtures(invs):
    bins = binormals(invs["A"])
    asym = asymptotic_directions(invs["A"])
    # e1 pairs with e4, e2 pairs with e3
    assert asym[0] == pytest.approx([1.0, 0.0])
    assert bins[0] == pytest.approx([0.0, 1.0])
    assert asym[1] == pytest.approx([0.0, 1.0])
    assert bins[1] == pytest.approx([1.0, 0.0])

    bins = binormals(invs["D"])
    assert len(bins) == 1
    assert bins[0] == pytest.approx([1.0, 0.0])

    assert binormals(invs["B"]) == []


def test_binormal_orthogonal_to_ellipse_tangent():
    rng = np.random.default_rng(89)
    checked = 0
    for surface in random_surfaces(seed=101, count=8):
        for x, y in random_points(rng, 8):
            inv = local_invariants(surface, float(x), float(y))
            try:
                asym = asymptotic_directions(inv)
                bins = binormals(inv)
            except InflectionPointError:
                continue
            for u, b in zip(asym, bins):
                eta_u = conics.second_form_image(inv, u)
                scale = max(inv.coeff_norm, 1e-12)
                if float(np.hypot(*eta_u)) > 1e-8 * scale:
                    assert abs(eta_u @ b) <= 1e-9 * scale
                else:
                    theta = math.atan2(u[1], u[0])
                    _, zeta = conics.conjugate_radii(inv, theta)
                    assert abs(zeta @ b) <= 1e-9 * scale
                checked += 1
    assert checked > 40


def test_winding_consistency():
    """Origin inside/outside the polygonised indicatrix matches the
    elliptic/hyperbolic taxonomy away from the parabolic band."""
    rng = np.random.default_rng(91)
    checked = 0
    for surface in random_surfaces(seed=103, count=8):
        for x, y in random_points(rng, 8):
            inv = local_invariants(surface, float(x), float(y))
            msq = inv.coeff_norm ** 2
            if abs(inv.Delta) <= 1e-4 * msq * msq or abs(inv.kappa) <= 1e-4 * msq:
                continue
            pts = conics.sample_indicatrix(inv, 512)
            wind = abs(winding_number(pts))
            cls = classify_point(inv)
            if cls.label.kind == "elliptic":
                assert wind == 1
            elif cls.label.kind == "hyperbolic":
                assert wind == 0
            checked += 1
    assert checked > 40


def test_hessian_of_delta_fixture_c():
    surface = make_surface("C")
    hd = hessian_of_delta(surface, 0.0, 0.0)
    assert hd == pytest.approx(np.diag([-32.0, -96.0]), rel=1e-12, abs=1e-12)
    det = float(np.linalg.det(hd))
    assert det == pytest.approx(3072.0, rel=1e-12)
    assert det > 0  # isolated point, same sign as K = 12


def test_hessian_of_delta_fixture_h():
    surface = make_surface("H")
    hd = hessian_of_delta(surface, 0.0, 0.0)
    assert hd == pytest.approx(np.diag([-32.0, 32.0]), rel=1e-12, abs=1e-12)
    det = float(np.linalg.det(hd))
    assert det == pytest.approx(-1024.0, rel=1e-12)
    assert det < 0  # self-intersection, same sign as K = -4


def test_hessian_of_delta_flat():
    surface = make_surface("flat")
    assert np.array_equal(hessian_of_delta(surface, 0.1, 0.2), np.zeros((2, 2)))


def test_hessian_of_delta_matches_finite_differences():
    """On the random corpus the exact Hessian agrees with the Richardson
    difference of the exact gradient to 1e-6 of its largest entry."""
    rng = np.random.default_rng(17)
    for surface in random_surfaces():
        for x, y in random_points(rng, 3, lim=0.8):
            hd = hessian_of_delta(surface, x, y)
            ref = hessian_of_delta_fd(surface, x, y)
            assert np.all(np.abs(hd - ref) <= 1e-6 * np.max(np.abs(hd)))


def test_inflection_equivalent_conditions():
    """At the constructed inflections: Delta and kappa vanish, the
    coefficient matrix drops rank, and the gradient of Delta vanishes."""
    for name in ("C", "H"):
        surface = make_surface(name)
        inv = local_invariants(surface, 0.0, 0.0)
        msq = inv.coeff_norm ** 2
        assert abs(inv.Delta) <= 1e-12 * msq * msq
        assert abs(inv.kappa) <= 1e-12 * msq
        sv = np.linalg.svd(inv.coeff_matrix, compute_uv=False)
        assert sv[1] <= 1e-12 * sv[0]
        fl, m = scaled_jets(eval_jet(surface.phi, 0.0, 0.0, 3),
                            eval_jet(surface.psi, 0.0, 0.0, 3), 1)
        grad = np.ldexp(np.hypot(fl.Delta.fx, fl.Delta.fy), -4 * m.k)
        assert float(grad) <= 1e-6


def test_sign_law_at_inflections():
    for name, k_sign in (("C", 1.0), ("H", -1.0)):
        surface = make_surface(name)
        inv = local_invariants(surface, 0.0, 0.0)
        det = float(np.linalg.det(hessian_of_delta(surface, 0.0, 0.0)))
        assert math.copysign(1.0, det) == math.copysign(1.0, inv.K) == k_sign


def test_canonical_direction():
    assert canonical_direction([-2.0, 0.0]) == pytest.approx([1.0, 0.0])
    assert canonical_direction([0.0, -3.0]) == pytest.approx([0.0, 1.0])
    v = canonical_direction([1.0, 1.0])
    assert v == pytest.approx([math.sqrt(0.5)] * 2)
    with pytest.raises(ValueError):
        canonical_direction([0.0, 0.0])


def test_grid_labels_match_pointwise(surfaces):
    surface = surfaces["G"]
    xs = np.linspace(-0.8, 0.8, 5)
    ys = np.linspace(-0.8, 0.8, 5)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    fields = invariant_grid(surface, gx, gy)
    labels = class_labels_grid(fields)
    for i in range(5):
        for j in range(5):
            inv = local_invariants(surface, float(xs[i]), float(ys[j]))
            assert labels[i, j] == classify_point(inv).label


def test_classifier_same_on_floats_0d_and_arrays(invs):
    """One point's coefficients as Python floats, as 0-d arrays and as one
    entry of an array get the same label, kind, K band and rank, on the
    fixture points and on the random corpus; classify_point reports the same
    interned label."""
    rng = np.random.default_rng(17)
    points = list(invs.values()) + [
        local_invariants(surface, float(x), float(y))
        for surface in random_surfaces(seed=41, count=6)
        for x, y in random_points(rng, 6)]
    names = ("a", "b", "c", "e", "f", "g")
    batch = class_labels_grid(SimpleNamespace(
        **{k: np.array([getattr(inv, k) for inv in points]) for k in names}))
    assert {label.kind for label in batch} >= {"elliptic", "hyperbolic",
                                               "inflection"}
    for inv, want in zip(points, batch):
        for form in (float, np.asarray):
            got = class_labels_grid(SimpleNamespace(
                **{k: form(getattr(inv, k)) for k in names}))
            assert (got, got.kind, got.k_type, got.rank) \
                == (want, want.kind, want.k_type, want.rank)
        label = classify_point(inv).label
        assert label is class_labels_grid(inv)
        assert (label, label.kind, label.rank) == (want, want.kind, want.rank)


def test_grid_labels_flat(surfaces):
    gx, gy = np.meshgrid(np.linspace(-1, 1, 4), np.linspace(-1, 1, 4),
                         indexing="ij")
    fields = invariant_grid(surfaces["flat"], gx, gy)
    labels = class_labels_grid(fields)
    assert np.all(labels == "inflection_flat")


# -- closed-form rank of the coefficient matrix --------------------------------

RATIO = 1e-8


def _svd_rank(m):
    """Rank of M by LAPACK singular values: 0 for M = 0; None inside the
    rounding band of the rank-1 threshold, where two correct methods may
    disagree."""
    if not np.any(m):
        return 0
    sv = np.linalg.svd(m, compute_uv=False)
    if abs(sv[1] - RATIO * sv[0]) <= 1e-6 * RATIO * sv[0]:
        return None
    return 1 if sv[1] <= RATIO * sv[0] else 2


def _grid_labels(*entries):
    """class_labels_grid on the entries a, b, c, e, f, g of M."""
    return class_labels_grid(SimpleNamespace(**dict(zip("abcefg", entries))))


def _closed_rank(m):
    return _grid_labels(*m[0], *m[1]).rank


_exponents = st.integers(-150, 150)
_seeds = st.integers(0, 2 ** 32 - 1)


@given(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6), _exponents)
@settings(max_examples=300)
def test_rank_m_matches_svd_random(entries, exponent):
    m = np.array(entries).reshape(2, 3) * 10.0 ** exponent
    expected = _svd_rank(m)
    assume(expected is not None)
    assert _closed_rank(m) == expected


@given(_seeds, _exponents)
@settings(max_examples=200)
def test_rank_m_outer_products(seed, exponent):
    rng = np.random.default_rng(seed)
    m = np.outer(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 3)) * 10.0 ** exponent
    expected = _svd_rank(m)
    assume(expected is not None)
    assert expected <= 1
    assert _closed_rank(m) == expected


@given(_seeds, _exponents, st.sampled_from([0.1, 0.5, 0.9, 1.1, 2.0, 10.0]))
@settings(max_examples=200)
def test_rank_m_perturbed_rank_one(seed, exponent, factor):
    """s2 / s1 = factor * 1e-8, on either side of the rank-1 threshold."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    s1 = 10.0 ** exponent
    m = s1 * (np.outer(u[:, 0], v[:, 0])
              + factor * RATIO * np.outer(u[:, 1], v[:, 1]))
    expected = _svd_rank(m)
    assume(expected is not None)
    assert expected == (1 if factor < 1.0 else 2)
    assert _closed_rank(m) == expected


def test_rank_m_zero_and_arrays():
    assert _closed_rank(np.zeros((2, 3))) == 0
    # rank 0 is M = 0 exactly, not a small M
    assert _closed_rank(np.array([[1e-320, 0, 0], [0, 0, 0]])) == 1
    assert _closed_rank(np.array([[1e-320, 0, 0], [0, 1e-320, 0]])) == 2
    # s1 = 2.1e308 overflows unscaled
    assert _closed_rank(np.array([[1.5e308, 1.5e308, 0], [0, 0, 0]])) == 1
    rng = np.random.default_rng(5)
    ms = rng.uniform(-1, 1, (50, 2, 3))
    ms[::3, 1] = 2.0 * ms[::3, 0]
    ranks = [label.rank for label in _grid_labels(
        *(ms[:, r, k] for r in range(2) for k in range(3)))]
    assert ranks == [_closed_rank(m) for m in ms]
    assert ranks == [_svd_rank(m) for m in ms]


@given(_seeds, _exponents,
       st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0]))
@settings(max_examples=300)
def test_rank_on_scaled_m_matches_rank_on_divided_m(seed, exponent, factor):
    """The rank of class_labels_grid, on M times a power of two, is the one of M
    divided by its largest entry (the replaced rank_m), at s2 / s1 =
    factor * RANK_RATIO, on either side of the threshold, over 300
    decades."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    s1 = 10.0 ** exponent
    m = s1 * (np.outer(u[:, 0], v[:, 0])
              + factor * RATIO * np.outer(u[:, 1], v[:, 1]))
    entries = m.ravel().tolist()
    want = int(rank_m(*entries, RATIO))
    assert _grid_labels(*entries).rank == want
    assert [label.rank for label in _grid_labels(
        *(np.array([x]) for x in entries))] == [want]


# -- classification independent of scale ------------------------------------------


def _scaled_surface(exponent):
    s = repr(10.0 ** exponent)
    return surface_from_strings(f"{s}*x^2", f"{s}*y^2")


@given(_exponents)
@settings(max_examples=150, deadline=None)
def test_classification_scale_free_on_surface(exponent):
    """phi = s x^2, psi = s y^2 at (0.5, 0.1) is hyperbolic, with two
    asymptotic directions and two degenerate height normals, for every
    s = 10^k; where an invariant overflows (large s) the evaluation fails
    instead of returning a wrong class."""
    surface = _scaled_surface(exponent)
    try:
        inv = local_invariants(surface, 0.5, 0.1)
    except EvaluationError:
        assert exponent > 0
        with pytest.raises(EvaluationError):
            invariant_grid(surface, np.array([0.5]), np.array([0.1]))
        return
    assert classify_point(inv).label == "hyperbolic"
    assert len(asymptotic_directions(inv)) == 2
    assert len(degenerate_normals(inv)) == 2
    fields = invariant_grid(surface, np.array([0.5]), np.array([0.1]))
    assert class_labels_grid(fields).tolist() == ["hyperbolic"]


@given(_exponents)
@settings(max_examples=150)
def test_classification_scale_free_coefficients(exponent):
    """M of the s = 1 surface times 10^k keeps its class for k in
    [-150, 150], although Delta (degree 4) under- or overflows."""
    inv = local_invariants(_scaled_surface(0), 0.5, 0.1)
    s = 10.0 ** exponent
    scaled = dataclasses.replace(
        inv, a=s * inv.a, b=s * inv.b, c=s * inv.c,
        e=s * inv.e, f=s * inv.f, g=s * inv.g,
        K=s * s * inv.K, kappa=s * s * inv.kappa,
        Delta=s * s * s * s * inv.Delta, H=s * inv.H)
    assert classify_point(scaled).label == "hyperbolic"
    fields = SimpleNamespace(**{k: np.array([getattr(scaled, k)])
                                for k in ("a", "b", "c", "e", "f", "g",
                                          "K", "kappa", "Delta")})
    assert class_labels_grid(fields).tolist() == ["hyperbolic"]
