"""Height-function Hessians, degenerate normals and singularity types."""

import math

import numpy as np
import pytest

from monge4 import classify
from monge4.errors import InflectionPointError
from monge4.heightfn import (CUSP_OR_HIGHER, FOLD, NONDEGENERATE,
                             UMBILIC_OR_HIGHER, classify_height,
                             degenerate_normals, height_hessian)
from monge4.localgeom import local_invariants
from monge4.locus import trace_parabolic

from conftest import make_surface, random_points, random_surfaces


@pytest.fixture(scope="module")
def invs(surfaces):
    return {k: local_invariants(s, 0.0, 0.0) for k, s in surfaces.items()}


def test_height_hessian_fixture_a(invs):
    hess, det = height_hessian(invs["A"], (1.0, 0.0))
    assert hess == pytest.approx(np.diag([2.0, 0.0]))
    assert det == 0.0


def test_height_hessian_fixture_b_never_degenerate(invs):
    for theta in np.linspace(0.0, math.pi, 7):
        n = (math.cos(theta), math.sin(theta))
        _, det = height_hessian(invs["B"], n)
        assert det == pytest.approx(-4.0, rel=1e-12)


def test_height_hessian_fixture_d(invs):
    hess, det = height_hessian(invs["D"], (0.0, 1.0))
    assert hess == pytest.approx(np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert det == pytest.approx(-4.0)


def test_height_hessian_frame_factor_off_origin():
    """det Hess equals W times the normal-coordinate quadratic at a general
    point (the comparison happens inside height_hessian; also check here)."""
    rng = np.random.default_rng(111)
    for surface in random_surfaces(seed=107, count=5):
        for x, y in random_points(rng, 4):
            inv = local_invariants(surface, float(x), float(y))
            for theta in (0.0, 0.7, 2.1):
                n = (math.cos(theta), math.sin(theta))
                _, det = height_hessian(inv, n)
                quad = ((inv.a * inv.c - inv.b ** 2) * n[0] ** 2
                        + (inv.a * inv.g + inv.c * inv.e
                           - 2 * inv.b * inv.f) * n[0] * n[1]
                        + (inv.e * inv.g - inv.f ** 2) * n[1] ** 2)
                assert det == pytest.approx(inv.W * quad, rel=1e-9,
                                            abs=1e-9 * inv.coeff_norm ** 2)


def test_degenerate_normals_fixtures(invs):
    dirs = degenerate_normals(invs["A"])
    assert len(dirs) == 2
    assert dirs[0] == pytest.approx([1.0, 0.0])
    assert dirs[1] == pytest.approx([0.0, 1.0])

    dirs = degenerate_normals(invs["D"])
    assert len(dirs) == 1
    assert dirs[0] == pytest.approx([1.0, 0.0])

    assert degenerate_normals(invs["B"]) == []

    # at this inflection the quadratic is 12 n1^2: the single degenerate
    # normal is the direction whose height function is umbilic-or-higher
    dirs = degenerate_normals(invs["C"])
    assert len(dirs) == 1
    assert dirs[0] == pytest.approx([0.0, 1.0], abs=1e-15)


def test_degenerate_normals_identically_zero():
    """Both coefficient quadratics proportional: every normal degenerate."""
    from monge4.localgeom import surface_from_strings
    surface = surface_from_strings("x^2", "3*x^2")
    inv = local_invariants(surface, 0.0, 0.0)
    with pytest.raises(InflectionPointError):
        degenerate_normals(inv)


def test_degenerate_normal_count_matches_delta_sign():
    rng = np.random.default_rng(113)
    tol = classify.REL
    checked = 0
    for surface in random_surfaces(seed=109, count=8):
        for x, y in random_points(rng, 8):
            inv = local_invariants(surface, float(x), float(y))
            msq = inv.coeff_norm ** 2
            if abs(inv.Delta) <= 1e-5 * msq * msq:
                continue
            dirs = degenerate_normals(inv, tol)
            assert len(dirs) == (2 if inv.Delta < 0 else 0)
            checked += 1
    assert checked > 40


def test_classify_height_fold(invs):
    sing = classify_height(make_surface("E"), 0.0, 0.0, (1.0, 0.0))
    assert sing.kind == FOLD
    assert sing.kernel_direction == pytest.approx([0.0, 1.0])
    assert sing.third_order_coefficient == pytest.approx(1.0)


def test_classify_height_cusp(invs):
    sing = classify_height(make_surface("D"), 0.0, 0.0, (1.0, 0.0))
    assert sing.kind == CUSP_OR_HIGHER
    assert sing.kernel_direction == pytest.approx([0.0, 1.0])
    assert sing.third_order_coefficient == pytest.approx(0.0, abs=1e-14)


def test_classify_height_umbilic(invs):
    sing = classify_height(make_surface("C"), 0.0, 0.0, (0.0, 1.0))
    assert sing.kind == UMBILIC_OR_HIGHER
    assert sing.kernel_direction is None


def test_classify_height_nondegenerate(invs):
    sing = classify_height(make_surface("B"), 0.0, 0.0, (0.6, 0.8))
    assert sing.kind == NONDEGENERATE


def test_kernel_is_asymptotic_and_normal_is_binormal():
    """For every degenerate normal with a rank-1 Hessian the kernel is an
    asymptotic direction and the normal is the paired binormal."""
    rng = np.random.default_rng(127)
    checked = 0
    for surface in random_surfaces(seed=131, count=8):
        for x, y in random_points(rng, 8):
            inv = local_invariants(surface, float(x), float(y))
            msq = inv.coeff_norm ** 2
            if abs(inv.Delta) <= 1e-5 * msq * msq or inv.Delta > 0:
                continue
            try:
                normals = degenerate_normals(inv)
                asym = classify.asymptotic_directions(inv)
                bins = classify.binormals(inv)
            except InflectionPointError:
                continue
            for n in normals:
                sing = classify_height(surface, float(x), float(y), n)
                if sing.kind == NONDEGENERATE:
                    continue
                assert sing.kernel_direction is not None
                # kernel matches one asymptotic direction; n the paired binormal
                angles = [abs(sing.kernel_direction[0] * u[1]
                              - sing.kernel_direction[1] * u[0])
                          for u in asym]
                idx = int(np.argmin(angles))
                assert angles[idx] <= 1e-8
                assert abs(n[0] * bins[idx][1] - n[1] * bins[idx][0]) <= 1e-8
                checked += 1
    assert checked > 30


def test_umbilic_or_higher_exactly_at_inflections():
    for name in ("C", "H"):
        surface = make_surface(name)
        inv = local_invariants(surface, 0.0, 0.0)
        # the coefficient matrix has rank 1: its kernel-side normal direction
        mat = inv.coeff_matrix
        u, s, vt = np.linalg.svd(mat)
        n = classify.canonical_direction(u[:, 1])
        sing = classify_height(surface, 0.0, 0.0, n)
        assert sing.kind == UMBILIC_OR_HIGHER
    # no random non-inflection sample is umbilic-or-higher
    rng = np.random.default_rng(137)
    for surface in random_surfaces(seed=139, count=4):
        for x, y in random_points(rng, 5):
            inv = local_invariants(surface, float(x), float(y))
            msq = inv.coeff_norm ** 2
            if abs(inv.Delta) <= 1e-5 * msq * msq:
                continue
            for theta in (0.0, 1.0, 2.0):
                sing = classify_height(surface, float(x), float(y),
                                       (math.cos(theta), math.sin(theta)))
                assert sing.kind != UMBILIC_OR_HIGHER


def test_fold_criterion_agrees_with_parabolic_tangency():
    """On the fold fixture the asymptotic direction is transverse to the
    traced parabolic curve, and the derivative identity
    d_k(Hess f) = (transverse second derivative) * (third derivative along
    the kernel) holds."""
    surface = make_surface("E", domain=(-0.5, 0.5, -0.5, 0.5))
    inv = local_invariants(surface, 0.0, 0.0)
    # parabolic curve through the origin: trace it and estimate its tangent
    ps = trace_parabolic(surface, 64)
    assert len(ps.polylines) >= 1
    best = None
    for pl in ps.polylines:
        d = np.hypot(pl.points[:, 0], pl.points[:, 1])
        k = int(np.argmin(d))
        if best is None or d[k] < best[0]:
            nxt = k + 1 if k + 1 < len(pl.points) else k - 1
            tangent = pl.points[nxt] - pl.points[k]
            best = (d[k], tangent / np.linalg.norm(tangent))
    assert best[0] < 0.05
    tangent = best[1]
    asym = classify.asymptotic_directions(inv)[0]   # (0, 1)
    cross = abs(asym[0] * tangent[1] - asym[1] * tangent[0])
    assert cross > 0.9  # transverse, not tangent -> fold

    # derivative identity in the adapted frame: f_b = phi, kernel = y axis
    p = inv.jet_phi
    d_hess_along_kernel = (p.fxxy * p.fyy + p.fxx * p.fyyy
                           - 2.0 * p.fxy * p.fxyy)
    product_form = p.fxx * p.fyyy
    assert d_hess_along_kernel == pytest.approx(product_form, rel=1e-12)
    assert math.copysign(1.0, d_hess_along_kernel) == math.copysign(
        1.0, classify_height(surface, 0.0, 0.0, (1.0, 0.0)).third_order_coefficient)


def test_height_singularity_scale_invariance():
    """The fold/cusp decision is invariant under uniform rescaling."""
    from monge4.localgeom import surface_from_strings
    for lam in ("1e-3", "1e3"):
        surface = surface_from_strings(f"{lam}*(x^2 + y^3)", f"{lam}*2*x*y")
        sing = classify_height(surface, 0.0, 0.0, (1.0, 0.0))
        assert sing.kind == FOLD
