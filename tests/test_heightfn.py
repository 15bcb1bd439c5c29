"""Height-function Hessians, degenerate normals and singularity types."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from monge4 import classify, heightfn
from monge4.conics import homogeneous_quadratic_roots
from monge4.errors import CrossCheckError, InflectionPointError
from monge4.heightfn import (CUSP_OR_HIGHER, FOLD, NONDEGENERATE,
                             UMBILIC_OR_HIGHER, classify_height,
                             degenerate_normals, height_hessian)
from monge4.localgeom import (local_invariants, minors, surface_from_strings,
                              unit_scaled)
from monge4.locus import trace_parabolic

from conftest import make_surface, random_points, random_surfaces
from oracles import height_cubic_reference

# the surfaces on which the height-function bands used to disagree with
# degenerate_normals (a normal in the Delta band called nondegenerate) and
# overflow (W * quadratic underflows to 0 at |gradient| = 1e60)
NEAR_PARABOLIC = ("100*x + x^2 + x*y", "y^2 - x^2 + 0.1*x^3")
STEEP = ("1e60*x + x^2 + x*y", "1e60*y + y^2 - x^2")


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
    """For every degenerate normal the Hessian has rank 1, its kernel is an
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


@pytest.mark.parametrize("surface, x, y", [
    # Delta / ||M||^4 = 8.3e-9, inside the band
    (random_surfaces(seed=131)[2], 0.006055137996596072, -0.11399930608382514),
    (surface_from_strings(*NEAR_PARABOLIC), 0.3, 0.2),
    (surface_from_strings(*STEEP), 0.3, 0.2),
])
def test_kernel_is_asymptotic_inside_the_band(surface, x, y):
    """With Delta inside its band the one degenerate normal is the binormal
    and has a rank-1 Hessian whose kernel u is an asymptotic direction
    within the same band: |nq(u)| times the larger |eigenvalue| of the
    directional quadratic nq, which is Delta at its eigenvector of the
    smaller one, is at most REL ||M||^4 on the scaled M.  The two roots the
    band merges lie up to 7e-3 apart on the near-parabolic surface, so no
    angle is compared here."""
    inv = local_invariants(surface, x, y)
    normals = degenerate_normals(inv)
    assert len(normals) == 1
    assert [b.tobytes() for b in classify.binormals(inv)] \
        == [normals[0].tobytes()]
    sing = classify_height(surface, x, y, normals[0])
    assert sing.kind in (FOLD, CUSP_OR_HIGHER)
    m = unit_scaled(inv.a, inv.b, inv.c, inv.e, inv.f, inv.g)
    nq0, nq1, nq2 = minors(m.a, m.b, m.c, m.e, m.f, m.g)
    u1, u2 = sing.kernel_direction
    nq = nq0 * u1 * u1 + nq1 * u1 * u2 + nq2 * u2 * u2
    big = np.max(np.abs(np.linalg.eigvalsh(
        [[nq0, 0.5 * nq1], [0.5 * nq1, nq2]])))
    assert abs(nq) * big <= classify.REL * m.msq * m.msq


def test_third_order_coefficient_is_signed_by_kernel_direction():
    """third_order_coefficient is the cubic term of f_b along the returned
    kernel_direction, with its sign, against the ambient-frame reference."""
    rng = np.random.default_rng(5)
    checked = 0
    for surface in random_surfaces(seed=131, count=8):
        for x, y in random_points(rng, 8):
            inv = local_invariants(surface, float(x), float(y))
            try:
                normals = degenerate_normals(inv)
            except InflectionPointError:
                continue
            for n in normals:
                sing = classify_height(surface, float(x), float(y), n)
                want = height_cubic_reference(inv, n, sing.kernel_direction)
                assert sing.third_order_coefficient == pytest.approx(
                    want, rel=1e-9, abs=1e-12)
                checked += 1
    assert checked > 100


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


_seeds = st.integers(0, 2 ** 32 - 1)
# the terms x^i y^j of degree 2 and 3
_TERMS = [(i, d - i) for d in (2, 3) for i in range(d + 1)]


def _polynomial(coefficients, j):
    """The polynomial with these coefficients of _TERMS, times 2^j."""
    return " + ".join(f"({math.ldexp(float(c), j)!r})*x^{i}*y^{k}"
                      for c, (i, k) in zip(coefficients, _TERMS))


def _kinds_at_origin(surface):
    """(normal, kind) at each normal of degenerate_normals at the origin;
    None at an inflection point."""
    try:
        normals = degenerate_normals(local_invariants(surface, 0.0, 0.0))
    except InflectionPointError:
        return None
    return [(tuple(n), classify_height(surface, 0.0, 0.0, n).kind)
            for n in normals]


@given(_seeds, st.integers(-1000, 240))
@example(seed=6, j=-526)
@example(seed=10, j=-538)
@settings(max_examples=100, deadline=None)
def test_height_singularity_scale_invariance(seed, j):
    """At the origin of a polynomial with no constant or linear term the
    normals and their kinds stay the same when phi and psi are scaled by
    2^j, over the range where the jets stay finite and normal: ||M||^4
    overflows above about 2^250, and below 2^-1020 the coefficients turn
    subnormal.  Below 2^-511, K and kappa are subnormal; the examples are
    two where their cross-checks once failed on that rounding."""
    rng = np.random.default_rng(seed)
    coefficients = np.where(rng.random((2, len(_TERMS))) < 0.3, 0.0,
                            rng.uniform(-2.0, 2.0, (2, len(_TERMS))))
    kinds = [_kinds_at_origin(surface_from_strings(
        _polynomial(coefficients[0], scale), _polynomial(coefficients[1], scale)))
        for scale in (0, j)]
    assert kinds[1] == kinds[0]


@pytest.mark.parametrize("s", ["1e-8", "1e-4", "1", "1e2", "1e4", "1e8"])
def test_height_fold_at_every_scale(s):
    """s (x^2 + y^3), s x y has the fold s (x^2 + y^3) at the normal (1, 0)
    of the origin, for every s."""
    surface = surface_from_strings(f"{s}*(x^2 + y^3)", f"{s}*x*y")
    assert _kinds_at_origin(surface) == [((1.0, 0.0), FOLD)]


def _pushed_surface(rng, theta):
    """A random polynomial surface and point (x, y) whose coefficient matrix
    M has Delta = theta * REL * ||M||^4 up to rounding: M from the
    second fundamental forms S1 = diag(alpha, beta), alpha beta < 0, and
    S2 = [[gamma, delta], [delta, epsilon]], with delta solved for the
    target, rotated in the tangent and the normal plane, then turned into
    second derivatives at a random point with a random gradient."""
    x0, y0 = rng.uniform(-0.9, 0.9, 2).tolist()
    px, py, qx, qy = rng.uniform(-2.0, 2.0, 4).tolist()
    alpha, beta = rng.uniform(0.2, 1.0), -rng.uniform(0.2, 1.0)
    gamma, epsilon = rng.uniform(-1.0, 1.0, 2)
    spin, turn = rng.uniform(0.0, math.pi, 2)
    rot = np.array([[math.cos(spin), -math.sin(spin)],
                    [math.sin(spin), math.cos(spin)]])

    def forms(delta):
        s1 = rot.T @ np.diag([alpha, beta]) @ rot
        s2 = rot.T @ np.array([[gamma, delta], [delta, epsilon]]) @ rot
        return (math.cos(turn) * s1 - math.sin(turn) * s2,
                math.sin(turn) * s1 + math.cos(turn) * s2)

    # Delta = alpha beta (gamma epsilon - delta^2)
    #         - (alpha epsilon + beta gamma)^2 / 4
    gap = 0.25 * (alpha * epsilon - beta * gamma) ** 2
    delta = math.sqrt(gap / -(alpha * beta))
    for _ in range(2):  # ||M|| moves with delta
        msq = sum(float(np.sum(s * s)) - s[0, 1] ** 2 for s in forms(delta))
        target = theta * classify.REL * msq * msq
        assume(gap + target > 0.0)
        delta = math.sqrt((gap + target) / -(alpha * beta))
    s1, s2 = forms(delta)

    E, F = 1.0 + px * px + qx * qx, px * py + qx * qy
    W = E * (1.0 + py * py + qy * qy) - F * F
    Eh, Fh = 1.0 + px * px + py * py, px * qx + py * qy

    def hessian(s):
        # the inverse of localgeom.frame_fields' map from a Hessian on the
        # parameters to a normal component on the orthonormal tangent frame
        h11 = s[0, 0] * E
        h12 = s[0, 1] * math.sqrt(W) + F / E * h11
        return h11, h12, s[1, 1] * W / E + F / E * (2.0 * h12 - F / E * h11)

    phi_2 = [math.sqrt(Eh) * float(h) for h in hessian(s1)]
    psi_2 = [float(h) * math.sqrt(W) / math.sqrt(Eh) + Fh / Eh * d
             for h, d in zip(hessian(s2), phi_2)]
    X, Y = f"(x - ({x0!r}))", f"(y - ({y0!r}))"

    def text(fx, fy, second, cubic):
        hxx, hxy, hyy = second
        return (f"({fx!r})*{X} + ({fy!r})*{Y} + ({0.5 * hxx!r})*{X}^2 "
                f"+ ({hxy!r})*{X}*{Y} + ({0.5 * hyy!r})*{Y}^2 + "
                + " + ".join(f"({c!r})*{X}^{i}*{Y}^{3 - i}"
                             for i, c in enumerate(cubic)))

    phi = text(px, py, phi_2, rng.uniform(-1.0, 1.0, 4).tolist())
    psi = text(qx, qy, psi_2, rng.uniform(-1.0, 1.0, 4).tolist())
    return surface_from_strings(phi, psi), x0, y0


@given(_seeds, st.one_of(st.floats(-1.0, 1.0), st.floats(1.0, 1.0 + 1e-6),
                         st.floats(1.0, 2.0)))
@settings(max_examples=200, deadline=None)
def test_degenerate_normals_are_the_degenerate_height_functions(seed, theta):
    """With Delta pushed into its band (theta <= 1) and just above it, every
    normal of degenerate_normals has a degenerate height function, and
    where it returns none, neither has the most degenerate normal: the
    double root band_directions takes in the band, nor the minimiser of
    |det S| over the unit circle."""
    surface, x, y = _pushed_surface(np.random.default_rng(seed), theta)
    inv = local_invariants(surface, x, y)
    normals = degenerate_normals(inv)
    for n in normals:
        assert classify_height(surface, x, y, n).kind != NONDEGENERATE
    if normals:
        return
    m = unit_scaled(inv.a, inv.b, inv.c, inv.e, inv.f, inv.g)
    qa, qb, qc = (m.a * m.c - m.b ** 2, m.a * m.g + m.c * m.e - 2.0 * m.b * m.f,
                  m.e * m.g - m.f ** 2)
    vals, vecs = np.linalg.eigh(np.array([[qa, 0.5 * qb], [0.5 * qb, qc]]))
    for n in (homogeneous_quadratic_roots(qa, qb, qc, double_root=True)[0],
              vecs[:, int(np.argmin(np.abs(vals)))]):
        assert classify_height(surface, x, y, n).kind == NONDEGENERATE


def _assert_binormals_are_degenerate_normals(surface, x, y):
    """binormals are degenerate_normals bit for bit, or raise where that or
    asymptotic_directions raises; where there are two, each pair (u, b)
    with asymptotic_directions has u in the kernel of S_b within
    1e-12 ||M|| on the scaled M; and no binormal has a nondegenerate height
    function.  Returns the number of binormals, None where they raise."""
    inv = local_invariants(surface, x, y)
    try:
        normals = degenerate_normals(inv)
        classify.asymptotic_directions(inv)
    except InflectionPointError:
        with pytest.raises(InflectionPointError):
            classify.binormals(inv)
        return None
    bins = classify.binormals(inv)
    assert sorted(b.tobytes() for b in bins) \
        == sorted(n.tobytes() for n in normals)
    if len(bins) == 2:
        m = unit_scaled(inv.a, inv.b, inv.c, inv.e, inv.f, inv.g)
        for u, b in zip(classify.asymptotic_directions(inv), bins):
            s11, s12, s22 = classify.shape_operator(m, b[0], b[1])
            assert math.hypot(s11 * u[0] + s12 * u[1], s12 * u[0] + s22 * u[1]) \
                <= 1e-12 * math.sqrt(m.msq)
    for b in bins:
        assert classify_height(surface, x, y, b).kind != NONDEGENERATE
    return len(bins)


@pytest.mark.parametrize("surface, x, y", [
    # inside the band, where II(u, u) has no direction
    (random_surfaces(seed=131)[2], 0.006055137996596072, -0.11399930608382514),
    # ||M||^2 underflows unscaled
    (surface_from_strings(*STEEP), 0.3, 0.2),
    (surface_from_strings(*NEAR_PARABOLIC), 0.3, 0.2),
])
def test_binormals_are_degenerate_normals_inside_the_band(surface, x, y):
    assert _assert_binormals_are_degenerate_normals(surface, x, y) == 1


def test_binormals_are_degenerate_normals_on_the_corpus():
    rng = np.random.default_rng(127)
    counts = [_assert_binormals_are_degenerate_normals(surface, float(x),
                                                       float(y))
              for surface in random_surfaces(seed=131, count=8)
              for x, y in random_points(rng, 8)]
    assert counts.count(2) > 30 and counts.count(0) > 5


@given(_seeds, st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.0 + 1e-7]))
@example(seed=3839, theta=-1.0)
@settings(max_examples=100, deadline=None)
def test_binormals_are_degenerate_normals_at_the_band(seed, theta):
    """With Delta just below, inside and just above its band.  The example
    has Delta = -0.99999999986 of the band's width, where a test on
    |quad(n)| times the larger eigenvalue once called its one binormal
    nondegenerate."""
    _assert_binormals_are_degenerate_normals(
        *_pushed_surface(np.random.default_rng(seed), theta))


def test_steep_surface_classifies_with_the_hessian_check():
    """At |gradient| = 1e60 the height function is classified, and the
    W * quadratic check runs in classify_height on the scaled terms."""
    surface = surface_from_strings(*STEEP)
    inv = local_invariants(surface, 0.3, 0.2)
    normals = degenerate_normals(inv)
    assert len(normals) == 1
    # phi and psi have no cubic term
    assert classify_height(surface, 0.3, 0.2, normals[0]).kind == CUSP_OR_HIGHER
    # W * quadratic is about 1e-120: unscaled, the quadratic underflows
    _, det = height_hessian(inv, (1.0, 0.0))
    assert 1e-125 < abs(det) < 1e-115
    assert classify_height(surface, 0.3, 0.2, (1.0, 0.0)).kind == NONDEGENERATE


def test_hessian_check_with_w_near_the_float_maximum():
    """At |gradient| = 1.3e154 W is 1.7e308, and the Hessian times the 2^k
    of unit_scaled, or W times the scaled quadratic, overflows: the check
    takes its terms times 2^-2j as well, 2^2j near W, and holds."""
    g, p = 1.3e154, 1e300
    e = 1.0 + g * g
    surface = surface_from_strings(f"{g!r}*x + {p!r}*x^2 + {p / e!r}*y^2",
                                   f"{p / g!r}*x^2 + {0.5 * p / g / e!r}*y^2")
    inv = local_invariants(surface, 0.0, 0.0)
    assert inv.W > 1e308
    n = (math.sqrt(0.5), math.sqrt(0.5))
    hess, det = height_hessian(inv, n)
    assert det == pytest.approx(hess[0, 0] * hess[1, 1] - hess[0, 1] ** 2,
                                rel=1e-12)
    assert classify_height(surface, 0.0, 0.0, n).kind == NONDEGENERATE


def test_hessian_check_runs_in_classify_height(monkeypatch):
    monkeypatch.setattr(heightfn, "REL_HEIGHT", -1.0)
    for surface in (make_surface("E"), surface_from_strings(*STEEP)):
        with pytest.raises(CrossCheckError, match="height hessian determinant"):
            classify_height(surface, 0.3, 0.2, (1.0, 0.0))
