"""Curvature ellipse, characteristic conic, polarity and canonical frame."""

import dataclasses
import fractions
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monge4 import classify, conics
from monge4.errors import (DegenerateIndicatrixError, PoleAtInfinityError,
                           SingularSystemError, UmbilicPointError)
from monge4.localgeom import local_invariants, minors, second_order

from conftest import make_surface, random_points, random_surfaces
from oracles import (evolvent_reference, normal_plane_oracle,
                     polygon_signed_area, split_sweep_reference)


@pytest.fixture(scope="module")
def invs(surfaces):
    return {k: local_invariants(s, 0.0, 0.0) for k, s in surfaces.items()}


# -- indicatrix -------------------------------------------------------------

def test_indicatrix_circle(invs):
    ind = conics.indicatrix(invs["B"])
    assert ind.center == pytest.approx([0.0, 0.0])
    assert ind.semi_axis_major == pytest.approx(2.0)
    assert ind.semi_axis_minor == pytest.approx(2.0)
    assert not ind.degenerate


def test_indicatrix_degenerate_segment(invs):
    ind = conics.indicatrix(invs["A"])
    assert ind.center == pytest.approx([1.0, 1.0])
    assert ind.semi_axis_major == pytest.approx(math.sqrt(2.0))
    assert ind.semi_axis_minor == pytest.approx(0.0, abs=1e-14)
    assert ind.degenerate
    # endpoints of the segment are eta(0) and eta(pi/2)
    assert conics.eta(invs["A"], 0.0) == pytest.approx([2.0, 0.0])
    assert conics.eta(invs["A"], math.pi / 2) == pytest.approx([0.0, 2.0])


def test_indicatrix_fixture_d(invs):
    ind = conics.indicatrix(invs["D"])
    assert ind.center == pytest.approx([1.0, 0.0])
    assert ind.linear_map == pytest.approx(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert (ind.semi_axis_major, ind.semi_axis_minor) == pytest.approx((2.0, 1.0))


def test_det_equals_axis_product_and_half_kappa():
    rng = np.random.default_rng(4)
    for surface in random_surfaces(seed=5, count=5):
        for x, y in random_points(rng, 5):
            inv = local_invariants(surface, float(x), float(y))
            ind = conics.indicatrix(inv)
            det = float(np.linalg.det(ind.linear_map))
            scale = max(ind.semi_axis_major ** 2, 1e-12)
            assert abs(abs(det) - ind.semi_axis_major * ind.semi_axis_minor) \
                <= 1e-9 * scale
            assert abs(det - 0.5 * inv.kappa) <= 1e-9 * scale


# -- eta and conjugate radii ------------------------------------------------

def test_eta_at_zero_is_first_column(invs):
    for inv in invs.values():
        assert conics.eta(inv, 0.0) == pytest.approx([inv.a, inv.e])


def test_eta_parabolic_origin(invs):
    assert conics.eta(invs["D"], math.pi / 2) == pytest.approx([0.0, 0.0])


def test_eta_umbilic_quarter_turn(invs):
    assert conics.eta(invs["B"], math.pi / 4) == pytest.approx([0.0, 2.0])


def test_conjugate_radii_fixture(invs):
    xi, zeta = conics.conjugate_radii(invs["B"], 0.0)
    assert xi == pytest.approx([2.0, 0.0])
    assert zeta == pytest.approx([0.0, 2.0])
    xi, zeta = conics.conjugate_radii(invs["A"], 0.0)
    assert xi == pytest.approx([1.0, -1.0])
    assert zeta == pytest.approx([0.0, 0.0], abs=1e-15)


def test_eta_derivative_is_twice_zeta(invs):
    h = 1e-6
    for inv in invs.values():
        for theta in (0.0, 0.4, 1.1, 2.9):
            d_eta = (conics.eta(inv, theta + h)
                     - conics.eta(inv, theta - h)) / (2 * h)
            _, zeta = conics.conjugate_radii(inv, theta)
            assert d_eta == pytest.approx(2.0 * zeta, abs=1e-6)


# -- canonical frame ---------------------------------------------------------

def test_canonical_segment_surface(invs):
    cc = conics.canonical_coefficients(invs["A"])
    # segment of half-length sqrt(2), centre at distance sqrt(2)
    assert 0.5 * (cc.a - cc.c) == pytest.approx(math.sqrt(2.0))
    assert cc.f == pytest.approx(0.0, abs=1e-12)
    assert float(np.hypot(*cc.H)) == pytest.approx(math.sqrt(2.0))
    assert cc.K == pytest.approx(invs["A"].K, abs=1e-12)
    assert cc.kappa == pytest.approx(invs["A"].kappa, abs=1e-12)


def test_canonical_fixture_d(invs):
    cc = conics.canonical_coefficients(invs["D"])
    assert 0.5 * (cc.a - cc.c) == pytest.approx(2.0)   # major semi-axis
    assert abs(cc.f) == pytest.approx(1.0)             # minor semi-axis
    assert abs(cc.kappa) == pytest.approx(4.0)
    assert cc.K == pytest.approx(invs["D"].K, rel=1e-12)


def test_canonical_umbilic_rejected(invs):
    with pytest.raises(UmbilicPointError):
        conics.canonical_coefficients(invs["B"])


def test_canonical_at_nonminimal_circle_point():
    """Circle of radius 2 centred at (1, 0): the normal frame aligns with the
    centre direction and the invariants are reproduced exactly."""
    from monge4.localgeom import surface_from_strings
    inv = local_invariants(
        surface_from_strings("1.5*x^2 - 0.5*y^2", "2*x*y"), 0.0, 0.0)
    cc = conics.canonical_coefficients(inv)
    assert cc == pytest.approx((3.0, -1.0, 0.0, 2.0))
    assert cc.K == pytest.approx(inv.K) == -7.0
    assert cc.kappa == pytest.approx(inv.kappa) == 8.0
    # Wintgen equality holds at circle points, umbilic or not
    assert conics.wintgen_gap(inv) == pytest.approx(0.0, abs=1e-12)


def test_canonical_reproduces_invariants_randomly():
    rng = np.random.default_rng(9)
    for surface in random_surfaces(seed=14, count=6):
        for x, y in random_points(rng, 6):
            inv = local_invariants(surface, float(x), float(y))
            try:
                cc = conics.canonical_coefficients(inv)
            except UmbilicPointError:
                continue
            scale = max(inv.coeff_norm ** 2, 1e-12)
            assert abs(cc.K - inv.K) <= 1e-10 * scale
            assert abs(cc.kappa - inv.kappa) <= 1e-10 * scale
            assert float(np.hypot(*cc.H)) == pytest.approx(
                float(np.hypot(*inv.H)), rel=1e-10, abs=1e-12)
            assert 0.5 * (cc.a - cc.c) >= abs(cc.f) - 1e-12
            ind = conics.indicatrix(inv)
            assert 0.5 * (cc.a - cc.c) == pytest.approx(
                ind.semi_axis_major, rel=1e-9, abs=1e-12)
            assert abs(cc.f) == pytest.approx(
                ind.semi_axis_minor, rel=1e-9, abs=1e-12)
            # the canonical normal frame is along the ellipse's axes, the
            # left singular vectors of A
            u = np.linalg.svd(ind.linear_map)[0]
            assert np.abs(u.T @ inv.H) == pytest.approx(
                np.abs(cc.H), rel=1e-9, abs=1e-12)


# -- Wintgen inequality -------------------------------------------------------

def test_wintgen_fixtures(invs):
    assert conics.wintgen_gap(invs["B"]) == pytest.approx(0.0, abs=1e-12)
    assert conics.wintgen_gap(invs["A"]) == pytest.approx(2.0)
    assert conics.wintgen_gap(invs["D"]) == pytest.approx(1.0)


def test_wintgen_nonnegative_and_circle_criterion():
    rng = np.random.default_rng(19)
    for surface in random_surfaces(seed=23, count=8):
        for x, y in random_points(rng, 12):
            inv = local_invariants(surface, float(x), float(y))
            gap = conics.wintgen_gap(inv)
            assert gap >= -1e-10
            ind = conics.indicatrix(inv)
            # gap equals the squared semi-axis difference
            diff = ind.semi_axis_major - ind.semi_axis_minor
            assert gap == pytest.approx(diff * diff, rel=1e-6,
                                        abs=1e-9 * max(1.0, inv.coeff_norm ** 2))


# -- homogeneous conics -------------------------------------------------------

def test_indicatrix_conic_circle(invs):
    q = conics.indicatrix_conic(conics.indicatrix(invs["B"]))
    assert q.kind == "ellipse"
    assert q.matrix == pytest.approx(np.diag([0.25, 0.25, -1.0]))


def test_indicatrix_conic_fixture_d(invs):
    q = conics.indicatrix_conic(conics.indicatrix(invs["D"]))
    assert q.kind == "ellipse"
    # ellipse ((X-1)/1)^2 + (Y/2)^2 = 1 touches (2,0), (0,0), (1,+-2)
    for point in ((2.0, 0.0), (0.0, 0.0), (1.0, 2.0), (1.0, -2.0)):
        v = np.array([point[0], point[1], 1.0])
        assert abs(v @ q.matrix @ v) <= 1e-12


def test_indicatrix_conic_degenerate_rejected(invs):
    with pytest.raises(DegenerateIndicatrixError):
        conics.indicatrix_conic(conics.indicatrix(invs["A"]))
    with pytest.raises(DegenerateIndicatrixError):
        conics.characteristic_conic(conics.indicatrix(invs["A"]))


def test_eta_lies_on_indicatrix_conic():
    rng = np.random.default_rng(31)
    for surface in random_surfaces(seed=37, count=5):
        for x, y in random_points(rng, 4):
            inv = local_invariants(surface, float(x), float(y))
            ind = conics.indicatrix(inv)
            if ind.degenerate:
                continue
            q = conics.indicatrix_conic(ind).matrix
            for theta in np.linspace(0.0, math.pi, 32, endpoint=False):
                p = conics.eta(inv, float(theta))
                v = np.array([p[0], p[1], 1.0])
                assert abs(v @ q @ v) / (v @ v) <= 1e-9


def test_characteristic_circle(invs):
    ch = conics.characteristic_conic(conics.indicatrix(invs["B"]))
    assert ch.kind == "ellipse"
    assert ch.matrix == pytest.approx(np.diag([1.0, 1.0, -0.25]))


def test_characteristic_kinds(invs):
    assert conics.characteristic_conic(
        conics.indicatrix(invs["D"])).kind == "parabola"
    assert conics.characteristic_conic(
        conics.indicatrix(invs["G"])).kind == "hyperbola"


def test_kommerell_kind_matches_delta_sign():
    rng = np.random.default_rng(41)
    total = 0
    for surface in random_surfaces(seed=53, count=10):
        for x, y in random_points(rng, 12):
            inv = local_invariants(surface, float(x), float(y))
            ind = conics.indicatrix(inv)
            msq = inv.coeff_norm ** 2
            if ind.degenerate or abs(inv.Delta) <= 1e-6 * msq * msq:
                continue
            ch = conics.characteristic_conic(ind)
            want = "ellipse" if inv.Delta > 0 else "hyperbola"
            assert ch.kind == want
            total += 1
    assert total > 50


# -- evolvent -----------------------------------------------------------------

def test_evolvent_point_fixture(invs):
    assert conics.evolvent_point(invs["B"], 0.0) == pytest.approx([0.5, 0.0])


def test_evolvent_sweep_is_characteristic_circle(invs):
    for theta in np.linspace(0.0, math.pi, 256, endpoint=False):
        n = conics.evolvent_point(invs["B"], float(theta))
        assert float(np.hypot(*n)) == pytest.approx(0.5, abs=1e-9)


def test_evolvent_singular_at_parabolic_direction(invs):
    with pytest.raises(SingularSystemError):
        conics.evolvent_point(invs["D"], math.pi / 2)


EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny


def _sweep(inv, thetas):
    """The evolvent sweep at the angles ``thetas``: (points, det, singular)."""
    return conics._sweep_points(
        inv, *conics._sweep_trig(np.asarray(thetas, dtype=float).tolist()))


def _assert_sweep_is_reference(inv, thetas):
    """The closed-form sweep against the per-direction LAPACK reference,
    which solves the same system (eta and zeta bit for bit):

    * at every sample, the sweep's det eta x zeta within
      4 eps |eta| |zeta| + eps (8 + |log p1| + |log p2|) |det| of the
      reference det: the rounding of the LU, and that of numpy's det, which
      is the exp of log |p1| + log |p2| for the LU's pivots, p1 the larger
      |first entry| of eta and zeta and p2 = det / p1, plus the smallest
      normal float, as LAPACK's LU loses the subnormal range; and the
      sweep's mask is its own |det| <= 1e-12;
    * the same singular mask, except where the two dets lie on opposite
      sides of 1e-12, which the bound above then confines to its width
      (a = e = 1000 and b = c = f = g = 0 at theta = 5 pi / 64 has the exact
      det 0, the reference 2.7e-11; coefficients of 1e-6 give the exact
      det 1e-12, the reference 1.000000000000001e-12);
    * each point within 4 eps cond of the reference point, relative to it,
      cond = (|eta|^2 + |zeta|^2) / |det| the condition of the system;
    * each point with n . eta = 1 and n . zeta = 0 within 4 eps of
      |n| |eta| and |n| |zeta|, also where the reference is singular, and
      nan where the sweep is.

    Returns the sweep's points."""
    points, dets, singular = _sweep(inv, thetas)
    assert (singular == (np.abs(dets) <= 1e-12)).all()
    for k, theta in enumerate(thetas):
        point, det = evolvent_reference(inv, float(theta))
        et = conics.eta(inv, float(theta))
        _, zeta = conics.conjugate_radii(inv, float(theta))
        size_eta, size_zeta = float(np.hypot(*et)), float(np.hypot(*zeta))
        p1 = max(abs(float(et[0])), abs(float(zeta[0])))
        logs = abs(math.log(p1)) + abs(math.log(abs(det) / p1)) if det else 0.0
        assert abs(float(dets[k]) - det) \
            <= EPS * (4.0 * size_eta * size_zeta + (8.0 + logs) * abs(det)) + TINY
        if singular[k]:
            assert np.isnan(points[k]).all()
            continue
        n = points[k]
        size = float(np.hypot(*n))
        assert abs(float(n @ et) - 1.0) <= 4.0 * EPS * size * size_eta
        assert abs(float(n @ zeta)) <= 4.0 * EPS * size * size_zeta
        if point is not None:
            cond = (size_eta ** 2 + size_zeta ** 2) / abs(det)
            assert float(np.hypot(*(n - point))) \
                <= 4.0 * EPS * cond * float(np.hypot(*point))
    return points


SWEEP_THETAS = np.arange(512) * math.pi / 512


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "E", "G", "H"])
def test_evolvent_sweep_matches_reference_on_fixtures(invs, name):
    _assert_sweep_is_reference(invs[name], SWEEP_THETAS)


# A has singular samples, D and E 144 clipped ones out of 512, G two
# branches cut where eta x zeta changes sign
@pytest.mark.parametrize("name", ["A", "B", "D", "E", "G"])
def test_sample_characteristic_clips_as_reference(invs, name):
    """The traced points are exactly the sweep points that are neither at
    infinity nor farther than the clip radius from the origin, and they
    are so where the reference points are."""
    points = _assert_sweep_is_reference(invs[name], SWEEP_THETAS)
    traced = {(float(x), float(y))
              for pts, _ in conics.sample_characteristic(invs[name], 512, 2.0)
              for x, y in pts}
    kept = set()
    for theta, (x, y) in zip(SWEEP_THETAS, points):
        point, _ = evolvent_reference(invs[name], float(theta))
        inside = point is not None and float(np.hypot(*point)) <= 2.0
        assert inside == (float(np.hypot(x, y)) <= 2.0)
        if inside:
            kept.add((float(x), float(y)))
    assert traced == kept


def test_evolvent_sweep_singular_samples(invs):
    # D at pi/2: the tangent passes through the origin (det ~ 1e-32);
    # A at 0: a segment end, det exactly 0, which LAPACK cannot solve
    points, _, singular = _sweep(invs["D"], SWEEP_THETAS)
    assert np.nonzero(singular)[0].tolist() == [256]
    assert np.isnan(points[256]).all()
    _, det, singular = _sweep(invs["A"], SWEEP_THETAS)
    assert det[0] == 0.0 and singular[0]


@given(st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
       st.integers(-8, 4),
       st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=8))
@example([2.0, 0.0, 0.0, 0.0, 2.0, 0.0], 0, [math.pi / 2])  # D
@example([2.0, 0.0, 0.0, 0.0, 0.0, 2.0], 0, [0.0, math.pi / 2])  # A
@example([1.0, 0.0, 0.0, 1.0, 0.0, 0.0], 3, [5 * math.pi / 64])  # flips
@example([0.0, 1.250377571827013e-119, 0.0, 1.75, 0.0, 0.0], 0, [0.0])  # pivots
@example([0.0, 2.2250738585e-313, 0.0, 1.0, 0.0, 0.0], 0, [0.0])  # subnormal
@settings(max_examples=150, deadline=None)
def test_evolvent_sweep_matches_reference_random(coeffs, exponent, thetas):
    """Random coefficient sets, scaled so that |det| falls on both sides of
    the singular band; the 64-step grid plus arbitrary directions."""
    s = 10.0 ** exponent
    a, b, c, e, f, g = (s * v for v in coeffs)
    inv = dataclasses.replace(
        local_invariants(make_surface("D"), 0.0, 0.0),
        a=a, b=b, c=c, e=e, f=f, g=g)
    _assert_sweep_is_reference(inv, list(np.arange(64) * math.pi / 64) + thetas)


def _assert_table_is_uncached_sweep(inv, n):
    """The cached sweep table gives the uncached sweep's arrays bit for bit;
    every traced point is one of its rows and evolvent_point gives row k."""
    want = _sweep(inv, np.arange(n) * math.pi / n)
    got = conics._sweep_points(inv, *conics._sweep_table(n))
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    points, _, singular = want
    rows = {p.tobytes() for p in points}
    for pts, _ in conics.sample_characteristic(inv, n):
        assert all(p.tobytes() in rows for p in pts)
    for k in range(n):
        if singular[k]:
            with pytest.raises(SingularSystemError):
                conics.evolvent_point(inv, k * math.pi / n)
        else:
            assert conics.evolvent_point(inv, k * math.pi / n).tobytes() \
                == points[k].tobytes()


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "E", "G", "H"])
def test_sweep_table_matches_uncached_sweep_on_fixtures(invs, name):
    for n in (512, 97):
        _assert_table_is_uncached_sweep(invs[name], n)


def test_sweep_table_matches_uncached_sweep_on_random_points():
    rng = np.random.default_rng(71)
    for surface in random_surfaces(seed=73, count=5):
        for x, y in random_points(rng, 4):
            _assert_table_is_uncached_sweep(
                local_invariants(surface, float(x), float(y)), 512)


def test_sweep_table_is_cached_and_read_only():
    table = conics._sweep_table(512)
    assert conics._sweep_table(512) is table
    for column in table:
        with pytest.raises(ValueError):
            column.flat[0] = 1.0


@st.composite
def _sweeps(draw):
    """A sweep of n points on an ellipse, with a determinant column of
    random signs (signed zeros among them) and a random set of samples
    invalid (nan)."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 13, 33, 512]))
    t = np.arange(n) * math.pi / n
    pts = np.column_stack([draw(st.floats(0.5, 2.0)) * np.cos(2.0 * t),
                           np.sin(2.0 * t)])
    det = np.ones(n)
    for k in draw(st.lists(st.integers(0, n - 1), max_size=4)):
        det[k:] *= -1.0
    for k, value in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.sampled_from([0.0, -0.0])),
                                  max_size=2)):
        det[k] = value
    if n <= 33:
        invalid = np.array(draw(st.lists(st.booleans(), min_size=n,
                                         max_size=n)), dtype=bool)
    else:
        a, b = sorted(draw(st.lists(st.integers(0, n), min_size=2,
                                    max_size=2)))
        invalid = np.zeros(n, dtype=bool)
        invalid[a:b] = True
        invalid ^= draw(st.booleans())
    pts[invalid] = np.nan
    return pts, det, invalid


def _circle_sweep(n, flips=(), invalid=()):
    t = np.arange(n) * math.pi / n
    pts = np.column_stack([np.cos(2.0 * t), np.sin(2.0 * t)])
    det = np.ones(n)
    for k in flips:
        det[k:] *= -1.0
    mask = np.zeros(n, dtype=bool)
    mask[list(invalid)] = True
    pts[mask] = np.nan
    return pts, det, mask


# an M whose eta x zeta, kappa/2 = 1 and beta = gamma = 0, has no zero:
# the cut at its extreme never applies
_NO_EXTREME_CUT = SimpleNamespace(scaled=SimpleNamespace(
    a=1.0, b=0.0, c=-1.0, e=0.0, f=1.0, g=0.0))


@given(_sweeps())
# the piece through a continuous seam comes first
@example(_circle_sweep(8, flips=[3, 6]))
# a sign change at the seam: the pieces keep their order
@example(_circle_sweep(8, flips=[3]))
# the run through the seam comes first; without it, runs keep their order
@example(_circle_sweep(8, invalid=[3]))
@example(_circle_sweep(8, invalid=[0, 3]))
@settings(max_examples=400, deadline=None)
def test_sample_characteristic_splits_as_reference(sweep):
    """The runs, pieces and their order equal the list-based reference,
    including seams that wrap from the last sample to the first."""
    pts, det, invalid = sweep
    with mock.patch.object(conics, "_sweep_points",
                           lambda *_: (pts.copy(), det.copy(), invalid.copy())):
        got = conics.sample_characteristic(_NO_EXTREME_CUT, len(pts))
    want = split_sweep_reference(pts, det, invalid)
    assert [closed for _, closed in got] == [closed for _, closed in want]
    assert [p.tobytes() for p, _ in got] == [p.tobytes() for p, _ in want]


def _dyadic(values):
    """Integers X and one shift s with each float value = X 2^-s exactly."""
    ratios = [float(v).as_integer_ratio() for v in values]
    shift = max(d.bit_length() - 1 for _, d in ratios)
    return [x << (shift - d.bit_length() + 1) for x, d in ratios], shift


def _cut_test_coefficients(seed, count):
    """``count`` random a..g: two thirds uniform in (-2, 2), one third
    near-parabolic, two quadratic forms with a common zero direction
    (Delta = 0) perturbed by a relative 10^U(-15, -5)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        if i % 3:
            yield rng.uniform(-2.0, 2.0, 6).tolist()
            continue
        t = rng.uniform(-3.0, 3.0)
        p1, q1, p2, q2 = rng.uniform(-1.0, 1.0, 4)
        # (v - t u)(p u + q v) = a u^2 + 2 b uv + c v^2
        m = np.array([-t * p1, 0.5 * (p1 - t * q1), q1,
                      -t * p2, 0.5 * (p2 - t * q2), q2])
        yield (m * (1.0 + 10.0 ** rng.uniform(-15.0, -5.0)
                    * rng.uniform(-1.0, 1.0, 6))).tolist()


def test_sample_characteristic_cuts_at_exact_zeros():
    """On 600 random M, a third near-parabolic, every gap of the 512-sample
    sweep that holds a zero of eta x zeta is cut and every other gap
    between two drawn samples is linked, against the sweep's formula in
    exact rationals of the float a..g and the float sweep table.

    A gap holds a zero where the exact eta x zeta differs in sign at its
    ends, and two where Delta < 0, the direction -sign(kappa) (beta, gamma)
    lies strictly between the table's (cos 2 theta, sin 2 theta) at its
    ends and both ends lie on kappa's side of 0.  Exempt is a gap whose cut
    is decided by rounding: an end's exact |eta x zeta| <= 64 eps
    (|kappa|/2 + rho), or, for the gap of that direction, |Delta| <= 64 eps
    (|kappa|/2 + rho)^2, rho = hypot(beta, gamma)."""
    n = 512
    table, shift_t = _dyadic(np.concatenate(conics._sweep_table(n)))
    co, si, c2, s2 = (table[k * n:(k + 1) * n] for k in range(4))
    quad = [(x * x, 2 * x * y, y * y) for x, y in zip(co, si)]
    nxt = [(k + 1) % n for k in range(n)]
    base = local_invariants(make_surface("D"), 0.0, 0.0)
    checked = exempt = two = 0
    for coeffs in _cut_test_coefficients(83, 600):
        inv = dataclasses.replace(base, **dict(zip("abcefg", coeffs)))
        (a, b, c, e, f, g), shift_m = _dyadic(coeffs)
        # eta x zeta times 2^(2 shift_m + 3 shift_t + 1): eta times
        # 2^(shift_m + 2 shift_t), zeta times 2^(shift_m + shift_t + 1)
        det = []
        for (q0, q1, q2), w1, w2 in zip(quad, s2, c2):
            eta1, eta2 = a * q0 + b * q1 + c * q2, e * q0 + f * q1 + g * q2
            zeta1, zeta2 = 2 * b * w2 - (a - c) * w1, 2 * f * w2 - (e - g) * w1
            det.append(eta1 * zeta2 - eta2 * zeta1)
        # kappa/2, beta, gamma times 2^(2 shift_m + 1), Delta times
        # 2^(4 shift_m + 2)
        hk, beta, gamma = (a - c) * f - (e - g) * b, \
            (a + c) * f - (e + g) * b, a * g - c * e
        delta = hk * hk - beta * beta - gamma * gamma
        half = fractions.Fraction(1, 1 << (2 * shift_m + 1))
        size = abs(float(hk * half)) + math.hypot(float(beta * half),
                                                  float(gamma * half))
        near_end = fractions.Fraction(64.0 * EPS * size) \
            * (1 << (2 * shift_m + 3 * shift_t + 1))
        near_delta = abs(delta * half * half) \
            <= fractions.Fraction(64.0 * EPS * size * size)
        d1, d2 = (-beta, -gamma) if hk > 0 else (beta, gamma)

        pts, _, singular = conics._sweep_points(inv, *conics._sweep_table(n))
        index = {p.tobytes(): k for k, p in enumerate(pts) if not singular[k]}
        assert len(index) == n - int(singular.sum())
        linked = set()
        for poly, closed in conics.sample_characteristic(inv, n):
            ids = [index[p.tobytes()] for p in poly]
            assert all(nxt[i] == j for i, j in zip(ids, ids[1:]))
            linked.update(ids if closed else ids[:-1])
        for k in range(n):
            j = nxt[k]
            if singular[k] or singular[j]:
                continue
            pos_k, pos_j = det[k] > 0, det[j] > 0
            extreme = (c2[k] * d2 - s2[k] * d1 > 0
                       and d1 * s2[j] - d2 * c2[j] > 0)
            holds = pos_k != pos_j or (delta < 0 and extreme
                                       and pos_k == pos_j == (hk > 0))
            if min(abs(det[k]), abs(det[j])) <= near_end \
                    or (extreme and near_delta):
                exempt += 1
                continue
            assert (k not in linked) == holds, (coeffs, k)
            checked += 1
            two += holds and pos_k == pos_j
    assert checked > 300_000 and exempt < 100 and two > 50


def test_tangency_determinant_is_harmonic_with_discriminant_delta():
    """In exact rationals, on random M and rational directions
    (cos t, sin t) = ((1 - s^2)/(1 + s^2), 2 s/(1 + s^2)): the sweep's
    eta x zeta is kappa/2 + beta cos 2t + gamma sin 2t with beta = H3 f - H4 b
    and gamma = H4 (a - c)/2 - H3 (e - g)/2, and (kappa/2)^2 - beta^2 - gamma^2
    = Delta.  beta and gamma are the halves of nq0 - nq2 and nq1 of the
    minors, and kappa/2 that of nq0 + nq2, as sample_characteristic takes
    them."""
    F = fractions.Fraction
    rng = np.random.default_rng(89)
    for _ in range(200):
        a, b, c, e, f, g = (F(v) for v in rng.uniform(-2.0, 2.0, 6))
        kappa = second_order(a, b, c, e, f, g).kappa
        delta = (a * c - b * b) * (e * g - f * f) \
            - (a * g + c * e - 2 * b * f) ** 2 / 4
        h3, h4 = (a + c) / 2, (e + g) / 2
        beta = h3 * f - h4 * b
        gamma = h4 * (a - c) / 2 - h3 * (e - g) / 2
        assert (kappa / 2) ** 2 - beta ** 2 - gamma ** 2 == delta
        nq0, nq1, nq2 = minors(a, b, c, e, f, g)
        assert (nq0 + nq2, nq0 - nq2, nq1) == (kappa, 2 * beta, 2 * gamma)
        for s in (F(int(v), 64) for v in rng.integers(-400, 400, 5)):
            co, si = (1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)
            cos2, sin2 = co * co - si * si, 2 * co * si
            # eta = II(u, u), zeta = A (-sin 2t, cos 2t)
            eta1 = a * co * co + 2 * b * co * si + c * si * si
            eta2 = e * co * co + 2 * f * co * si + g * si * si
            zeta1 = -(a - c) / 2 * sin2 + b * cos2
            zeta2 = -(e - g) / 2 * sin2 + f * cos2
            assert eta1 * zeta2 - eta2 * zeta1 \
                == kappa / 2 + beta * cos2 + gamma * sin2


def test_tangency_zeros_are_asymptotic_directions():
    """At hyperbolic points, the two zeros of kappa/2 + rho cos(2 t - phi),
    (beta, gamma) = rho (cos phi, sin phi), lie within 1e-12 rad of the
    classifier's asymptotic directions."""
    rng = np.random.default_rng(97)
    hyperbolic = 0
    for surface in random_surfaces(seed=101, count=10):
        for x, y in random_points(rng, 30):
            inv = local_invariants(surface, float(x), float(y))
            m = inv.scaled
            if classify.classify_point(inv).label.kind != "hyperbolic":
                continue
            h3, h4 = m.H3, m.H4
            beta = h3 * m.f - h4 * m.b
            gamma = h4 * (m.a - m.c) / 2 - h3 * (m.e - m.g) / 2
            phi = math.atan2(gamma, beta)
            offset = math.acos(-0.5 * m.kappa / math.hypot(beta, gamma))
            zeros = [(0.5 * (phi + sign * offset)) % math.pi for sign in (1, -1)]
            dirs = [math.atan2(d[1], d[0]) % math.pi
                    for d in classify.asymptotic_directions(inv)]
            assert len(dirs) == 2
            for t in zeros:
                assert min(abs(math.remainder(t - u, math.pi))
                           for u in dirs) <= 1e-12
            hyperbolic += 1
    assert hyperbolic >= 50


def test_evolvent_points_satisfy_characteristic_conic():
    rng = np.random.default_rng(47)
    for surface in random_surfaces(seed=61, count=6):
        for x, y in random_points(rng, 5):
            inv = local_invariants(surface, float(x), float(y))
            ind = conics.indicatrix(inv)
            if ind.degenerate:
                continue
            cm = conics.characteristic_conic(ind).matrix
            fro = float(np.linalg.norm(cm))
            for theta in np.linspace(0.0, math.pi, 24, endpoint=False):
                try:
                    n = conics.evolvent_point(inv, float(theta))
                except SingularSystemError:
                    continue
                v = np.array([n[0], n[1], 1.0])
                assert abs(v @ cm @ v) / (fro * (v @ v)) <= 1e-8


def test_duality_closure_polars_touch_characteristic():
    """The polar of an indicatrix point with respect to the unit circle is
    tangent to the characteristic conic."""
    rng = np.random.default_rng(59)
    for surface in random_surfaces(seed=67, count=5):
        for x, y in random_points(rng, 4):
            inv = local_invariants(surface, float(x), float(y))
            ind = conics.indicatrix(inv)
            if ind.degenerate:
                continue
            cm = conics.characteristic_conic(ind).matrix
            adj = np.linalg.inv(cm).T * np.linalg.det(cm)
            for theta in np.linspace(0.0, math.pi, 256, endpoint=False):
                p = conics.eta(inv, float(theta))
                line = np.array([p[0], p[1], -1.0])  # polar wrt unit circle
                resid = abs(line @ adj @ line) \
                    / (np.linalg.norm(adj) * (line @ line))
                assert resid <= 1e-7


# -- pole / polar --------------------------------------------------------------

UNIT_CIRCLE = conics.conic_from_matrix(np.diag([1.0, 1.0, -1.0]), "ellipse")


def test_polar_of_external_point():
    line = conics.polar((2.0, 0.0), UNIT_CIRCLE)
    # line 2X - 1 = 0, i.e. X = 1/2
    assert line[1] == pytest.approx(0.0, abs=1e-15)
    assert -line[2] / line[0] == pytest.approx(0.5)


def test_pole_of_tangent_is_tangency_point():
    pole = conics.pole((1.0, 0.0, -1.0), UNIT_CIRCLE)  # line X = 1
    assert pole == pytest.approx([1.0, 0.0])


def test_pole_at_infinity():
    with pytest.raises(PoleAtInfinityError):
        conics.pole((1.0, 0.0, 0.0), UNIT_CIRCLE)  # diameter direction


def test_polar_pole_round_trip_random():
    rng = np.random.default_rng(71)
    for _ in range(40):
        m = rng.uniform(-1, 1, size=(3, 3))
        m = m + m.T + np.diag(rng.uniform(1.0, 2.0, 3))
        # pole and polar read the kind only to refuse a degenerate conic
        if abs(np.linalg.det(m)) <= 1e-10 * np.linalg.norm(m) ** 3:
            continue
        conic = conics.conic_from_matrix(m, "ellipse")
        p = rng.uniform(-2, 2, size=2)
        line = conics.polar(p, conic)
        try:
            back = conics.pole(line, conic)
        except PoleAtInfinityError:
            continue
        assert back == pytest.approx(p, rel=1e-10, abs=1e-10)


# -- area law -------------------------------------------------------------------

def test_oriented_area_law():
    rng = np.random.default_rng(73)
    samples = 0
    for surface in random_surfaces(seed=79, count=6):
        for x, y in random_points(rng, 6):
            inv = local_invariants(surface, float(x), float(y))
            if abs(inv.kappa) <= 1e-3:
                continue
            pts = conics.sample_indicatrix(inv, 4096)
            area = polygon_signed_area(pts)
            assert area == pytest.approx(0.5 * math.pi * inv.kappa, rel=1e-3)
            samples += 1
    assert samples > 20


# -- asymptote directions ---------------------------------------------------------

def test_characteristic_asymptotes_of_fixture_g(invs):
    ch = conics.characteristic_conic(conics.indicatrix(invs["G"]))
    dirs = conics.conic_asymptote_directions(ch)
    assert len(dirs) == 2
    # the asymptotes are parallel to the binormals (sqrt(3), -+1.5)/sqrt(5.25)
    norm = math.sqrt(5.25)
    want = [(math.sqrt(3) / norm, 1.5 / norm),
            (math.sqrt(3) / norm, -1.5 / norm)]
    for wx, wy in want:
        assert any(abs(d[0] * wy - d[1] * wx) < 1e-9 for d in dirs)


def test_asymptotes_parallel_to_binormals_randomly():
    from monge4.classify import binormals
    from monge4.errors import InflectionPointError
    rng = np.random.default_rng(83)
    checked = 0
    for surface in random_surfaces(seed=87, count=8):
        for x, y in random_points(rng, 8):
            inv = local_invariants(surface, float(x), float(y))
            ind = conics.indicatrix(inv)
            msq = inv.coeff_norm ** 2
            if ind.degenerate or inv.Delta > -1e-6 * msq * msq:
                continue
            ch = conics.characteristic_conic(ind)
            if ch.kind != "hyperbola":
                continue
            try:
                bins = binormals(inv)
            except InflectionPointError:
                continue
            for direction in conics.conic_asymptote_directions(ch):
                cross = min(abs(direction[0] * b[1] - direction[1] * b[0])
                            for b in bins)
                assert cross <= 1e-7
                checked += 1
    assert checked > 30


def test_normalization_convention():
    conic = conics.conic_from_matrix(np.diag([-2.0, -2.0, 8.0]), "ellipse")
    m = conic.matrix
    assert np.max(np.abs(m)) == pytest.approx(1.0)
    assert m[0, 0] + m[1, 1] >= 0.0


def test_sampling_shapes(invs):
    pts = conics.sample_indicatrix(invs["B"], 64)
    assert pts.shape == (64, 2)
    assert np.hypot(pts[:, 0], pts[:, 1]) == pytest.approx(np.full(64, 2.0))
    polys = conics.sample_characteristic(invs["B"], 128)
    assert len(polys) == 1 and polys[0][1] is True
    polys = conics.sample_characteristic(invs["G"], 256, clip_radius=100.0)
    assert len(polys) == 2


# -- the normal plane against exact rationals -------------------------------------

def _random_coefficients(seed, count):
    """``count`` random M, entries in (-1, 1) times 2^j, j in [-500, 500]:
    the float range where ||M||^4 may under- or overflow."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield (rng.uniform(-1.0, 1.0, 6)
               * 2.0 ** int(rng.integers(-500, 500))).tolist()


# two M where the float height quadratic of the scaled M cancels against a
# smaller peak of P: 7 and 4.5 eps off unless each entry is rounded once
CANCELLING = [
    [-28.575254254512394, 24.02802580917553, -20.564983991208486,
     21.49367551561965, -23.52000155376959, 28.500842875748724],
    [2757.369599392572, 8218.886973500936, 16052.335638809855,
     -14280.7211470875, -11965.04181515981, -8267.253824078445],
]


def _with_coefficients(a, b, c, e, f, g):
    return dataclasses.replace(
        local_invariants(make_surface("D"), 0.0, 0.0),
        a=a, b=b, c=c, e=e, f=f, g=g, H=np.array([0.5 * (a + c), 0.5 * (e + g)]))


def test_characteristic_matrix_minor_is_delta_and_determinant_quarter_kappa_sq():
    for coeffs in _random_coefficients(11, 400):
        o = normal_plane_oracle(*coeffs)
        (p11, p12, _), (_, p22, _), _ = o.char_exact
        assert p11 * p22 - p12 * p12 == o.delta
        assert _det3_exact(o.char_exact) == o.kappa ** 2 / 4


def _det3_exact(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def test_normal_plane_matches_exact_oracle():
    """On random M over 1,000 binary orders of magnitude: the normalised
    characteristic conic within 4 eps of the exact one, entry by entry; the
    indicatrix conic, from the inverse of A A^T, within 16 eps of its
    condition s1^2 / s2^2; the semi-axes' s1^2 + s2^2 and s1 s2 within
    8 eps of s1^2 + s2^2; and the kinds of the classifier's bands."""
    checked = 0
    for coeffs in [*CANCELLING, *_random_coefficients(13, 1000)]:
        ind = conics.indicatrix(_with_coefficients(*coeffs))
        o = normal_plane_oracle(*coeffs)
        k = ind.scaled.k   # compare the axes at the scale of M itself
        s1, s2 = (math.ldexp(v, k) for v in (ind.semi_axis_major,
                                             ind.semi_axis_minor))
        size = math.ldexp(o.axes_sq, 2 * k)
        assert abs(s1 * s1 + s2 * s2 - size) <= 8 * EPS * size
        assert abs(s1 * s2 - math.ldexp(o.axes_product, 2 * k)) <= 8 * EPS * size
        if ind.degenerate:
            continue
        ch = conics.characteristic_conic(ind)
        assert np.abs(ch.matrix - o.char).max() <= 4 * EPS
        assert ch.kind == o.kind
        cond = s1 * s1 / (s2 * s2)
        assert np.abs(conics.indicatrix_conic(ind).matrix - o.ind).max() \
            <= 16 * EPS * cond
        checked += 1
    assert checked > 900


def test_characteristic_kind_is_the_class_outside_the_kappa_band():
    """The kind is the exact one, degenerate where kappa lies in its band
    whatever Delta, and the point's class elsewhere: at the default
    tolerance and at a wide one, on random surfaces and on random M."""
    want = {"elliptic": "ellipse", "hyperbolic": "hyperbola",
            "parabolic": "parabola"}
    rng = np.random.default_rng(17)
    invs = [local_invariants(surface, float(x), float(y))
            for surface in random_surfaces(seed=19, count=8)
            for x, y in random_points(rng, 8)]
    invs += [_with_coefficients(*coeffs)
             for coeffs in _random_coefficients(23, 100)]
    kinds = set()
    for rel in (classify.REL, 0.01):
        for inv in invs:
            ind = conics.indicatrix(inv)
            if ind.degenerate:
                continue
            kind = conics.characteristic_conic(ind, rel).kind
            assert kind == normal_plane_oracle(inv.a, inv.b, inv.c, inv.e,
                                               inv.f, inv.g, rel).kind
            if kind != "degenerate":
                assert kind == want[classify.classify_point(inv, rel).label]
            kinds.add(kind)
    assert kinds == {"ellipse", "hyperbola", "parabola", "degenerate"}
