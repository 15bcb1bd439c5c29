"""The curvature ellipse, the characteristic conic, and the projective
polarity connecting them.

The curvature ellipse (indicatrix) at a point is the image of the unit
tangent circle under the second fundamental form: theta -> H + A w(2 theta)
in the orthonormal normal frame, where H is the mean-curvature vector and A
the 2x2 linear map built from the coefficients.  The characteristic conic is
the locus of intersections of consecutive normal planes, the points n whose
line n . X = 1 touches the ellipse: the polar dual of the ellipse with
respect to the unit circle, P = [[hq0, hq1/2, -H3], [hq1/2, hq2, -H4],
[-H3, -H4, 1]] in the :func:`~monge4.localgeom.height_quadratic` and H,
whose 2x2 minor is Delta and determinant kappa^2 / 4.  The sweep that
traces it takes the pole of each tangent of the ellipse in closed form, from
the point eta = II(u, u) and the conjugate radius zeta = II(u, u') along it.

Conics live as homogeneous symmetric 3x3 matrices acting on (X, Y, 1); they
and the semi-axes are formed on the point's scaled M, the
:func:`~monge4.localgeom.unit_scaled` M of
:attr:`~monge4.localgeom.LocalInvariants.scaled`, and taken back by exact
powers of two, so none underflows or overflows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConicRankError, DegenerateIndicatrixError,
                     PoleAtInfinityError, SingularSystemError,
                     UmbilicPointError)
from .localgeom import REL, LocalInvariants, bands

__all__ = [
    "Indicatrix", "Conic", "CanonicalCoefficients", "semi_axes",
    "indicatrix", "eta", "second_form_image", "indicatrix_linear_map",
    "conjugate_radii", "canonical_coefficients", "wintgen_gap",
    "indicatrix_conic", "characteristic_conic", "evolvent_point",
    "pole", "polar", "conic_from_matrix", "conic_asymptote_directions",
    "homogeneous_quadratic_roots", "sample_indicatrix", "sample_characteristic",
]

TAU_DEGENERATE = 1e-10   # |det A| relative to ||A||^2
TAU_UMBILIC = 1e-10


def indicatrix_linear_map(inv: LocalInvariants) -> np.ndarray:
    """Linear part A of the ellipse theta -> H + A w, of any a..g."""
    return np.array([[0.5 * (inv.a - inv.c), inv.b],
                     [0.5 * (inv.e - inv.g), inv.f]])


def semi_axes(m):
    """(s1, s2, s1 - s2) for the semi-axes s1 >= s2 of the ellipse of the
    scaled M ``m``, without cancellation: A = [[p, q], [r, t]] is a similarity
    plus a reflection of norms hypot(p + t, q - r) / 2, hypot(p - t, q + r) / 2,
    so s1 + s2 and s1 - s2 are the larger and smaller hypot; s1 s2 = |kappa|/2."""
    p, q, r, t = 0.5 * (m.a - m.c), m.b, 0.5 * (m.e - m.g), m.f
    h1, h2 = math.hypot(p + t, q - r), math.hypot(p - t, q + r)
    s1 = 0.5 * (h1 + h2)
    s2 = min(0.5 * abs(m.kappa) / s1, s1) if s1 else 0.0
    return s1, s2, min(h1, h2)


def _second_form(inv: LocalInvariants, ux, uy):
    """Both components of the second fundamental form on (ux, uy), for
    floats or elementwise for arrays (the same operations either way)."""
    q1 = inv.a * ux * ux + 2.0 * inv.b * ux * uy + inv.c * uy * uy
    q2 = inv.e * ux * ux + 2.0 * inv.f * ux * uy + inv.g * uy * uy
    return q1, q2


def second_form_image(inv: LocalInvariants, u) -> np.ndarray:
    """Normal-frame image of the unit tangent vector u under the second
    fundamental form."""
    return np.array(_second_form(inv, float(u[0]), float(u[1])))


def eta(inv: LocalInvariants, theta: float) -> np.ndarray:
    """Point of the curvature ellipse for the tangent direction at ``theta``."""
    return second_form_image(inv, (math.cos(theta), math.sin(theta)))


def conjugate_radii(inv: LocalInvariants, theta: float):
    """The radius xi = eta - H and its conjugate radius zeta.

    xi and zeta are images of perpendicular radii of the unit circle, hence
    conjugate radii of the ellipse; d(eta)/d(theta) = 2 zeta.
    """
    c2, s2 = math.cos(2.0 * theta), math.sin(2.0 * theta)
    amat = indicatrix_linear_map(inv)
    return np.array(_radius(amat, c2, s2)), np.array(_radius(amat, -s2, c2))


def _radius(amat: np.ndarray, w1, w2):
    """A (w1, w2), the radius of the ellipse for the point (w1, w2) of the
    unit circle, for floats or elementwise for arrays.  At w = (cos 2t,
    sin 2t) it is xi; at (-sin 2t, cos 2t) it is the conjugate radius
    zeta = II(u, u'), u' = u turned by a right angle, u at angle t."""
    (a11, a12), (a21, a22) = amat
    return a11 * w1 + a12 * w2, a21 * w1 + a22 * w2


@dataclass(frozen=True, eq=False)
class Indicatrix:
    """Curvature ellipse in the (e3, e4) normal frame."""

    center: np.ndarray        # mean curvature vector H
    linear_map: np.ndarray    # A; image of unit circle is the ellipse
    semi_axis_major: float
    semi_axis_minor: float
    degenerate: bool          # det A ~ 0: ellipse collapses to a segment
    scaled: object            # the point's scaled M, LocalInvariants.scaled


def indicatrix(inv: LocalInvariants) -> Indicatrix:
    """The curvature ellipse; degenerate where |kappa| / 2 <= TAU_DEGENERATE ||A||^2."""
    m = inv.scaled
    s1, s2, _ = semi_axes(m)
    return Indicatrix(
        center=inv.H.copy(),
        linear_map=indicatrix_linear_map(inv),
        semi_axis_major=math.ldexp(s1, -m.k),
        semi_axis_minor=math.ldexp(s2, -m.k),
        degenerate=0.5 * abs(m.kappa) <= TAU_DEGENERATE * (s1 * s1 + s2 * s2),
        scaled=m,
    )


class CanonicalCoefficients(NamedTuple):
    """Second-form coefficients in the canonical frame (b = 0, g = e)."""

    a: float
    c: float
    e: float
    f: float

    @property
    def K(self):
        return self.a * self.c + self.e * self.e - self.f * self.f

    @property
    def kappa(self):
        return (self.a - self.c) * self.f

    @property
    def H(self):
        return np.array([0.5 * (self.a + self.c), self.e])


def canonical_coefficients(inv: LocalInvariants) -> CanonicalCoefficients:
    """Coefficients after rotating the tangent and normal frames so that
    b' = 0, e' = g' and (a' - c')/2 >= |f'| >= 0.

    (a' - c')/2 and |f'| are the semi-axes of the curvature ellipse.  Raises
    :class:`UmbilicPointError` at umbilic points, where no canonical frame
    exists.  Both rotations are orientation-preserving, so K, kappa and |H|
    are reproduced exactly by the canonical-frame formulas.  A is a
    similarity at the angle atan2(r - q, p + t) plus a reflection at
    atan2(q + r, p - t) (:func:`semi_axes`): the normal frame turned by their
    mean angle makes A diagonal; at a circle it follows H.
    """
    m = inv.scaled
    s1, s2, gap = semi_axes(m)
    if gap <= TAU_UMBILIC * s1:   # a circle or a point
        hp0, hp1 = math.hypot(m.H3, m.H4), 0.0
        if hp0 <= TAU_UMBILIC * math.sqrt(m.msq):
            raise UmbilicPointError(
                f"canonical frame undefined at umbilic point ({inv.x}, {inv.y})")
    else:
        p, q, r, t = 0.5 * (m.a - m.c), m.b, 0.5 * (m.e - m.g), m.f
        psi = 0.5 * (math.atan2(r - q, p + t) + math.atan2(q + r, p - t))
        co, si = math.cos(psi), math.sin(psi)
        hp0, hp1 = co * m.H3 + si * m.H4, co * m.H4 - si * m.H3
        if hp1 < 0.0 or (hp1 == 0.0 and hp0 < 0.0):
            hp0, hp1 = -hp0, -hp1
    return CanonicalCoefficients(*(math.ldexp(v, -m.k) for v in (
        hp0 + s1, hp0 - s1, hp1, math.copysign(s2, m.kappa))))


def wintgen_gap(inv: LocalInvariants) -> float:
    """|H|^2 - K - |kappa|; non-negative, zero exactly at circle points."""
    return float(inv.H[0] ** 2 + inv.H[1] ** 2 - inv.K - abs(inv.kappa))


# ---------------------------------------------------------------------------
# homogeneous conics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Conic:
    """Symmetric 3x3 matrix on homogeneous normal-plane coordinates (X, Y, 1),
    normalised so the largest-magnitude entry is 1 and the trace of the 2x2
    block is non-negative when nonzero."""

    matrix: np.ndarray
    kind: str  # ellipse | parabola | hyperbola | degenerate


def conic_from_matrix(m, kind: str, k: int = 0) -> Conic:
    """The :class:`Conic` of the symmetric part of ``m``, normalised, with
    the ``kind`` its caller decided.  ``m`` is formed on M times 2^-k and
    the conic of M is D m D, D = diag(2^k, 2^k, 1): its sign is chosen on
    ``m``, and it is formed times a power of two that keeps it finite."""
    m = 0.5 * (np.asarray(m, dtype=float) + np.asarray(m, dtype=float).T)
    nonzero = m != 0.0
    if not nonzero.any():
        raise ConicRankError("zero conic matrix")
    tr = m[0, 0] + m[1, 1]
    if tr < 0.0 or (tr == 0.0 and m.flat[np.argmax(nonzero)] < 0.0):
        m = -m
    e = np.add.outer([k, k, 0], [k, k, 0])
    m = np.ldexp(m, e - int(np.max((np.frexp(m)[1] + e)[nonzero])))
    return Conic(matrix=m / np.max(np.abs(m)), kind=kind)


def indicatrix_conic(ind: Indicatrix) -> Conic:
    """The ellipse itself as a homogeneous conic: eta(theta) satisfies it
    for every theta.  It is (X - H)^T (A A^T)^-1 (X - H) = 1."""
    if ind.degenerate:
        raise DegenerateIndicatrixError(
            "curvature ellipse is degenerate (kappa ~ 0); no full-rank conic")
    m = ind.scaled
    amat = indicatrix_linear_map(m)
    b = np.linalg.inv(amat @ amat.T)
    h = np.array([m.H3, m.H4])
    bh = b @ h
    q = np.empty((3, 3))
    q[:2, :2], q[:2, 2], q[2, :2] = b, -bh, -bh
    q[2, 2] = float(h @ bh) - 1.0
    return conic_from_matrix(q, "ellipse", m.k)


def characteristic_conic(ind: Indicatrix, rel: float = REL) -> Conic:
    """Polar dual of the indicatrix with respect to the unit circle: the
    matrix P of the module docstring.  Its kind is ellipse, parabola or
    hyperbola exactly as the point is elliptic, parabolic or hyperbolic,
    and degenerate where kappa lies in its band: the classifier's
    :func:`~monge4.localgeom.bands` at the tolerance ``rel``.  Its height
    quadratic is rounded once, so no cancellation in it shows."""
    if ind.degenerate:
        raise DegenerateIndicatrixError(
            "curvature ellipse is degenerate (kappa ~ 0); no full-rank conic")
    m = ind.scaled
    hq0 = _dot((m.a, m.c), (-m.b, m.b))
    hq1 = 0.5 * _dot((m.a, m.g), (m.c, m.e), (-2.0 * m.b, m.f))
    hq2 = _dot((m.e, m.g), (-m.f, m.f))
    p = np.array([[hq0, hq1, -m.H3], [hq1, hq2, -m.H4], [-m.H3, -m.H4, 1.0]])
    above, below, flat = bands(m, rel)
    kind = ("degenerate" if flat else "ellipse" if above
            else "hyperbola" if below else "parabola")
    return conic_from_matrix(p, kind, -m.k)


def _dot(*pairs):
    """The sum of x y over ``pairs`` (|x|, |y| < 2^995), rounded once: each
    x y as its rounding and its error by Dekker's exact product on the
    halves of Veltkamp's split (times 2^27 + 1), added by math.fsum."""
    terms = []
    for x, y in pairs:
        p, tx, ty = x * y, 134217729.0 * x, 134217729.0 * y
        xh, yh = tx - (tx - x), ty - (ty - y)
        xl, yl = x - xh, y - yh
        terms += (p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl)
    return math.fsum(terms)


def _cos_sin(angles: list[float]):
    """cos and sin of each angle by ``math``, as :func:`eta` takes them:
    ``np.cos`` can differ from ``math.cos`` in the last bit."""
    return (np.array(list(map(math.cos, angles))),
            np.array(list(map(math.sin, angles))))


def _sweep_trig(angles: list[float]):
    """cos and sin of each angle t, and of 2t."""
    return _cos_sin(angles) + _cos_sin([2.0 * t for t in angles])


@functools.lru_cache(maxsize=8)
def _sweep_table(n: int):
    """:func:`_sweep_trig` of the angles k pi / n, k < n, that
    :func:`sample_indicatrix` and :func:`sample_characteristic` take: once
    per n, read-only."""
    table = _sweep_trig((np.arange(n) * math.pi / n).tolist())
    for column in table:
        column.flags.writeable = False
    return table


def _sweep_points(inv: LocalInvariants, co, si, c2, s2):
    """Points of the characteristic curve for all tangent directions t of
    the sweep at once, from their :func:`_sweep_trig`: for each, the n with
    n . eta = 1 and n . zeta = 0.

    Returns (points, det, singular): the (n, 2) points, nan where the
    tangency system is singular; the determinant eta x zeta of each system;
    and the mask |det| <= 1e-12 of the directions whose point lies at
    infinity.  Each point is the pole (zeta2, -zeta1) / (eta x zeta) of
    the tangent line at eta = II(u, u) of the curvature ellipse, where
    zeta = II(u, u') = A (-sin 2t, cos 2t) is the conjugate radius along
    it: Cramer's rule on the tangency system, elementwise over the sweep."""
    eta1, eta2 = _second_form(inv, co, si)
    zeta1, zeta2 = _radius(indicatrix_linear_map(inv), -s2, c2)
    det = eta1 * zeta2 - eta2 * zeta1
    singular = np.abs(det) <= 1e-12
    points = np.divide(np.column_stack([zeta2, -zeta1]), det[:, None],
                       out=np.full((len(det), 2), np.nan),
                       where=~singular[:, None])
    return points, det, singular


def evolvent_point(inv: LocalInvariants, theta: float) -> np.ndarray:
    """Point of the characteristic curve for the tangent direction theta:
    the unique n with n . eta = 1 and n . zeta = 0 (the sweep at one theta).

    Raises :class:`SingularSystemError` when the tangent to the indicatrix at
    eta(theta) passes through the origin (point at infinity of the curve).
    """
    points, det, singular = _sweep_points(inv, *_sweep_trig([float(theta)]))
    if singular[0]:
        raise SingularSystemError(
            f"tangency system singular at theta={theta!r} "
            f"(det={float(det[0])!r})")
    return points[0]


def polar(point, conic: Conic) -> np.ndarray:
    """Polar line of a normal-plane point: covector (l1, l2, l3) of the line
    l1 X + l2 Y + l3 = 0."""
    if conic.kind == "degenerate":
        raise ConicRankError("polar undefined for a rank-deficient conic")
    p = np.array([float(point[0]), float(point[1]), 1.0])
    return conic.matrix @ p


def pole(line, conic: Conic) -> np.ndarray:
    """Pole of the line (l1, l2, l3); inverse of :func:`polar` up to scale."""
    if conic.kind == "degenerate":
        raise ConicRankError("pole undefined for a rank-deficient conic")
    l = np.asarray(line, dtype=float)
    q = np.linalg.solve(conic.matrix, l)
    if abs(q[2]) <= 1e-12 * float(np.linalg.norm(q)):
        raise PoleAtInfinityError("pole lies at infinity")
    return q[:2] / q[2]


def homogeneous_quadratic_roots(A, B, C, double_root=False):
    """Real root directions (x, y) of A x^2 + B x y + C y^2 = 0.

    Stable variant of the quadratic formula, solved in whichever of x/y or
    y/x keeps the leading coefficient large.  With ``double_root`` the single
    band-collapsed direction is returned.  Directions are not normalised.
    """
    if abs(A) >= abs(C):
        def mk(t):
            return np.array([t, 1.0])
        lead, mid, last = A, B, C
        alt = np.array([1.0, 0.0])
    else:
        def mk(t):
            return np.array([1.0, t])
        lead, mid, last = C, B, A
        alt = np.array([0.0, 1.0])
    if double_root:
        if lead == 0.0:
            return [alt]
        return [mk(-mid / (2.0 * lead))]
    if lead == 0.0:
        # A = C = 0: B x y = 0 gives the two coordinate directions
        if mid == 0.0:
            raise ValueError("identically zero quadratic")
        return [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    disc = mid * mid - 4.0 * lead * last
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    qq = -0.5 * (mid + math.copysign(sq, mid if mid != 0.0 else 1.0))
    if qq == 0.0:
        return [mk(0.0)]
    return [mk(qq / lead), mk(last / qq)]


def conic_asymptote_directions(conic: Conic) -> list[np.ndarray]:
    """Directions of the asymptotes (null directions of the quadratic part);
    two for a hyperbola, none for an ellipse."""
    m = conic.matrix
    roots = homogeneous_quadratic_roots(m[0, 0], 2.0 * m[0, 1], m[1, 1])
    out = []
    for r in roots:
        n = float(np.hypot(r[0], r[1]))
        v = r / n
        if v[0] < 0.0 or (v[0] == 0.0 and v[1] < 0.0):
            v = -v
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# sampling (plots and polygonal oracles)
# ---------------------------------------------------------------------------

def sample_indicatrix(inv: LocalInvariants, n: int = 256) -> np.ndarray:
    """n points eta(k pi / n) of any a..g: one traversal of the ellipse."""
    return np.column_stack(_second_form(inv, *_sweep_table(n)[:2]))


def sample_characteristic(inv: LocalInvariants, n: int = 512,
                          clip_radius: float | None = None):
    """Polylines tracing the characteristic curve by the evolvent sweep.

    Returns a list of (points, closed) pairs: one closed polygon when
    nothing is cut or dropped, otherwise the open runs between cuts and
    drops, from the one after the last of them.  The sweep at
    theta = k pi / n drops the samples at infinity (:func:`_sweep_points`)
    and those beyond ``clip_radius``, and is cut at the points at infinity
    of the curve, the zeros of its determinant eta x zeta.  At
    u = (cos theta, sin theta) that is the directional quadratic
    nq0 u1^2 + nq1 u1 u2 + nq2 u2^2 of the minors of M, so
    kappa/2 + beta cos 2 theta + gamma sin 2 theta with beta = (nq0 - nq2)/2,
    gamma = nq1/2 and (kappa/2)^2 - beta^2 - gamma^2 = Delta: its two, one
    or no zeros per period are the asymptotic directions.  A gap between
    neighbouring samples is cut where eta x zeta has a different sign at
    its ends, and, when Delta <= 0, where the extreme nearest 0, at 2 theta
    the angle of -sign(kappa) (beta, gamma), falls between two ends on
    kappa's side of 0: both zeros may lie there.
    """
    pts, det, drop = _sweep_points(inv, *_sweep_table(n))
    if clip_radius is not None:
        drop |= np.hypot(pts[:, 0], pts[:, 1]) > clip_radius
    # gap k joins sample k to k + 1 mod n: the curve has period pi
    side = np.signbit(det)
    link = (side == np.roll(side, -1)) & ~drop & ~np.roll(drop, -1)
    # the minors of the scaled M, each rounded once
    m = inv.scaled
    nq0 = _dot((m.a, m.f), (-m.b, m.e))
    nq1 = _dot((m.a, m.g), (-m.c, m.e))
    nq2 = _dot((m.b, m.g), (-m.c, m.f))
    kappa, beta2 = nq0 + nq2, nq0 - nq2   # kappa, 2 beta; nq1 = 2 gamma
    if kappa and math.hypot(beta2, nq1) >= abs(kappa):
        s = -math.copysign(1.0, kappa)
        turn = math.atan2(s * nq1, s * beta2) / (2.0 * math.pi) % 1.0
        k = int(n * turn) % n
        link[k] &= side[k] != (kappa < 0.0)
    if link.all():
        return [(pts, True)]
    start = (n - int(np.argmax(~link[::-1]))) % n
    order = np.roll(np.arange(n), -start)
    runs = np.split(order, np.nonzero(~link[order])[0][:-1] + 1)
    return [(pts[run], False) for run in runs if not drop[run[0]]]
