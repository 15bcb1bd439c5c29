"""The curvature ellipse, the characteristic conic, and the projective
polarity connecting them.

The curvature ellipse (indicatrix) at a point is the image of the unit
tangent circle under the second fundamental form: theta -> H + A w(2 theta)
in the orthonormal normal frame, where H is the mean-curvature vector and A
the 2x2 linear map built from the coefficients.  The characteristic conic is
the locus of intersections of consecutive normal planes; algebraically it is
the polar conjugate of the indicatrix with respect to the unit circle in the
normal plane, i.e. U adj(Q) U with U = diag(1, 1, -1): each of its points
is the pole of a tangent line of the ellipse.  The sweep that traces it
takes that pole in closed form, from the point eta = II(u, u) of the
ellipse and the conjugate radius zeta = II(u, u') along its tangent.

Conics live as homogeneous symmetric 3x3 matrices acting on (X, Y, 1).
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
from .localgeom import LocalInvariants

__all__ = [
    "Indicatrix", "Conic", "CanonicalCoefficients",
    "indicatrix", "eta", "second_form_image", "indicatrix_linear_map",
    "conjugate_radii", "canonical_coefficients", "wintgen_gap",
    "indicatrix_conic", "characteristic_conic", "evolvent_point",
    "pole", "polar", "conic_from_matrix", "conic_asymptote_directions",
    "homogeneous_quadratic_roots", "sample_indicatrix", "sample_characteristic",
]

TAU_DEGENERATE = 1e-10   # |det A| relative to ||A||^2
TAU_UMBILIC = 1e-10
TAU_KIND = 1e-9          # 2x2 minor band (relative to ||m||^2)
TAU_FULL_RANK = 1e-10    # 3x3 determinant band (relative to ||m||^3)


def indicatrix_linear_map(inv: LocalInvariants) -> np.ndarray:
    """Linear part A of the ellipse parametrisation theta -> H + A w."""
    return np.array([[0.5 * (inv.a - inv.c), inv.b],
                     [0.5 * (inv.e - inv.g), inv.f]])


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


def indicatrix(inv: LocalInvariants) -> Indicatrix:
    amat = indicatrix_linear_map(inv)
    sv = np.linalg.svd(amat, compute_uv=False)
    # LU on a subnormal pivot sets a floating-point flag that numpy would
    # report as a warning; the determinant is still 0 or tiny
    with np.errstate(divide="ignore", invalid="ignore"):
        det = float(np.linalg.det(amat))
    fro2 = float(np.sum(amat * amat))
    return Indicatrix(
        center=inv.H.copy(),
        linear_map=amat,
        semi_axis_major=float(sv[0]),
        semi_axis_minor=float(sv[1]),
        degenerate=bool(abs(det) <= TAU_DEGENERATE * fro2),
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
    are reproduced exactly by the canonical-frame formulas.
    """
    amat = indicatrix_linear_map(inv)
    hvec = inv.H
    hnorm = float(np.hypot(hvec[0], hvec[1]))
    scale = inv.coeff_norm
    sv = np.linalg.svd(amat, compute_uv=False)
    is_circlelike = sv[0] <= 1e-14 or (sv[0] - sv[1]) <= TAU_UMBILIC * sv[0]
    if is_circlelike and hnorm <= TAU_UMBILIC * scale:
        raise UmbilicPointError(
            f"canonical frame undefined at umbilic point ({inv.x}, {inv.y})")

    if is_circlelike:
        # circle (or point) not centred at origin: normal frame aligned with
        # the centre direction, tangent rotation diagonalises the rest
        u = np.array([[hvec[0], -hvec[1]], [hvec[1], hvec[0]]]) / hnorm
        d = u.T @ amat
        r = float(sv[0])
        if r <= 1e-14:
            hp = u.T @ hvec
            return CanonicalCoefficients(float(hp[0]), float(hp[0]), float(hp[1]), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):  # as in indicatrix
            sign = 1.0 if np.linalg.det(d) >= 0.0 else -1.0
        hp = u.T @ hvec
        return CanonicalCoefficients(float(hp[0] + r), float(hp[0] - r),
                                     float(hp[1]), float(sign * r))

    u, s, vt = np.linalg.svd(amat)
    s2 = float(s[1])
    if np.linalg.det(u) < 0.0:
        u = u @ np.diag([1.0, -1.0])
        s2 = -s2
    if np.linalg.det(vt) < 0.0:
        vt = np.diag([1.0, -1.0]) @ vt
        s2 = -s2
    hp = u.T @ hvec
    if hp[1] < 0.0 or (hp[1] == 0.0 and hp[0] < 0.0):
        hp = -hp
    return CanonicalCoefficients(float(hp[0] + s[0]), float(hp[0] - s[0]),
                                 float(hp[1]), s2)


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


def conic_from_matrix(m) -> Conic:
    m = 0.5 * (np.asarray(m, dtype=float) + np.asarray(m, dtype=float).T)
    peak = float(np.max(np.abs(m)))
    if peak == 0.0:
        raise ConicRankError("zero conic matrix")
    m = m / peak
    tr = m[0, 0] + m[1, 1]
    if tr < 0.0:
        m = -m
    elif tr == 0.0:
        flat = m.ravel()
        lead = flat[np.argmax(np.abs(flat) > 0.0)]
        if lead < 0.0:
            m = -m
    fro = float(np.linalg.norm(m))
    with np.errstate(divide="ignore", invalid="ignore"):  # as in indicatrix
        det3 = float(np.linalg.det(m))
    det2 = float(m[0, 0] * m[1, 1] - m[0, 1] ** 2)
    if abs(det3) <= TAU_FULL_RANK * fro ** 3:
        kind = "degenerate"
    elif det2 > TAU_KIND * fro ** 2:
        kind = "ellipse"
    elif det2 < -TAU_KIND * fro ** 2:
        kind = "hyperbola"
    else:
        kind = "parabola"
    return Conic(matrix=m, kind=kind)


def _adjugate3(m: np.ndarray) -> np.ndarray:
    """adj(m): the cofactors of m's rows r0, r1, r2 are the cross products
    r1 x r2, r2 x r0 and r0 x r1, and adj(m) is their transpose."""
    return np.array([np.cross(m[1], m[2]), np.cross(m[2], m[0]),
                     np.cross(m[0], m[1])]).T


def _indicatrix_quadric(ind: Indicatrix) -> np.ndarray:
    if ind.degenerate:
        raise DegenerateIndicatrixError(
            "curvature ellipse is degenerate (kappa ~ 0); no full-rank conic")
    amat = ind.linear_map
    b = np.linalg.inv(amat @ amat.T)
    h = ind.center
    bh = b @ h
    q = np.empty((3, 3))
    q[:2, :2] = b
    q[:2, 2] = -bh
    q[2, :2] = -bh
    q[2, 2] = float(h @ bh) - 1.0
    return q


def indicatrix_conic(ind: Indicatrix) -> Conic:
    """The ellipse itself as a homogeneous conic: eta(theta) satisfies it
    for every theta."""
    return conic_from_matrix(_indicatrix_quadric(ind))


def characteristic_conic(ind: Indicatrix) -> Conic:
    """Polar conjugate of the indicatrix with respect to the unit circle.

    With U = diag(1, 1, -1) the locus of poles of tangents to Q is
    U adj(Q) U; its kind is ellipse / parabola / hyperbola exactly as the
    point is elliptic / parabolic / hyperbolic.
    """
    q = _indicatrix_quadric(ind)
    adj = _adjugate3(q)
    u = np.diag([1.0, 1.0, -1.0])
    return conic_from_matrix(u @ adj @ u)


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
    :func:`sample_characteristic` takes: once per n, read-only."""
    table = _sweep_trig((np.arange(n) * math.pi / n).tolist())
    for column in table:
        column.flags.writeable = False
    return table


def _evolvent_sweep(inv: LocalInvariants, thetas):
    """Points of the characteristic curve for all tangent directions
    ``thetas`` at once: for each, the n with n . eta = 1 and n . zeta = 0.

    Returns (points, det, singular): the (n, 2) points, nan where the
    tangency system is singular; the determinant eta x zeta of each system;
    and the mask |det| <= 1e-12 of the directions whose point lies at
    infinity.
    """
    return _sweep_points(inv, *_sweep_trig(
        np.asarray(thetas, dtype=float).tolist()))


def _sweep_points(inv: LocalInvariants, co, si, c2, s2):
    """:func:`_evolvent_sweep` from the :func:`_sweep_trig` of its angles.

    Each point is the pole (zeta2, -zeta1) / (eta x zeta) of the tangent
    line at eta = II(u, u) of the curvature ellipse, where zeta = II(u, u')
    = A (-sin 2t, cos 2t) is the conjugate radius along it: Cramer's rule
    on the tangency system, elementwise over the sweep."""
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
    points, det, singular = _evolvent_sweep(inv, [theta])
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
    """n points eta(k pi / n): one full traversal of the ellipse."""
    thetas = np.arange(n) * (math.pi / n)
    return np.column_stack(_second_form(inv, np.cos(thetas), np.sin(thetas)))


def _median(values: np.ndarray):
    """``np.median`` of a 1-D array, bit for bit, without its NaN check,
    which imports numpy.ma (1.25 MB); np.sort puts NaN last, and the mean
    of the middle values starts from 0.0 as numpy's sum does."""
    s = np.sort(values)
    m = len(s) // 2
    if np.isnan(s[-1]):
        return s[-1]
    return 0.0 + s[m] if len(s) % 2 else (0.0 + s[m - 1] + s[m]) / 2.0


def _runs(mask: np.ndarray, start: int) -> list[np.ndarray]:
    """Maximal runs of True in ``mask``, read circularly from index
    ``start``, as index arrays in that order; a run ends at start - 1."""
    order = np.roll(np.arange(len(mask)), -start)
    edges = np.diff(np.concatenate(([0], mask[order].astype(np.int8), [0])))
    return [order[a:b] for a, b in zip(np.nonzero(edges == 1)[0],
                                       np.nonzero(edges == -1)[0])]


def sample_characteristic(inv: LocalInvariants, n: int = 512,
                          clip_radius: float | None = None):
    """Polylines tracing the characteristic curve by the evolvent sweep.

    Returns a list of (points, closed) pairs; the sweep at theta = k pi / n
    splits where the tangency system is singular or the point exceeds
    ``clip_radius``.
    """
    pts, _, invalid = _sweep_points(inv, *_sweep_table(n))
    if clip_radius is not None:
        invalid |= np.hypot(pts[:, 0], pts[:, 1]) > clip_radius
    if invalid.all():
        return []
    fully_valid = not invalid.any()
    # maximal circular runs of valid samples (curve has period pi); a run
    # through the seam, which starts after the last invalid sample, first
    start = 0 if invalid[0] else n - int(np.argmax(invalid[::-1]))
    out = []
    for run in _runs(~invalid, start):
        p = pts[run]
        if len(p) < 3:
            out.append((p, False))
            continue
        # a point at infinity need not land on a sample: also split where
        # consecutive points jump far beyond the typical step
        steps = np.hypot(np.diff(p[:, 0]), np.diff(p[:, 1]))
        if fully_valid:
            steps = np.append(steps, float(np.hypot(*(p[0] - p[-1]))))
        linked = ~(steps > 30.0 * (_median(steps) + 1e-300))
        if linked.all():
            out.append((p, fully_valid))
            continue
        # pieces of two or more points; on a closed curve the piece through
        # the seam comes first
        start = np.nonzero(~linked)[0][-1] + 1 if fully_valid else 0
        out += [(p[np.append(r, r[-1] + 1) % len(p)], False)
                for r in _runs(linked, start)]
    return out
