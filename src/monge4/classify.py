"""Point classification, asymptotic directions, binormals.

Classification thresholds are scale-relative: Delta is homogeneous of degree
4 and kappa (and K) of degree 2 in the second-fundamental-form coefficients,
so thresholds scale with ||M||^4 and ||M||^2 where M is the 2x3 coefficient
matrix [[a,b,c],[e,f,g]].  This keeps the classification invariant under a
uniform rescaling of the normal components of the surface.  The bands and
the rank of M are decided on M times an exact power of two that brings its
largest entry into [0.5, 1), so that Delta and its band neither underflow
nor overflow: at a point, the M of
:attr:`~monge4.localgeom.LocalInvariants.scaled`, formed once and read by
every function here.  Asymptotic directions and binormals are the band
roots of the directional and the height quadratic of that M; a binormal is
a degenerate normal of the height functions, paired with the asymptotic
direction in the kernel of its Hessian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conics import homogeneous_quadratic_roots, semi_axes
from .errors import InflectionPointError
from .jets import eval_jet
from .localgeom import (REL, LocalInvariants, SurfaceSpec, bands,
                        coeff_norm, height_quadratic, minors, scaled_jets,
                        unit_scaled)

__all__ = [
    "PointClassification", "classify_point", "asymptotic_directions",
    "binormals", "degenerate_normals", "hessian_of_delta",
    "canonical_direction",
    "class_labels_grid", "class_codes_grid", "LABELS",
    "band_directions", "REL", "RANK_RATIO", "CIRCLE_RATIO",
]

RANK_RATIO = 1e-8    # singular-value ratio for rank M <= 1
CIRCLE_RATIO = 1e-6  # semi-axis agreement for a circle point


@dataclass(frozen=True)
class PointClassification:
    label: ClassLabel   # kind, K band and rank of class_labels_grid
    is_circle: bool
    is_minimal: bool

    @property
    def is_umbilic(self) -> bool:
        return self.is_circle and self.is_minimal


def canonical_direction(v) -> np.ndarray:
    """Unit representative of a line direction: first nonzero component > 0."""
    v = np.asarray(v, dtype=float)
    n = float(np.hypot(v[0], v[1]))
    if n == 0.0:
        raise ValueError("zero vector has no direction")
    v = v / n
    if v[0] < -1e-12 or (abs(v[0]) <= 1e-12 and v[1] < 0.0):
        v = -v
    return v


def classify_point(inv: LocalInvariants, rel: float = REL) -> PointClassification:
    """The label of :func:`class_labels_grid`, the circle flag (semi-axes
    s1 - s2 <= CIRCLE_RATIO s1) and the minimal one (|H| <= rel ||M||)."""
    label = class_labels_grid(inv, rel)
    m = inv.scaled
    s1, _, gap = semi_axes(m)
    is_minimal = math.hypot(m.H3, m.H4) <= rel * float(coeff_norm(m))
    return PointClassification(label, gap <= CIRCLE_RATIO * s1, is_minimal)


def band_directions(quadratic, m, rel: float, what: str) -> list[np.ndarray]:
    """Unit zero directions of the binary quadratic A u^2 + B uv + C v^2,
    ``quadratic`` = (A, B, C) computed from the scaled M ``m`` of a point
    (:attr:`LocalInvariants.scaled`), whose discriminant is a positive multiple of
    -Delta: 2, 1 or 0 of them as Delta lies below, inside or above its
    band, sorted by angle.

    Raises :class:`InflectionPointError`, naming ``what``, when the
    quadratic vanishes identically (within rel ||M||^2).
    """
    if max(abs(v) for v in quadratic) <= rel * m.msq:
        raise InflectionPointError(f"{what} vanishes identically (inflection point)")
    above, below, _ = bands(m, rel)
    if above:
        return []
    roots = homogeneous_quadratic_roots(*quadratic, double_root=not below)
    dirs = [canonical_direction(r) for r in roots]
    dirs.sort(key=lambda d: np.arctan2(d[1], d[0]) % np.pi)
    return dirs


def asymptotic_directions(inv: LocalInvariants,
                          rel: float = REL) -> list[np.ndarray]:
    """Tangent directions (unit vectors in the (e1, e2) frame) on which the
    normal component of the direction field degenerates; 2, 1 or 0 of them as
    Delta < 0, = 0, > 0 within the classification band.

    Raises :class:`InflectionPointError` when the directional quadratic is
    identically zero (every direction asymptotic).
    """
    m = inv.scaled
    return band_directions(minors(m.a, m.b, m.c, m.e, m.f, m.g), m, rel,
                           "directional quadratic")


def shape_operator(m, n1: float, n2: float):
    """(s11, s12, s22): the Hessian S_n = n1 [[a, b], [b, c]]
    + n2 [[e, f], [f, g]] of the height function for the normal
    n1 e3 + n2 e4 on the orthonormal tangent frame, on the M of ``m``."""
    return n1 * m.a + n2 * m.e, n1 * m.b + n2 * m.f, n1 * m.c + n2 * m.g


def degenerate_normals(inv: LocalInvariants,
                       rel: float = REL) -> list[np.ndarray]:
    """Unit normals n (in the (e3, e4) frame) whose height function is
    degenerate, det S_n = 0: 2, 1 or 0 of them as Delta < 0, = 0, > 0
    (band-relative).  Raises :class:`InflectionPointError` where every
    normal is degenerate."""
    m = inv.scaled
    return band_directions(height_quadratic(m.a, m.b, m.c, m.e, m.f, m.g), m,
                           rel, "height-hessian quadratic")


def binormals(inv: LocalInvariants, rel: float = REL) -> list[np.ndarray]:
    """The degenerate normals of the height functions, normal to the
    tangents from the origin to the curvature ellipse: the
    :func:`degenerate_normals`, paired index by index with the
    :func:`asymptotic_directions` u: of two, the n with the smaller
    |S_n u| at the first u.  Raises :class:`InflectionPointError` where
    either quadratic vanishes identically."""
    asym = asymptotic_directions(inv, rel)
    normals = degenerate_normals(inv, rel)
    if len(normals) == 2:   # one Delta band: two asymptotic directions too
        m = inv.scaled
        u1, u2 = asym[0]
        r0, r1 = (math.hypot(s11 * u1 + s12 * u2, s12 * u1 + s22 * u2)
                  for s11, s12, s22 in (shape_operator(m, *n) for n in normals))
        if r1 < r0:
            normals.reverse()
    return normals


class ClassLabel(str):
    """A class label as the grid CSV prints it ("elliptic", ...,
    "inflection_real") that also carries the parts it is made of: the kind,
    the K band ("real", "flat" or "imaginary", decided at every point, not
    only at inflections) and the rank of M."""

    def __new__(cls, kind: str, k_type: str, rank: int):
        label = super().__new__(
            cls, f"inflection_{k_type}" if kind == "inflection" else kind)
        label.kind, label.k_type, label.rank = kind, k_type, rank
        return label


_KINDS = ("elliptic", "hyperbolic", "parabolic", "inflection")
_K_TYPES = ("real", "flat", "imaginary")
# indexed by the codes of class_codes_grid, (kind * 3 + K band) * 3 + rank
LABELS = np.array([ClassLabel(kind, k_type, rank) for kind in _KINDS
                   for k_type in _K_TYPES for rank in range(3)], dtype=object)


def class_labels_grid(fields, rel: float = REL):
    """The taxonomy's band decision, elementwise on the coefficients a..g of
    ``fields`` (floats, 0-d arrays or arrays): a :class:`ClassLabel` for a
    single point, an object array of them otherwise; the labels of
    :data:`LABELS` at the codes of :func:`class_codes_grid`."""
    return LABELS[class_codes_grid(fields, rel)]


def class_codes_grid(fields, rel: float = REL):
    """The label of each point of ``fields`` as its index into
    :data:`LABELS`, a uint8.

    The kind follows the sign of Delta inside a ||M||^4-relative band;
    within the parabolic band the point is an inflection when additionally
    kappa vanishes (||M||^2 band) and M has rank <= 1.  The K band, also
    ||M||^2-relative, gives the type.  The bands and the rank are decided on
    M scaled to a largest entry in [0.5, 1) by :func:`unit_scaled`: for a
    :class:`LocalInvariants`, its :attr:`~LocalInvariants.scaled` M.

    The rank comes from the singular values s1 >= s2 of M: 0 when M = 0,
    1 when s2 <= RANK_RATIO * s1, else 2.  They come in closed form:
    s1^2 + s2^2 = ||M||^2, and by Cauchy-Binet s1^2 s2^2 is the sum of the
    squared 2x2 :func:`~monge4.localgeom.minors` nq0..nq2.
    """
    m = fields.scaled if isinstance(fields, LocalInvariants) else \
        unit_scaled(fields.a, fields.b, fields.c, fields.e, fields.f, fields.g)
    nq0, nq1, nq2 = minors(m.a, m.b, m.c, m.e, m.f, m.g)
    det = nq0 * nq0 + nq1 * nq1 + nq2 * nq2
    s1_sq = 0.5 * (m.msq + np.sqrt(np.maximum(m.msq * m.msq - 4.0 * det, 0.0)))
    # s2^2 = det / s1^2, so s2 <= r s1  <=>  det <= r^2 s1^4
    rank = np.where(m.msq == 0.0, 0,
                    np.where(det <= RANK_RATIO ** 2 * s1_sq * s1_sq, 1, 2))
    above, below, flat = bands(m, rel)
    tau_band = rel * m.msq
    kind = np.where(above, 0, np.where(below, 1,
                                       np.where(flat & (rank <= 1), 3, 2)))
    k_type = np.where(m.K < -tau_band, 0, np.where(m.K > tau_band, 2, 1))
    return ((kind * 3 + k_type) * 3 + rank).astype(np.uint8)


def hessian_of_delta(surface: SurfaceSpec, x: float, y: float) -> np.ndarray:
    """Hessian of the scalar field Delta at (x, y), exact: the second-order
    coefficients of Delta as an order-2 jet of
    :func:`~monge4.localgeom.scaled_jets`, on M scaled by the power of two
    2^k, then times 2^-4k.  Entries that overflow are inf or nan."""
    x, y = float(x), float(y)
    fl, m = scaled_jets(eval_jet(surface.phi, x, y, 4),
                        eval_jet(surface.psi, x, y, 4), 2)
    delta = fl.Delta
    return np.ldexp(np.array([[delta.fxx, delta.fxy], [delta.fxy, delta.fyy]]),
                    -4 * m.k)
