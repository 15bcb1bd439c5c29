"""Point classification, asymptotic directions and binormals.

Classification thresholds are scale-relative: Delta is homogeneous of degree
4 and kappa (and K) of degree 2 in the second-fundamental-form coefficients,
so thresholds scale with ||M||^4 and ||M||^2 where M is the 2x3 coefficient
matrix [[a,b,c],[e,f,g]].  This keeps the classification invariant under a
uniform rescaling of the normal components of the surface.  The bands are
decided on M times an exact power of two that brings its largest entry into
[0.5, 1), so that Delta and its band neither underflow nor overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .conics import (homogeneous_quadratic_roots, indicatrix_linear_map,
                     second_form_image)
from .errors import InflectionPointError
from .localgeom import (LocalInvariants, SurfaceSpec, coeff_norm,
                        invariant_gradients)

__all__ = [
    "ToleranceSet", "PointClassification", "classify_point",
    "asymptotic_directions", "binormals", "hessian_of_delta",
    "canonical_direction", "class_label", "class_labels_grid", "rank_m",
]


@dataclass(frozen=True)
class ToleranceSet:
    rel: float = 1e-8          # scale-relative band for Delta / kappa / K
    rank_ratio: float = 1e-8   # singular-value ratio for rank M <= 1
    circle_ratio: float = 1e-6  # semi-axis agreement for a circle point


DEFAULT_TOL = ToleranceSet()


@dataclass(frozen=True)
class PointClassification:
    kind: str                      # elliptic | hyperbolic | parabolic | inflection
    inflection_type: str | None    # real | flat | imaginary
    is_circle: bool
    is_minimal: bool
    is_umbilic: bool
    rank_m: int
    delta: float
    kappa: float
    K: float
    tolerances: ToleranceSet


def class_label(c: PointClassification) -> str:
    if c.kind == "inflection":
        return f"inflection_{c.inflection_type}"
    return c.kind


def canonical_direction(v, zero=1e-12) -> np.ndarray:
    """Unit representative of a line direction: first nonzero component > 0."""
    v = np.asarray(v, dtype=float)
    n = float(np.hypot(v[0], v[1]))
    if n == 0.0:
        raise ValueError("zero vector has no direction")
    v = v / n
    if v[0] < -zero or (abs(v[0]) <= zero and v[1] < 0.0):
        v = -v
    return v


def rank_m(a, b, c, e, f, g, rank_ratio):
    """Rank of M = [[a, b, c], [e, f, g]] from its singular values s1 >= s2:
    0 when s1 <= 1e-14, 1 when s2 <= rank_ratio * s1, else 2.

    The singular values come in closed form: s1^2 + s2^2 = ||M||^2, and by
    Cauchy-Binet s1^2 s2^2 = det(M M^T) is the sum of the squared 2x2
    minors.  Both are taken on M divided by its largest entry, so no square
    overflows or underflows.  Works elementwise on floats and arrays.
    """
    big = np.maximum(np.maximum(np.maximum(abs(a), abs(b)), abs(c)),
                     np.maximum(np.maximum(abs(e), abs(f)), abs(g)))
    scale = np.where(big > 0.0, big, 1.0)
    a, b, c, e, f, g = (v / scale for v in (a, b, c, e, f, g))
    norm_sq = a * a + b * b + c * c + e * e + f * f + g * g
    det = (a * f - b * e) ** 2 + (a * g - c * e) ** 2 + (b * g - c * f) ** 2
    s1_sq = 0.5 * (norm_sq + np.sqrt(np.maximum(norm_sq * norm_sq - 4.0 * det, 0.0)))
    # s2^2 = det / s1^2, so s2 <= r s1  <=>  det <= r^2 s1^4
    return np.where(big * np.sqrt(s1_sq) <= 1e-14, 0,
                    np.where(det <= rank_ratio ** 2 * s1_sq * s1_sq, 1, 2))


def _unit_scaled(a, b, c, e, f, g):
    """a..g times 2^-k, where 2^k is the power of two just above the largest
    |entry|, with msq = ||M||^2, K, kappa and Delta recomputed from them by
    the formulas of :func:`frame_fields`.

    Multiplying by a power of two is exact in the normal range, so every
    rounding commutes with the scaling and the sign of each invariant
    against its band is the one of the unscaled values; only underflow and
    overflow go away.  Works elementwise on floats and arrays.
    """
    big = np.maximum(np.maximum(np.maximum(abs(a), abs(b)), abs(c)),
                     np.maximum(np.maximum(abs(e), abs(f)), abs(g)))
    # ldexp of each entry, not a product with 2^-k: for a subnormal largest
    # entry 2^-k itself overflows
    if np.ndim(big):
        k, ldexp = -np.frexp(big)[1], np.ldexp
    else:
        k, ldexp = -math.frexp(big)[1], math.ldexp
    a, b, c, e, f, g = (ldexp(v, k) for v in (a, b, c, e, f, g))
    m = SimpleNamespace(a=a, b=b, c=c, e=e, f=f, g=g)
    msq = (float(coeff_norm(m)) if np.ndim(big) == 0 else coeff_norm(m)) ** 2
    return SimpleNamespace(
        msq=msq,
        K=(a * c - b * b) + (e * g - f * f),
        kappa=(a - c) * f - (e - g) * b,
        Delta=(a * c - b * b) * (e * g - f * f)
        - 0.25 * (a * g + c * e - 2.0 * b * f) ** 2)


def classify_point(inv: LocalInvariants,
                   tol: ToleranceSet = DEFAULT_TOL) -> PointClassification:
    """Taxonomy tag for the point of ``inv``.

    The kind follows the sign of Delta inside a ||M||^4-relative band; within
    the parabolic band the point is an inflection when additionally kappa
    vanishes (||M||^2 band) and the coefficient matrix has rank <= 1.  The
    bands are decided on M scaled to a largest entry in [0.5, 1).
    """
    m = _unit_scaled(inv.a, inv.b, inv.c, inv.e, inv.f, inv.g)
    tau_delta = tol.rel * m.msq * m.msq
    tau_kappa = tol.rel * m.msq
    tau_k = tol.rel * m.msq

    rank = int(rank_m(inv.a, inv.b, inv.c, inv.e, inv.f, inv.g, tol.rank_ratio))

    if m.Delta > tau_delta:
        kind = "elliptic"
    elif m.Delta < -tau_delta:
        kind = "hyperbolic"
    elif abs(m.kappa) <= tau_kappa and rank <= 1:
        kind = "inflection"
    else:
        kind = "parabolic"

    itype = None
    if kind == "inflection":
        if m.K < -tau_k:
            itype = "real"
        elif m.K > tau_k:
            itype = "imaginary"
        else:
            itype = "flat"

    axes = np.linalg.svd(indicatrix_linear_map(inv), compute_uv=False)
    is_circle = axes[0] <= 1e-14 or (axes[0] - axes[1]) <= tol.circle_ratio * axes[0]
    is_minimal = float(np.hypot(inv.H[0], inv.H[1])) <= tol.rel * inv.coeff_norm
    return PointClassification(
        kind=kind, inflection_type=itype,
        is_circle=bool(is_circle), is_minimal=bool(is_minimal),
        is_umbilic=bool(is_circle and is_minimal),
        rank_m=rank, delta=inv.Delta, kappa=inv.kappa, K=inv.K,
        tolerances=tol,
    )


def asymptotic_directions(inv: LocalInvariants,
                          tol: ToleranceSet = DEFAULT_TOL) -> list[np.ndarray]:
    """Tangent directions (unit vectors in the (e1, e2) frame) on which the
    normal component of the direction field degenerates; 2, 1 or 0 of them as
    Delta < 0, = 0, > 0 within the classification band.

    Raises :class:`InflectionPointError` when the directional quadratic is
    identically zero (every direction asymptotic).
    """
    msq = inv.coeff_norm ** 2
    if max(abs(inv.nq0), abs(inv.nq1), abs(inv.nq2)) <= tol.rel * msq:
        raise InflectionPointError(
            "directional quadratic vanishes identically (inflection point)")
    tau_delta = tol.rel * msq * msq
    if inv.Delta > tau_delta:
        return []
    double = abs(inv.Delta) <= tau_delta
    roots = homogeneous_quadratic_roots(inv.nq0, inv.nq1, inv.nq2, double_root=double)
    dirs = [canonical_direction(r) for r in roots]
    dirs.sort(key=lambda d: np.arctan2(d[1], d[0]) % np.pi)
    return dirs


def binormals(inv: LocalInvariants,
              tol: ToleranceSet = DEFAULT_TOL) -> list[np.ndarray]:
    """Unit normal directions (in the (e3, e4) frame) paired index-by-index
    with :func:`asymptotic_directions`.

    For an asymptotic direction u the image of the second fundamental form
    spans the line tangent to the curvature ellipse through the origin; the
    binormal is the normal direction perpendicular to that line.  When the
    image itself vanishes (parabolic point, origin on the ellipse) the
    tangent line is spanned by the theta-derivative of the ellipse
    parametrisation instead.
    """
    out = []
    span_floor = tol.rel * inv.coeff_norm
    amat = indicatrix_linear_map(inv)
    for u in asymptotic_directions(inv, tol):
        span = second_form_image(inv, u)
        if float(np.hypot(span[0], span[1])) <= span_floor:
            # origin sits on the ellipse; use the curve tangent there
            c2 = u[0] * u[0] - u[1] * u[1]
            s2 = 2.0 * u[0] * u[1]
            span = amat @ np.array([-s2, c2])
        if float(np.hypot(span[0], span[1])) <= span_floor:
            raise InflectionPointError(
                "tangent span degenerate in every direction (inflection point)")
        out.append(canonical_direction(np.array([-span[1], span[0]])))
    return out


def class_labels_grid(fields, tol: ToleranceSet = DEFAULT_TOL) -> np.ndarray:
    """Vectorised class labels over the arrays of an invariant grid.

    Same decision procedure as :func:`classify_point`; inflection labels
    carry their type ("inflection_real" etc.).
    """
    m = _unit_scaled(fields.a, fields.b, fields.c, fields.e, fields.f, fields.g)
    delta, kappa, kg, msq = m.Delta, m.kappa, m.K, m.msq
    tau_delta = tol.rel * msq * msq
    tau_band = tol.rel * msq

    rank = rank_m(fields.a, fields.b, fields.c, fields.e, fields.f, fields.g,
                  tol.rank_ratio)

    labels = np.full(delta.shape, "parabolic", dtype=object)
    labels[delta > tau_delta] = "elliptic"
    labels[delta < -tau_delta] = "hyperbolic"
    infl = (np.abs(delta) <= tau_delta) & (np.abs(kappa) <= tau_band) & (rank <= 1)
    labels[infl & (kg < -tau_band)] = "inflection_real"
    labels[infl & (kg > tau_band)] = "inflection_imaginary"
    labels[infl & (np.abs(kg) <= tau_band)] = "inflection_flat"
    return labels


def hessian_of_delta(surface: SurfaceSpec, x: float, y: float,
                     step: float = 1e-4) -> np.ndarray:
    """Hessian of the scalar field Delta at (x, y).

    Central differences of the exact Delta-gradient (the gradient is exact
    because order-3 jets give exact first derivatives of the coefficients),
    with one Richardson extrapolation; keeps the jet core at order 3.
    """
    def grad(px, py):
        return invariant_gradients(surface, px, py).grad_delta

    h = step
    cols = []
    for dx, dy in ((1.0, 0.0), (0.0, 1.0)):
        # gradients that overflow give inf or nan entries, without a warning
        with np.errstate(all="ignore"):
            d_h = (grad(x + h * dx, y + h * dy)
                   - grad(x - h * dx, y - h * dy)) / (2 * h)
            d_h2 = (grad(x + 0.5 * h * dx, y + 0.5 * h * dy)
                    - grad(x - 0.5 * h * dx, y - 0.5 * h * dy)) / h
            cols.append((4.0 * d_h2 - d_h) / 3.0)
    hess = np.column_stack(cols)
    return 0.5 * (hess + hess.T)
