"""Pointwise second-order invariants of a surface (x, y, phi, psi) in R^4.

Everything is computed in the frame adapted to the graph parametrisation:
tangent vectors T1 = (1,0,phi_x,psi_x), T2 = (0,1,phi_y,psi_y) and normal
vectors N1 = (-phi_x,-phi_y,1,0), N2 = (-psi_x,-psi_y,0,1), orthonormalised
in that order.  The second-fundamental-form coefficients (a,b,c) and (e,f,g)
are taken along the orthonormal normal frame (e3, e4).

Redundant formulas are kept as live self-checks: the Gaussian curvature K
and the normal curvature kappa each have an independent closed form in the
raw derivatives of phi and psi, the Brioschi formula gives a third route to
K through the metric alone, and the resultant determinant re-derives Delta.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import expr as ex
from .errors import CrossCheckError, DegenerateMetricError, EvaluationError
from .jets import Dual2, Jet3, eval_jet3, generic_sqrt

__all__ = [
    "SurfaceSpec", "LocalInvariants", "surface_from_strings",
    "local_invariants", "brioschi_curvature", "delta_resultant",
    "frame_fields", "invariant_grid", "invariant_gradients", "coeff_norm",
]

log = logging.getLogger(__name__)

# W >= 1 holds identically for graph parametrisations, so anything at or
# below this threshold is numerical breakdown rather than geometry.
EPS_METRIC = 1e-12

# relative agreement required between redundant formula paths
REL_K = 1e-9
REL_KAPPA = 1e-9
REL_DELTA = 1e-9
REL_GRAM = 1e-10
REL_BRIOSCHI = 1e-8

_OVERFLOW = "non-finite invariants (overflow)"


@dataclass(frozen=True)
class SurfaceSpec:
    """Two parsed graph components plus the rectangular parameter domain."""

    phi: ex.Expr
    psi: ex.Expr
    domain: tuple[float, float, float, float]  # xmin, xmax, ymin, ymax

    def __post_init__(self):
        xmin, xmax, ymin, ymax = self.domain
        if not (xmin < xmax and ymin < ymax):
            raise ValueError(f"empty parameter domain {self.domain!r}")

    def contains(self, x: float, y: float) -> bool:
        xmin, xmax, ymin, ymax = self.domain
        return xmin <= x <= xmax and ymin <= y <= ymax


def surface_from_strings(phi: str, psi: str,
                         domain=(-1.0, 1.0, -1.0, 1.0)) -> SurfaceSpec:
    return SurfaceSpec(ex.parse_expression(phi), ex.parse_expression(psi),
                       tuple(float(v) for v in domain))


@dataclass(frozen=True)
class LocalInvariants:
    """All pointwise scalars of the second-order theory at one point.

    ``K``, ``kappa`` and ``Delta`` hold the coefficient-formula values; the
    closed-form counterparts agreed with them to the module tolerances when
    this object was built.  ``H`` is the mean-curvature vector in the
    orthonormal normal frame (e3, e4).
    """

    x: float
    y: float
    E: float
    F: float
    G: float
    W: float
    Ehat: float
    Fhat: float
    Ghat: float
    a: float
    b: float
    c: float
    e: float
    f: float
    g: float
    K: float
    kappa: float
    H: np.ndarray
    Delta: float
    nq0: float
    nq1: float
    nq2: float
    jet_phi: Jet3
    jet_psi: Jet3

    @property
    def coeff_matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b, self.c], [self.e, self.f, self.g]])

    @property
    def coeff_norm(self) -> float:
        return float(np.sqrt(self.a ** 2 + self.b ** 2 + self.c ** 2
                             + self.e ** 2 + self.f ** 2 + self.g ** 2))


def coeff_norm(fields) -> object:
    """Frobenius norm of the 2x3 coefficient matrix (works on arrays)."""
    return np.sqrt(fields.a ** 2 + fields.b ** 2 + fields.c ** 2
                   + fields.e ** 2 + fields.f ** 2 + fields.g ** 2)


def frame_fields(phi_d, psi_d, *, check_metric=True):
    """Derived fields from first/second derivatives of phi and psi.

    ``phi_d``/``psi_d`` are (fx, fy, fxx, fxy, fyy) tuples whose entries may
    be floats, numpy arrays or :class:`Dual2` values; the formulas are generic
    in the arithmetic.  Returns a namespace with the metric, the hat metric,
    the coefficients a..g, both routes to K and kappa, Delta (expanded form)
    and the coefficients of the directional quadraticnq.
    """
    px, py, pxx, pxy, pyy = phi_d
    qx, qy, qxx, qxy, qyy = psi_d

    E = px * px + qx * qx + 1.0
    F = px * py + qx * qy
    G = py * py + qy * qy + 1.0
    W = E * G - F * F
    Eh = px * px + py * py + 1.0
    Fh = px * qx + py * qy
    Gh = qx * qx + qy * qy + 1.0

    if check_metric:
        wval = W.val if isinstance(W, Dual2) else W
        if np.any(np.asarray(wval) <= EPS_METRIC):
            bad = int(np.argmax(np.asarray(wval).ravel() <= EPS_METRIC))
            raise DegenerateMetricError(None, float(np.asarray(wval).ravel()[bad]))

    sEh = generic_sqrt(Eh)
    sW = generic_sqrt(W)

    a = pxx / (E * sEh)
    b = (E * pxy - F * pxx) / (E * sW * sEh)
    c = (E * E * pyy - 2.0 * E * F * pxy + F * F * pxx) / (E * W * sEh)
    P = Eh * qxx - Fh * pxx
    Q = Eh * qxy - Fh * pxy
    R = Eh * qyy - Fh * pyy
    e = P / (E * sEh * sW)
    f = (E * Q - F * P) / (E * W * sEh)
    g = (E * E * R - 2.0 * E * F * Q + F * F * P) / (E * W * sW * sEh)

    K = (a * c - b * b) + (e * g - f * f)
    H_phi = pxx * pyy - pxy * pxy
    H_psi = qxx * qyy - qxy * qxy
    Qmix = pxx * qyy + pyy * qxx - 2.0 * pxy * qxy
    K_closed = (Eh * H_psi - Fh * Qmix + Gh * H_phi) / (W * W)

    kappa = (a - c) * f - (e - g) * b
    L = pxy * qyy - pyy * qxy
    M = pxx * qyy - pyy * qxx
    N = pxx * qxy - pxy * qxx
    kappa_closed = (E * L - F * M + G * N) / (W * W)

    nq0 = a * f - b * e
    nq1 = a * g - c * e
    nq2 = b * g - c * f
    Delta = (a * c - b * b) * (e * g - f * f) \
        - 0.25 * (a * g + c * e - 2.0 * b * f) ** 2

    return SimpleNamespace(E=E, F=F, G=G, W=W, Eh=Eh, Fh=Fh, Gh=Gh,
                           a=a, b=b, c=c, e=e, f=f, g=g,
                           K=K, K_closed=K_closed,
                           kappa=kappa, kappa_closed=kappa_closed,
                           Delta=Delta, nq0=nq0, nq1=nq1, nq2=nq2)


def _jet_first_second(j: Jet3):
    return (j.fx, j.fy, j.fxx, j.fxy, j.fyy)


def delta_resultant(a, b, c, e, f, g):
    """Quarter of the 4x4 resultant determinant of the coefficient quadratics.

    Accepts scalars or equally-shaped arrays (stacked determinants).
    """
    a, b, c, e, f, g = np.broadcast_arrays(a, b, c, e, f, g)
    z = np.zeros_like(np.asarray(a, dtype=float))
    m = np.stack([
        np.stack([a, 2.0 * b, c, z], axis=-1),
        np.stack([e, 2.0 * f, g, z], axis=-1),
        np.stack([z, a, 2.0 * b, c], axis=-1),
        np.stack([z, e, 2.0 * f, g], axis=-1),
    ], axis=-2)
    # LU on a subnormal pivot sets a floating-point flag that numpy would
    # report as a warning; the determinant is still 0 or tiny
    with np.errstate(divide="ignore", invalid="ignore"):
        det = np.linalg.det(m)
    return 0.25 * (float(det) if det.ndim == 0 else det)


def _check_pair(name, u, v, rel, scale, strict, where=None):
    """Require |u - v| <= rel * max(|u|, |v|, scale) (elementwise)."""
    diff = np.abs(u - v)
    bound = rel * np.maximum(np.maximum(np.abs(u), np.abs(v)), scale)
    bad = diff > bound
    if np.any(bad):
        idx = int(np.argmax(np.asarray(bad).ravel()))
        du = np.asarray(u).ravel()[idx]
        dv = np.asarray(v).ravel()[idx]
        msg = f"{name} cross-check failed: {du!r} vs {dv!r}"
        if where is not None:
            msg += f" at point ({where[0].ravel()[idx]!r}, {where[1].ravel()[idx]!r})"
        if strict:
            raise CrossCheckError(msg)
        log.warning(msg)


def _run_cross_checks(fl, delta_det, strict, where=None):
    msq = coeff_norm(fl) ** 2
    _check_pair("K", fl.K, fl.K_closed, REL_K, msq, strict, where)
    _check_pair("kappa", fl.kappa, fl.kappa_closed, REL_KAPPA, msq, strict, where)
    _check_pair("Delta", fl.Delta, delta_det, REL_DELTA, msq * msq, strict, where)
    _check_pair("EhGh-Fh^2=W", fl.Eh * fl.Gh - fl.Fh ** 2, fl.W,
                REL_GRAM, np.abs(fl.W), strict, where)


def _finite_frame_fields(jphi: Jet3, jpsi: Jet3, x, y):
    """:func:`frame_fields` of two jets, refusing overflow: raises
    :class:`EvaluationError` at the first point where a coefficient, K, kappa,
    Delta, a frame denominator or ||M||^4 is not finite."""
    try:
        with np.errstate(all="ignore"):
            fl = frame_fields(_jet_first_second(jphi), _jet_first_second(jpsi))
    except OverflowError:  # Python floats raise where arrays give inf
        raise EvaluationError(_OVERFLOW, (float(x), float(y))) from None
    bad = ~np.isfinite(fl.Delta)
    for name in ("a", "b", "c", "e", "f", "g", "K", "kappa"):
        bad = bad | ~np.isfinite(getattr(fl, name))
    # a denominator that overflows sends its coefficient to 0, not to inf;
    # these two bound every denominator of frame_fields.  ||M||^4 scales the
    # Delta bands of the cross-checks and of the classifier.
    with np.errstate(over="ignore"):
        msq = fl.a * fl.a + fl.b * fl.b + fl.c * fl.c \
            + fl.e * fl.e + fl.f * fl.f + fl.g * fl.g
        bad = bad | ~np.isfinite(fl.W * fl.W) \
            | ~np.isfinite(fl.E * fl.W * np.sqrt(fl.W) * np.sqrt(fl.Eh)) \
            | ~np.isfinite(msq * msq)
    if np.any(bad):
        bx, by = np.broadcast_arrays(x, y)
        idx = int(np.argmax(np.broadcast_to(bad, bx.shape).ravel()))
        raise EvaluationError(_OVERFLOW,
                              (float(bx.ravel()[idx]), float(by.ravel()[idx])))
    return fl


def local_invariants(surface: SurfaceSpec, x: float, y: float, *,
                     strict: bool = True) -> LocalInvariants:
    """All pointwise invariants at (x, y); both formula routes reconciled.

    With ``strict`` (default) a disagreement between redundant formulas is a
    :class:`CrossCheckError`; otherwise it is logged and the coefficient-path
    values are returned.  An invariant that overflows is an
    :class:`EvaluationError`.
    """
    jphi = eval_jet3(surface.phi, x, y)
    jpsi = eval_jet3(surface.psi, x, y)
    try:
        fl = _finite_frame_fields(jphi, jpsi, x, y)
    except DegenerateMetricError as err:
        raise DegenerateMetricError((x, y), err.w) from None
    delta_det = delta_resultant(fl.a, fl.b, fl.c, fl.e, fl.f, fl.g)
    _run_cross_checks(fl, delta_det, strict)
    return LocalInvariants(
        x=float(x), y=float(y),
        E=fl.E, F=fl.F, G=fl.G, W=fl.W,
        Ehat=fl.Eh, Fhat=fl.Fh, Ghat=fl.Gh,
        a=fl.a, b=fl.b, c=fl.c, e=fl.e, f=fl.f, g=fl.g,
        K=fl.K, kappa=fl.kappa,
        H=np.array([0.5 * (fl.a + fl.c), 0.5 * (fl.e + fl.g)]),
        Delta=fl.Delta, nq0=fl.nq0, nq1=fl.nq1, nq2=fl.nq2,
        jet_phi=jphi, jet_psi=jpsi,
    )


def invariant_grid(surface: SurfaceSpec, x, y, *, strict: bool = True,
                   cross_check: bool = True) -> SimpleNamespace:
    """Vectorised invariants over arrays of points (shapes must broadcast).

    Returns the namespace of :func:`frame_fields` with arrays, plus the jets.
    An invariant that overflows at any point is an :class:`EvaluationError`
    carrying the first such point.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    jphi = eval_jet3(surface.phi, x, y)
    jpsi = eval_jet3(surface.psi, x, y)
    fl = _finite_frame_fields(jphi, jpsi, x, y)
    if cross_check:
        delta_det = delta_resultant(fl.a, fl.b, fl.c, fl.e, fl.f, fl.g)
        bx, by = np.broadcast_arrays(x, y)
        _run_cross_checks(fl, delta_det, strict, where=(bx, by))
    fl.jet_phi = jphi
    fl.jet_psi = jpsi
    return fl


# ---------------------------------------------------------------------------
# Brioschi (intrinsic) curvature
# ---------------------------------------------------------------------------

def _det3(m11, m12, m13, m21, m22, m23, m31, m32, m33):
    return (m11 * (m22 * m33 - m23 * m32)
            - m12 * (m21 * m33 - m23 * m31)
            + m13 * (m21 * m32 - m22 * m31))


def metric_derivatives(jphi: Jet3, jpsi: Jet3) -> SimpleNamespace:
    """E, F, G with the first derivatives and the three second derivatives
    (Eyy, Fxy, Gxx) needed by the Brioschi determinant; exact from the jets."""
    p, q = jphi, jpsi
    E = 1.0 + p.fx ** 2 + q.fx ** 2
    F = p.fx * p.fy + q.fx * q.fy
    G = 1.0 + p.fy ** 2 + q.fy ** 2
    Ex = 2.0 * (p.fx * p.fxx + q.fx * q.fxx)
    Ey = 2.0 * (p.fx * p.fxy + q.fx * q.fxy)
    Gx = 2.0 * (p.fy * p.fxy + q.fy * q.fxy)
    Gy = 2.0 * (p.fy * p.fyy + q.fy * q.fyy)
    Fx = p.fxx * p.fy + p.fx * p.fxy + q.fxx * q.fy + q.fx * q.fxy
    Fy = p.fxy * p.fy + p.fx * p.fyy + q.fxy * q.fy + q.fx * q.fyy
    Eyy = 2.0 * (p.fxy ** 2 + p.fx * p.fxyy + q.fxy ** 2 + q.fx * q.fxyy)
    Gxx = 2.0 * (p.fxy ** 2 + p.fy * p.fxxy + q.fxy ** 2 + q.fy * q.fxxy)
    Fxy = (p.fxxy * p.fy + p.fxx * p.fyy + p.fxy ** 2 + p.fx * p.fxyy
           + q.fxxy * q.fy + q.fxx * q.fyy + q.fxy ** 2 + q.fx * q.fxyy)
    return SimpleNamespace(E=E, F=F, G=G, Ex=Ex, Ey=Ey, Fx=Fx, Fy=Fy,
                           Gx=Gx, Gy=Gy, Eyy=Eyy, Fxy=Fxy, Gxx=Gxx)


def brioschi_field(jphi: Jet3, jpsi: Jet3):
    """Intrinsic Gauss curvature from the metric alone (Brioschi determinant)."""
    m = metric_derivatives(jphi, jpsi)
    W = m.E * m.G - m.F ** 2
    det_a = _det3(
        -0.5 * m.Eyy + m.Fxy - 0.5 * m.Gxx, 0.5 * m.Ex, m.Fx - 0.5 * m.Ey,
        m.Fy - 0.5 * m.Gx, m.E, m.F,
        0.5 * m.Gy, m.F, m.G,
    )
    det_b = _det3(
        0.0, 0.5 * m.Ey, 0.5 * m.Gx,
        0.5 * m.Ey, m.E, m.F,
        0.5 * m.Gx, m.F, m.G,
    )
    return (det_a - det_b) / W ** 2


def brioschi_curvature(surface: SurfaceSpec, x: float, y: float) -> float:
    """Intrinsic Gauss curvature at (x, y) from the induced metric only."""
    jphi = eval_jet3(surface.phi, float(x), float(y))
    jpsi = eval_jet3(surface.psi, float(x), float(y))
    m = metric_derivatives(jphi, jpsi)
    w = m.E * m.G - m.F ** 2
    if w <= EPS_METRIC:
        raise DegenerateMetricError((x, y), w)
    return float(brioschi_field(jphi, jpsi))


# ---------------------------------------------------------------------------
# exact gradients of the derived scalar fields
# ---------------------------------------------------------------------------

def _dual_fields(j: Jet3):
    """First/second derivatives of a jet as Dual2 values carrying their own
    gradients (which are the second/third jet coefficients)."""
    return (Dual2(j.fx, j.fxx, j.fxy),
            Dual2(j.fy, j.fxy, j.fyy),
            Dual2(j.fxx, j.fxxx, j.fxxy),
            Dual2(j.fxy, j.fxxy, j.fxyy),
            Dual2(j.fyy, j.fxyy, j.fyyy))


def gradient_fields(jphi: Jet3, jpsi: Jet3) -> SimpleNamespace:
    """Invariant fields as Dual2 values (value plus exact gradient); the jets
    may be array-valued, in which case every Dual2 component is an array.
    A gradient that overflows is inf or nan, without a warning."""
    with np.errstate(all="ignore"):
        return frame_fields(_dual_fields(jphi), _dual_fields(jpsi))


def invariant_gradients(surface: SurfaceSpec, x: float, y: float) -> SimpleNamespace:
    """Delta, kappa and their exact gradients at (x, y).

    The gradients are exact because the order-3 jets provide exact first
    derivatives of every coefficient entering Delta and kappa.
    """
    jphi = eval_jet3(surface.phi, float(x), float(y))
    jpsi = eval_jet3(surface.psi, float(x), float(y))
    fl = frame_fields(_dual_fields(jphi), _dual_fields(jpsi))
    scale = coeff_norm(SimpleNamespace(
        a=fl.a.val, b=fl.b.val, c=fl.c.val,
        e=fl.e.val, f=fl.f.val, g=fl.g.val))
    return SimpleNamespace(
        delta=fl.Delta.val,
        grad_delta=np.array([fl.Delta.dx, fl.Delta.dy]),
        kappa=fl.kappa.val,
        grad_kappa=np.array([fl.kappa.dx, fl.kappa.dy]),
        nq=(fl.nq0, fl.nq1, fl.nq2),
        coeff_scale=float(scale),
    )
