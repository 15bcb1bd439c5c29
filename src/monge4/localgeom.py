"""Pointwise second-order invariants of a surface (x, y, phi, psi) in R^4.

Everything is computed in the frame adapted to the graph parametrisation:
tangent vectors T1 = (1,0,phi_x,psi_x), T2 = (0,1,phi_y,psi_y) and normal
vectors N1 = (-phi_x,-phi_y,1,0), N2 = (-psi_x,-psi_y,0,1), orthonormalised
in that order.  The second-fundamental-form coefficients (a,b,c) and (e,f,g)
are taken along the orthonormal normal frame (e3, e4).

Redundant formulas are kept as self-checks, listed in :data:`CROSS_CHECKS`:
the Gaussian curvature K and the normal curvature kappa each have an
independent closed form in the raw derivatives of phi and psi
(:func:`K_closed`, :func:`kappa_closed`), the Bezout form of the resultant
re-derives Delta (:func:`delta_resultant`), and the hat metric re-derives
W; these four are the live checks of :func:`check_invariants`, which every
:func:`local_invariants` and the grid subcommand run.  The Brioschi formula
(a third route to K through the metric alone) and the Wintgen inequality
run only in the selfcheck suite.  Each check forms its second route
itself, from the derivatives and coefficients the fields hold, so a pass
that runs no check, such as the locus searches, never forms one; those
searches keep of a grid only a..g, K, kappa and Delta
(:func:`second_order_grid`).  Every reader of the registry takes its
verdict from one number per point, :meth:`CrossCheck.margin`: |u - v|
less the bound rel * scale, which holds where it is <= 0.

One rule, :func:`below_floor`, forms a value again times a power of two
where ||M||^4 or ||M||^2 is below :data:`RESIDUAL_FLOOR` and its terms
would be subnormal: the routes of the Delta check and the seed residual of
:mod:`~monge4.locus` on the :func:`unit_scaled` M, those of the K and
kappa checks on raised second derivatives of phi and psi.

Every band decision at a point is taken on the :func:`unit_scaled` M,
which the point forms once, as :attr:`LocalInvariants.scaled`.  On the
Python floats of a point, :func:`unit_scaled`, :func:`coeff_norm`, the
live checks and the finiteness test of the fields run on ``math`` and
builtins, with no numpy scalar call; a grid runs the same formulas and the
same rows of :data:`CROSS_CHECKS` on arrays.  The path is chosen by input
type, as :func:`~monge4.jets.eval_jet` chooses its own.

The derivatives of the invariants have one route, :func:`scaled_jets`: the
same formulas on jets of phi and psi, with M multiplied by the power of two
of :func:`unit_scaled` that brings its largest entry into [0.5, 1), so that
Delta and its derivatives neither underflow nor overflow.  The inflection
walkers, their seed test and :func:`~monge4.classify.hessian_of_delta` all
take their derivatives from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import expr as ex
from .errors import CrossCheckError, EvaluationError
from .jets import Jet, _first_bad, eval_jet, sqrt

__all__ = [
    "SurfaceSpec", "LocalInvariants", "surface_from_strings",
    "local_invariants", "brioschi_curvature", "delta_resultant",
    "frame_fields", "second_order", "height_quadratic", "minors",
    "K_closed", "kappa_closed", "unit_scaled", "scaled_jets",
    "invariant_grid", "second_order_grid", "check_invariants",
    "coeff_norm", "grid_axes", "grid_tiles", "TILE_POINTS", "REL", "bands",
    "below_floor",
]

# the classifier's scale-relative band for Delta, kappa and K
REL = 1e-8

# relative agreement required between redundant formula paths
REL_K = 1e-9
REL_KAPPA = 1e-9
REL_DELTA = 1e-9
REL_GRAM = 1e-10
REL_BRIOSCHI = 1e-8
REL_WINTGEN = 1e-10
# heightfn.height_hessian: det of the height Hessian against W times the
# normal quadratic, both times 2^(2k - 2j) for the 2^k of unit_scaled and
# 2^2j near W, so that neither underflows nor overflows
REL_HEIGHT = 1e-9
# the smallest normal float over the precision: above it in ||M||^4, the
# terms of Delta that matter to rounding are normal floats
RESIDUAL_FLOOR = 2.0 ** -970

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
    jet_phi: Jet
    jet_psi: Jet

    @functools.cached_property
    def scaled(self):
        """The :func:`unit_scaled` M of the point, formed once, on which
        every band decision and every quadratic at the point is taken.  A
        cached property, not a field: :func:`dataclasses.replace` forms it
        again for the new coefficients."""
        return unit_scaled(self.a, self.b, self.c, self.e, self.f, self.g)

    @property
    def coeff_matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b, self.c], [self.e, self.f, self.g]])

    @property
    def coeff_norm(self) -> float:
        return float(coeff_norm(self))


def coeff_norm(fields) -> object:
    """Frobenius norm of the 2x3 coefficient matrix: by ``math`` on Python
    floats, elementwise on arrays."""
    return sqrt(fields.a * fields.a + fields.b * fields.b
                + fields.c * fields.c + fields.e * fields.e
                + fields.f * fields.f + fields.g * fields.g)


def _floats(*values) -> bool:
    """Whether every value is a Python float: the selection of the
    ``math`` path, by input type, as in :func:`~monge4.jets.sqrt`."""
    for v in values:
        if type(v) is not float:
            return False
    return True


def _maximum(*values) -> float:
    """The largest of Python floats, and a nan where one of them is nan,
    as np.maximum gives it: the builtin max keeps a nan only in first
    place."""
    big = max(values)
    for v in values:
        if v != v:
            return v
    return big


def _anywhere(bad) -> bool:
    """Whether a test holds: a Python bool at a point, a mask anywhere."""
    return bad is True or bad is not False and bool(bad.any())


def _metric_det(px, py, qx, qy):
    """W = EG - F^2 of the graph metric by the Lagrange identity,
    1 + px^2 + py^2 + qx^2 + qy^2 + (px qy - py qx)^2: a sum of squares, so
    nothing large cancels and W >= 1 holds in floating point."""
    J = px * qy - py * qx
    return 1.0 + px * px + py * py + qx * qx + qy * qy + J * J


def frame_fields(phi_d, psi_d):
    """Derived fields from first/second derivatives of phi and psi.

    ``phi_d``/``psi_d`` are (fx, fy, fxx, fxy, fyy) tuples whose entries may
    be floats, numpy arrays or :class:`~monge4.jets.Jet` values of one order;
    the formulas are generic in the arithmetic, and on jets each field comes
    back as its jet.  Returns a namespace with the metric E, F, G, W, the
    hat metric Eh, Fh, Gh and the fields of :func:`second_order` of the
    coefficients a..g, which are built from the normalised factors F/E,
    Fh/Eh, E/W <= 1 and sqrt(Eh/W) <= 1.  The second routes of the
    cross-checks are not formed here: :func:`K_closed`, :func:`kappa_closed`
    and :func:`delta_resultant` form them where a check runs.
    """
    px, py, pxx, pxy, pyy = phi_d
    qx, qy, qxx, qxy, qyy = psi_d

    E = px * px + qx * qx + 1.0
    F = px * py + qx * qy
    G = py * py + qy * qy + 1.0
    W = _metric_det(px, py, qx, qy)
    Eh = px * px + py * py + 1.0
    Fh = px * qx + py * qy
    Gh = qx * qx + qy * qy + 1.0

    sEh = sqrt(Eh)
    sW = sqrt(W)
    t = F / E
    e_w = E / W

    def tangent(h11, h12, h22):
        # a normal component of the second fundamental form on the
        # orthonormal tangent frame T1/sqrt(E), (E T2 - F T1)/sqrt(E W)
        return h11 / E, (h12 - t * h11) / sW, \
            (h22 - t * (2.0 * h12 - t * h11)) * e_w

    # e3 = N1/sqrt(Eh); e4 = (Eh N2 - Fh N1)/sqrt(Eh W), by Gram-Schmidt
    a, b, c = tangent(pxx / sEh, pxy / sEh, pyy / sEh)
    r = Fh / Eh
    s = sEh / sW
    e, f, g = tangent((qxx - r * pxx) * s, (qxy - r * pxy) * s,
                      (qyy - r * pyy) * s)

    return SimpleNamespace(E=E, F=F, G=G, W=W, Eh=Eh, Fh=Fh, Gh=Gh,
                           **vars(second_order(a, b, c, e, f, g)))


def K_closed(fl, phi_d, psi_d):
    """K by its closed form in the raw derivatives: ``phi_d``/``psi_d`` as
    for :func:`frame_fields`, whose hat metric and W ``fl`` holds.  It is
    (Eh H_psi - Fh Q + Gh H_phi) / W^2, with H_phi and H_psi the Hessian
    determinants of phi and psi and Q their mixed form.  Generic in the
    arithmetic."""
    pxx, pxy, pyy = phi_d[2:]
    qxx, qxy, qyy = psi_d[2:]
    H_phi = pxx * pyy - pxy * pxy
    H_psi = qxx * qyy - qxy * qxy
    Qmix = pxx * qyy + pyy * qxx - 2.0 * pxy * qxy
    return (fl.Eh * H_psi - fl.Fh * Qmix + fl.Gh * H_phi) / fl.W / fl.W


def kappa_closed(fl, phi_d, psi_d):
    """kappa by its closed form, as :func:`K_closed` with the metric E, F,
    G and W of ``fl``: (E L - F M + G N) / W^2, with L, M and N the 2x2
    minors of the second derivatives of phi and psi."""
    pxx, pxy, pyy = phi_d[2:]
    qxx, qxy, qyy = psi_d[2:]
    L = pxy * qyy - pyy * qxy
    M = pxx * qyy - pyy * qxx
    N = pxx * qxy - pxy * qxx
    return (fl.E * L - fl.F * M + fl.G * N) / fl.W / fl.W


def height_quadratic(a, b, c, e, f, g):
    """(hq0, hq1, hq2): the height quadratic det S_n = hq0 n1^2 + hq1 n1 n2
    + hq2 n2^2 of the coefficient matrix M = [[a, b, c], [e, f, g]], of
    discriminant -4 Delta.  Elementwise on floats, arrays and jets."""
    return a * c - b * b, a * g + c * e - 2.0 * b * f, e * g - f * f


def minors(a, b, c, e, f, g):
    """(nq0, nq1, nq2): the 2x2 minors of M = [[a, b, c], [e, f, g]], the
    coefficients of the directional quadratic nq0 u^2 + nq1 uv + nq2 v^2,
    also of discriminant -4 Delta.  Elementwise on floats and arrays."""
    return a * f - b * e, a * g - c * e, b * g - c * f


def second_order(a, b, c, e, f, g):
    """The invariants of the coefficient matrix M = [[a, b, c], [e, f, g]]:
    a namespace of a..g, K, kappa and Delta, in its expanded form
    hq0 hq2 - hq1^2 / 4 in the :func:`height_quadratic`.  Generic in the
    arithmetic, like :func:`frame_fields`, whose coefficients it takes."""
    hq0, hq1, hq2 = height_quadratic(a, b, c, e, f, g)
    return SimpleNamespace(
        a=a, b=b, c=c, e=e, f=f, g=g,
        K=hq0 + hq2, kappa=(a - c) * f - (e - g) * b,
        Delta=hq0 * hq2 - 0.25 * (hq1 * hq1))


def _derivatives(jet: Jet, order: int = 0):
    """(fx, fy, fxx, fxy, fyy) of the function whose jet is ``jet``: its
    coefficients at order 0, otherwise their jets of ``order``, shifted
    out of ``jet``, which must be of order + 2 or more."""
    if order == 0:
        return jet.coeffs[1:6]
    return tuple(jet.shift(i, j, order)
                 for i, j in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))


def unit_scaled(a, b, c, e, f, g):
    """:func:`second_order` of a..g times 2^k, where 2^-k is the power of
    two just above the largest |entry|, with msq = ||M||^2, the mean
    curvature vector (H3, H4) and k, which takes what is formed on it back
    to the unscaled M.

    Multiplying by a power of two is exact in the normal range, so every
    rounding commutes with the scaling and the sign of each invariant
    against its band is the one of the unscaled values; only underflow and
    overflow go away.  Works elementwise on arrays and, by ``math`` and
    builtins alone, on Python floats, with the same bits as on 0-d arrays.
    A point forms it once, as :attr:`LocalInvariants.scaled`.
    """
    coeffs = a, b, c, e, f, g
    # ldexp of each entry, not a product with 2^k: for a subnormal largest
    # entry 2^k itself overflows
    if _floats(*coeffs):
        k, ldexp = -math.frexp(_maximum(*map(abs, coeffs)))[1], math.ldexp
    else:
        big = np.maximum(np.maximum(np.maximum(abs(a), abs(b)), abs(c)),
                         np.maximum(np.maximum(abs(e), abs(f)), abs(g)))
        k, ldexp = -np.frexp(big)[1], np.ldexp
    m = second_order(*(ldexp(v, k) for v in coeffs))
    norm = coeff_norm(m)
    m.msq = norm * norm
    m.H3, m.H4 = 0.5 * (m.a + m.c), 0.5 * (m.e + m.g)
    m.k = k
    return m


def bands(m, rel: float):
    """(above, below, flat): Delta above rel ||M||^4 or below minus that, and
    |kappa| <= rel ||M||^2, elementwise on the M of :func:`unit_scaled`."""
    tau_delta = rel * m.msq * m.msq
    return m.Delta > tau_delta, m.Delta < -tau_delta, \
        abs(m.kappa) <= rel * m.msq


def scaled_jets(jphi: Jet, jpsi: Jet, order: int):
    """The derivatives of the invariants, at the points of the jets of phi
    and psi (of order + 2 or more): (fields, m), where ``m`` is the
    :func:`unit_scaled` M there, which holds k and msq, and ``fields`` are
    the fields of :func:`frame_fields` as jets of ``order`` with the
    coefficients a..g times that power of two 2^k, elementwise.

    a..g are linear in the second derivatives of phi and psi, so scaling
    those by 2^k is exact: Delta comes out times 2^4k and kappa times 2^2k,
    and neither underflows on a small surface; np.ldexp(., -4k) gives the
    derivatives of Delta itself.  What overflows is inf or nan."""
    def scaled(jet):
        d = _derivatives(jet, order)
        return d[:2] + tuple(Jet(tuple(np.ldexp(c, m.k) for c in j.coeffs))
                             for j in d[2:])

    with np.errstate(all="ignore"):
        fl = frame_fields(_derivatives(jphi), _derivatives(jpsi))
        m = unit_scaled(fl.a, fl.b, fl.c, fl.e, fl.f, fl.g)
        return frame_fields(scaled(jphi), scaled(jpsi)), m


def delta_resultant(a, b, c, e, f, g):
    """Delta as the resultant of the quadratics a u^2 + 2b uv + c v^2 and
    e u^2 + 2f uv + g v^2, by its Bezout form: the determinant
    nq0 nq2 - nq1^2 / 4 of their Bezoutian in the :func:`minors` of M,
    algebraically distinct from the expanded form of :func:`second_order`.
    Elementwise on floats and arrays.
    """
    nq0, nq1, nq2 = minors(a, b, c, e, f, g)
    return nq0 * nq2 - 0.25 * (nq1 * nq1)


def _relative(u, v, scale):
    """Routes u and v with the scale max(|u|, |v|, scale), elementwise."""
    if _floats(u, v, scale):
        return u, v, _maximum(abs(u), abs(v), scale)
    return u, v, np.maximum(np.maximum(np.abs(u), np.abs(v)), scale)


def below_floor(test, values, recompute):
    """``values``, formed again by ``recompute(at)`` where ``test``
    (||M||^4 or ||M||^2) is below RESIDUAL_FLOOR or nan.  ``at`` picks each
    input there: the identity on the Python floats of a point; on arrays,
    the flat array at the points of that mask, and the values come back as
    arrays of its shape."""
    if type(test) is float:
        return values if test >= RESIDUAL_FLOOR else recompute(lambda w: w)
    low = ~(test >= RESIDUAL_FLOOR)
    if not low.any():
        return values
    values = tuple(np.array(np.broadcast_to(w, low.shape), dtype=float)
                   for w in values)
    for w, new in zip(values, recompute(
            lambda w: np.broadcast_to(w, low.shape)[low])):
        w[low] = new
    return values


def _delta_routes(fl, msq):
    """The expanded Delta and the Bezout form with the scale ||M||^4, all
    three taken on the :func:`unit_scaled` M, so times the same power of
    two, where ||M||^4 is below the floor and Delta underflows."""
    coeffs = fl.a, fl.b, fl.c, fl.e, fl.f, fl.g

    def scaled(at):
        m = unit_scaled(*map(at, coeffs))
        return m.Delta, delta_resultant(m.a, m.b, m.c, m.e, m.f, m.g), \
            m.msq * m.msq

    norm4 = msq * msq
    return _relative(*below_floor(
        norm4, (fl.Delta, delta_resultant(*coeffs), norm4), scaled))


class CrossCheck(NamedTuple):
    """One comparison of redundant formula routes.

    ``routes(fields, msq)`` takes the namespace of :func:`invariant_grid`
    and ||M||^2 and returns (u, v, scale), of which :meth:`margin` forms
    the one number every reader decides on.  ``name`` is the line
    selfcheck prints; a ``live`` check also runs at every evaluation and,
    failed, names itself by ``tag``.  On the Python floats of a point,
    where ``msq`` is one, the routes and the margin run on ``math`` and
    builtins; the rows are the same for both.
    """

    name: str
    tag: str
    rel: float
    live: bool
    routes: Callable
    one_sided: bool = False

    def margin(self, fields, msq, where=None):
        """(margin, u, v, scale): |u - v| - rel * scale of the routes u,
        v and scale, or u - v - rel * scale when ``one_sided``, elementwise.  The check
        holds where margin <= 0, which is |u - v| <= rel * scale: gradual
        underflow keeps the difference of two distinct doubles nonzero.
        Where u - v is not finite, an :class:`EvaluationError` at the first
        such point of ``where`` = (x, y), when given."""
        try:
            if type(msq) is float:   # Python floats warn of nothing
                u, v, scale = self.routes(fields, msq)
                dev = u - v if self.one_sided else abs(u - v)
                margin, bad = dev - self.rel * scale, not math.isfinite(dev)
            else:
                with np.errstate(all="ignore"):
                    u, v, scale = self.routes(fields, msq)
                    dev = u - v if self.one_sided else abs(u - v)
                    margin = dev - self.rel * scale
                bad = ~np.isfinite(dev)
        except OverflowError:  # Python floats raise where arrays give inf
            bad = True
        if _anywhere(bad):
            raise EvaluationError(_OVERFLOW, where and _first_bad(bad, *where))
        return margin, u, v, scale


def _wintgen_routes(fl, msq):
    # |H|^2 >= K + |kappa|: the deficit -gap against 0
    gap = (0.5 * (fl.a + fl.c)) ** 2 + (0.5 * (fl.e + fl.g)) ** 2 \
        - fl.K - np.abs(fl.kappa)
    return -gap, 0.0, np.maximum(1.0, msq)


def _raw_derivatives(fl):
    """The derivatives (fx, fy, fxx, fxy, fyy) of phi and of psi that the
    fields ``fl`` were formed from: :func:`_derivatives` of their jets."""
    return fl.jet_phi.coeffs[1:6], fl.jet_psi.coeffs[1:6]


def _closed_form_routes(fl, msq, name, closed):
    """Routes of the check of K or kappa (``name``) against its closed form
    ``closed``, from the derivatives the fields hold, with the scale
    ||M||^2.  Below the floor all three are formed again on the second
    derivatives of phi and psi times the power of two 2^k that brings the
    largest into [0.5, 1) where smaller, and times 1 elsewhere: exact in
    the normal range, so all three come out times 2^2k, and no product
    overflows that would not at unit second derivatives."""
    derivatives = _raw_derivatives(fl)

    def raised(at):
        phi_d, psi_d = (tuple(map(at, d)) for d in derivatives)
        second = phi_d[2:] + psi_d[2:]
        if type(msq) is float:
            big = _maximum(*map(abs, second))
            k, ldexp = max(-math.frexp(big)[1], 0), math.ldexp
        else:
            big = np.max(np.abs(second), axis=0)
            k, ldexp = np.maximum(-np.frexp(big)[1], 0), np.ldexp
        phi_d, psi_d = (d[:2] + tuple(ldexp(w, k) for w in d[2:])
                        for d in (phi_d, psi_d))
        s = frame_fields(phi_d, psi_d)
        norm = coeff_norm(s)
        return getattr(s, name), closed(s, phi_d, psi_d), norm * norm

    return _relative(*below_floor(
        msq, (getattr(fl, name), closed(fl, *derivatives), msq), raised))


CROSS_CHECKS = (
    CrossCheck("K coefficient vs closed form", "K", REL_K, True,
               lambda fl, msq: _closed_form_routes(fl, msq, "K", K_closed)),
    CrossCheck("kappa coefficient vs closed form", "kappa", REL_KAPPA, True,
               lambda fl, msq: _closed_form_routes(fl, msq, "kappa",
                                                   kappa_closed)),
    CrossCheck("Delta expansion vs resultant determinant", "Delta", REL_DELTA,
               True, _delta_routes),
    CrossCheck("normal-frame Gram identity", "EhGh-Fh^2=W", REL_GRAM, True,
               lambda fl, msq: (fl.Eh * fl.Gh - fl.Fh * fl.Fh, fl.W,
                                abs(fl.W))),
    CrossCheck("Brioschi vs coefficient curvature", "Brioschi", REL_BRIOSCHI,
               False, lambda fl, msq: _relative(
                   brioschi_field(fl.jet_phi, fl.jet_psi), fl.K, msq)),
    CrossCheck("Wintgen inequality", "Wintgen", REL_WINTGEN, False,
               _wintgen_routes, one_sided=True),
)


def check_invariants(fields, where=None):
    """The live checks of :data:`CROSS_CHECKS` on the namespace of
    :func:`invariant_grid`, whose jets give the closed forms of K and kappa
    their derivatives: a check whose margin is above 0 is a
    :class:`CrossCheckError` (an overflowing route an
    :class:`EvaluationError`), which names the first failing point of
    ``where`` = (x, y), when given (any shapes that broadcast)."""
    norm = coeff_norm(fields)
    msq = norm * norm
    for check in CROSS_CHECKS:
        if check.live:
            margin, u, v, _ = check.margin(fields, msq, where)
            bad = margin > 0.0
            if _anywhere(bad):
                du, dv, *point = _first_bad(bad, u, v, *(where or ()))
                msg = f"{check.tag} cross-check failed: {du!r} vs {dv!r}"
                if point:
                    msg += " at point ({!r}, {!r})".format(*point)
                raise CrossCheckError(msg)


def _norm4(fl):
    """||M||^4 of the coefficients of ``fl`` by products, which give inf
    where it overflows (a power of Python floats raises)."""
    msq = fl.a * fl.a + fl.b * fl.b + fl.c * fl.c \
        + fl.e * fl.e + fl.f * fl.f + fl.g * fl.g
    return msq * msq


def _finite_frame_fields(jphi: Jet, jpsi: Jet, x, y):
    """:func:`frame_fields` of two jets at the points (x, y), refusing
    overflow: raises :class:`EvaluationError` at the first point where a
    coefficient, K, kappa, Delta, W or ||M||^4 is not finite."""
    # the jets of a point hold Python floats, which warn of nothing
    floats = type(jphi.f) is float and type(jpsi.f) is float
    try:
        if floats:
            fl = frame_fields(_derivatives(jphi), _derivatives(jpsi))
        else:
            with np.errstate(all="ignore"):
                fl = frame_fields(_derivatives(jphi), _derivatives(jpsi))
    except OverflowError:  # Python floats raise where arrays give inf
        raise EvaluationError(_OVERFLOW, (float(x), float(y))) from None
    # an infinite W, which bounds E, G, Eh and Gh, sends the coefficients to
    # 0, not to inf.  A finite ||M||^4, which scales the Delta bands of the
    # cross-checks and of the classifier, bounds a..g, K and kappa.
    if floats:
        if not (math.isfinite(fl.W) and math.isfinite(_norm4(fl))
                and math.isfinite(fl.Delta)):
            raise EvaluationError(_OVERFLOW, (float(x), float(y)))
    else:
        with np.errstate(over="ignore"):
            bad = ~np.isfinite(fl.W) | ~np.isfinite(_norm4(fl)) \
                | ~np.isfinite(fl.Delta)
        if np.any(bad):
            raise EvaluationError(_OVERFLOW, _first_bad(bad, x, y))
    fl.jet_phi = jphi
    fl.jet_psi = jpsi
    return fl


def local_invariants(surface: SurfaceSpec, x: float, y: float) -> LocalInvariants:
    """All pointwise invariants at (x, y); both formula routes reconciled.

    A disagreement between redundant formulas is a :class:`CrossCheckError`
    (:func:`check_invariants`).  An invariant that overflows is an
    :class:`EvaluationError`.
    """
    jphi = eval_jet(surface.phi, x, y, 3)
    jpsi = eval_jet(surface.psi, x, y, 3)
    fl = _finite_frame_fields(jphi, jpsi, x, y)
    check_invariants(fl, (x, y))
    nq0, nq1, nq2 = minors(fl.a, fl.b, fl.c, fl.e, fl.f, fl.g)
    return LocalInvariants(
        x=float(x), y=float(y),
        E=fl.E, F=fl.F, G=fl.G, W=fl.W,
        Ehat=fl.Eh, Fhat=fl.Fh, Ghat=fl.Gh,
        a=fl.a, b=fl.b, c=fl.c, e=fl.e, f=fl.f, g=fl.g,
        K=fl.K, kappa=fl.kappa,
        H=np.array([0.5 * (fl.a + fl.c), 0.5 * (fl.e + fl.g)]),
        Delta=fl.Delta, nq0=nq0, nq1=nq1, nq2=nq2,
        jet_phi=jphi, jet_psi=jpsi,
    )


def invariant_grid(surface: SurfaceSpec, x, y, *, order: int = 2) -> SimpleNamespace:
    """Vectorised invariants over arrays of points (shapes must broadcast).

    Returns the namespace of :func:`frame_fields` with arrays, plus the jets
    of phi and psi, of ``order``: 2 gives every invariant, 3 also what needs
    third derivatives (the Brioschi check, the gradients of the inflection
    seeds).  An invariant that overflows at any point is an
    :class:`EvaluationError` carrying the first such point.  The
    cross-checks are left to :func:`check_invariants`.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    jphi = eval_jet(surface.phi, x, y, order)
    jpsi = eval_jet(surface.psi, x, y, order)
    return _finite_frame_fields(jphi, jpsi, x, y)


def second_order_grid(surface: SurfaceSpec, x, y) -> SimpleNamespace:
    """The fields the locus searches read, over arrays of points: the
    namespace of :func:`second_order`, a..g, K, kappa and Delta, of
    :func:`invariant_grid` at order 2.  The metric and the jets they were
    formed from are dropped on return, so a tile held by a search costs 72
    bytes per node, not 224.  Fails as :func:`invariant_grid` does."""
    fl = invariant_grid(surface, x, y)
    return SimpleNamespace(a=fl.a, b=fl.b, c=fl.c, e=fl.e, f=fl.f, g=fl.g,
                           K=fl.K, kappa=fl.kappa, Delta=fl.Delta)


# nodes per tile of the grid passes.  The fields of invariant_grid hold 224
# bytes per node at order 2 and 288 at order 3 (312 and 377 at the peak of
# forming them), those of second_order_grid 72.  A tile loop holds the
# previous tile while it forms the next, so per tile node the peak of a
# pass grows by 536 bytes for grid, 696 for selfcheck, 383 for trace and
# 393 for inflections (tracemalloc, trig surface, res 256).  A call pays
# about 0.25 ms of overhead; at res 1024, 2^13 to 2^15 nodes per tile
# measured 68 to 84 MB peak and 4.4 to 3.7 s for grid and selfcheck
# together.
TILE_POINTS = 2 ** 14


def grid_axes(surface: SurfaceSpec, res: int):
    """The res sample points of each axis of the domain: (xs, ys)."""
    xmin, xmax, ymin, ymax = surface.domain
    return np.linspace(xmin, xmax, res), np.linspace(ymin, ymax, res)


def grid_tiles(surface: SurfaceSpec, res: int):
    """(rows, where) over consecutive tiles of x-rows of the res x res grid
    of :func:`grid_axes`, in order: ``rows`` is the slice of x-rows of the
    tile and ``where`` = (x column, y row) its nodes, on which each pass
    calls its own evaluator.  A tile holds at most :data:`TILE_POINTS`
    nodes, and at least one row.

    Row-major order over the tiles, x outer, is the order of the whole
    grid, so a tile's first failing point is the grid's first failing point
    of that stage; a failure in an earlier tile comes first."""
    xs, ys = grid_axes(surface, res)
    step = max(1, TILE_POINTS // res)
    for i in range(0, res, step):
        rows = slice(i, min(i + step, res))
        yield rows, (xs[rows, None], ys[None, :])


# ---------------------------------------------------------------------------
# Brioschi (intrinsic) curvature
# ---------------------------------------------------------------------------

def _det3(m11, m12, m13, m21, m22, m23, m31, m32, m33):
    return (m11 * (m22 * m33 - m23 * m32)
            - m12 * (m21 * m33 - m23 * m31)
            + m13 * (m21 * m32 - m22 * m31))


def brioschi_field(jphi: Jet, jpsi: Jet):
    """Intrinsic Gauss curvature from the metric alone (Brioschi determinant):
    E, F, G, their first derivatives and Eyy, Fxy, Gxx, exact from the jets."""
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
    det_a = _det3(-0.5 * Eyy + Fxy - 0.5 * Gxx, 0.5 * Ex, Fx - 0.5 * Ey,
                  Fy - 0.5 * Gx, E, F,
                  0.5 * Gy, F, G)
    det_b = _det3(0.0, 0.5 * Ey, 0.5 * Gx,
                  0.5 * Ey, E, F,
                  0.5 * Gx, F, G)
    W = _metric_det(p.fx, p.fy, q.fx, q.fy)
    return (det_a - det_b) / W / W


def brioschi_curvature(surface: SurfaceSpec, x: float, y: float) -> float:
    """Intrinsic Gauss curvature at (x, y) from the induced metric only."""
    jphi = eval_jet(surface.phi, float(x), float(y), 3)
    jpsi = eval_jet(surface.psi, float(x), float(y), 3)
    return float(brioschi_field(jphi, jpsi))
