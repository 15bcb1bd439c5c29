"""Independent numerical oracles used by the test suite.

Everything here works from plain value evaluations of Python callables with
central finite differences, deliberately sharing no derivative machinery and
no closed-form coefficient formulas with the package: the geometric oracle
builds frames by Gram-Schmidt and projects second derivatives per the
definition of the second fundamental form.

The exceptions are :func:`evolvent_reference`, the per-direction LAPACK
solve of the tangency system that ``conics._sweep_points`` replaced by the
pole in closed form, which must agree with it to the system's condition,
and :func:`jet_variable_reference`, coordinate jets with full-array seeds,
which the package must reproduce bit for bit.  :class:`ReferenceJet`,
:func:`raw_jet_reference` and :func:`eval_jet_reference` are the tree walk
of jet arithmetic, with its structural zeros carried at run time, that
``jets.eval_jet`` replaced by kernels compiled once per expression; the
kernels must reproduce it bit for bit.  :func:`invariant_gradients`
is the unscaled route to the exact gradients of Delta and kappa that
``localgeom.scaled_jets`` replaced by one route on M scaled by a power of
two; it underflows on a small surface, where that does not.
:func:`hessian_of_delta_fd` is the Richardson-extrapolated difference of
its Delta gradient, which
``classify.hessian_of_delta`` replaced by an exact jet; the two must agree
to the differencing error.
:func:`bisect_edges_reference` is the fixed 40-round bisection that
``locus._refine_edges`` replaced; the package must match its polylines
with residuals no worse.  :func:`newton_walkers_reference` is the
per-seed Newton loop on (Delta, kappa) that the batched walkers of
``locus._newton_walkers`` replaced; the package must report the same
inflections from the same seeds.  :func:`sylvester_delta` is the 4x4 Sylvester
determinant that ``localgeom.delta_resultant`` replaced by the Bezout form.
:func:`rank_m` is the rank of M on M divided by its largest entry, which
``classify.class_labels_grid`` replaced by the same closed form on M scaled by a
power of two; the two must agree away from the rounding of the threshold.
:func:`normal_plane_oracle` is the normal plane of M in exact rationals:
both conics by their definitions, the semi-axes and the classifier's bands,
which ``conics`` forms in floats on M scaled by a power of two.
:func:`polyline_reference` is the vertex-by-vertex SVG formatter that
``svgplot._Mapper.polyline`` replaced by a column pass, and
:func:`split_sweep_reference` the list-based splitting of the sweep into
polylines at its invalid samples and at the sign changes of its
determinant, which ``conics.sample_characteristic`` does by index arrays;
the package must reproduce both exactly.  :func:`frame_oracle` takes the
package's own float derivatives and evaluates the textbook frame formulas
on them in 800-digit ``decimal``, so that it measures the rounding of
``localgeom.frame_fields`` alone.  :func:`grid_rows_reference` and
:func:`selfcheck_report_reference` evaluate the whole grid at once, as
``cli.grid_rows`` and ``cli.selfcheck_report`` did before they went tile
by tile, the former printing each real with Python's ``repr`` rather than
the package's ``floattext`` writer, and :func:`trace_parabolic_reference` and
:func:`find_inflections_reference` are ``locus.trace_parabolic`` and
``locus.find_inflections`` as they were then, with one evaluation per saddle
cell centre in the former; the package must reproduce their output bit for
bit.  The former names edges by tuples ``("h", i, j)`` and ``("v", i, j)``
and links them with :func:`link_segments_reference`, the walk over a
general graph, marking directed pairs, that ``locus._link_segments``
replaced by a walk over integer edge ids, each with at most two partners.
"""

from __future__ import annotations

import decimal
import fractions
import functools
import itertools
import math
import operator
from types import SimpleNamespace

import numpy as np

from monge4 import classify as cls
from monge4 import conics
from monge4 import expr as ex
from monge4 import jets, locus
from monge4.errors import EvaluationError
from monge4.jets import Jet, eval_jet
from monge4.localgeom import (CROSS_CHECKS, _derivatives, check_invariants,
                              coeff_norm, frame_fields, grid_axes,
                              invariant_grid, local_invariants, scaled_jets)
from monge4.locus import NEWTON_ACCEPT, NEWTON_ITERATIONS

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "tan": np.tan,
              "exp": np.exp, "log": np.log, "sqrt": np.sqrt}


def eval_value(node: ex.Expr, x0, y0):
    """Plain value of a parsed expression at (x0, y0), without derivatives.

    Outside a function's domain it returns whatever Python or numpy give
    (nan, inf or an exception); it does not raise the package's
    EvaluationError the way eval_jet does.
    """
    match node:
        case ex.Num(value=v):
            return v
        case ex.Name(name=n):
            if n in ex.CONSTANTS:
                return ex.CONSTANTS[n]
            return x0 if n == "x" else y0
        case ex.Neg(operand=u):
            return -eval_value(u, x0, y0)
        case ex.BinOp(op=op, lhs=l, rhs=r):
            a = eval_value(l, x0, y0)
            b = eval_value(r, x0, y0)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            return a / b
        case ex.Pow(base=b, exponent=p):
            base = eval_value(b, x0, y0)
            if float(p).is_integer():
                return base ** int(p)
            return base ** p
        case ex.Call(func=f, arg=a):
            return _FUNCTIONS[f](eval_value(a, x0, y0))
    raise TypeError(f"not an expression node: {node!r}")


# one-dimensional central stencils: order -> (offsets, weights * h^order)
_STENCILS = {
    0: ((0,), (1.0,)),
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
}


def fd_partial(f, x, y, ix, iy, h):
    """Central finite-difference estimate of d^(ix+iy) f / dx^ix dy^iy."""
    offs_x, w_x = _STENCILS[ix]
    offs_y, w_y = _STENCILS[iy]
    total = 0.0
    for ox, wx in zip(offs_x, w_x):
        for oy, wy in zip(offs_y, w_y):
            total += wx * wy * f(x + ox * h, y + oy * h)
    return total / h ** (ix + iy)


def fd_partial_richardson(f, x, y, ix, iy, h):
    """One Richardson extrapolation step (kills the h^2 error term)."""
    d_h = fd_partial(f, x, y, ix, iy, h)
    d_h2 = fd_partial(f, x, y, ix, iy, 0.5 * h)
    return (4.0 * d_h2 - d_h) / 3.0


#: jet coefficient order used throughout the package
JET_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
              (3, 0), (2, 1), (1, 2), (0, 3))


def fd_jet(f, x, y, h_low=1e-4, h_third=1.0 / 64.0):
    """All ten jet coefficients by Richardson-extrapolated central
    differences.

    Orders <= 2 use ``h_low``; third-order stencils use the larger
    ``h_third`` because the 1/h^3 roundoff amplification makes 1e-4 steps
    meaningless in float64 at third order.
    """
    out = []
    for ix, iy in JET_ORDERS:
        h = h_low if ix + iy <= 2 else h_third
        out.append(fd_partial_richardson(f, x, y, ix, iy, h))
    return tuple(out)


def _gram_schmidt(vectors):
    basis = []
    for v in vectors:
        w = v.astype(float).copy()
        for b in basis:
            w -= (w @ b) * b
        basis.append(w / np.linalg.norm(w))
    return basis


def geometric_oracle(phi, psi, x, y, h=1e-4):
    """Second-order invariants straight from the definitions.

    phi, psi are plain callables.  Builds the 4D parametrisation, obtains
    tangent/normal frames by Gram-Schmidt over (T1, T2) and (N1, N2), and
    projects the finite-difference second derivative of the parametrisation
    onto the normal frame to get the second-fundamental-form coefficients.
    Returns a dict with E..G, hat metric, a..g, K, kappa, Delta.
    """
    def xi(u, v):
        return np.array([u, v, phi(u, v), psi(u, v)])

    def d(ix, iy):
        return np.array([
            fd_partial_richardson(lambda u, v: xi(u, v)[k], x, y, ix, iy, h)
            for k in range(4)])

    t1 = d(1, 0)
    t2 = d(0, 1)
    phi_x, phi_y = t1[2], t2[2]
    psi_x, psi_y = t1[3], t2[3]
    n1 = np.array([-phi_x, -phi_y, 1.0, 0.0])
    n2 = np.array([-psi_x, -psi_y, 0.0, 1.0])

    e1, e2 = _gram_schmidt([t1, t2])
    e3, e4 = _gram_schmidt([n1, n2])

    E = t1 @ t1
    F = t1 @ t2
    G = t2 @ t2
    W = E * G - F * F
    Eh = n1 @ n1
    Fh = n1 @ n2
    Gh = n2 @ n2

    xi_xx = d(2, 0)
    xi_xy = d(1, 1)
    xi_yy = d(0, 2)

    # parameter coordinates of the orthonormal tangent frame
    u1 = np.array([1.0 / np.sqrt(E), 0.0])
    u2 = np.array([-F, E]) / np.sqrt(E * W)

    def second(ua, ub):
        return (xi_xx * ua[0] * ub[0]
                + xi_xy * (ua[0] * ub[1] + ua[1] * ub[0])
                + xi_yy * ua[1] * ub[1])

    a = second(u1, u1) @ e3
    b = second(u1, u2) @ e3
    c = second(u2, u2) @ e3
    e = second(u1, u1) @ e4
    f = second(u1, u2) @ e4
    g = second(u2, u2) @ e4

    resultant = np.array([
        [a, 2 * b, c, 0.0],
        [e, 2 * f, g, 0.0],
        [0.0, a, 2 * b, c],
        [0.0, e, 2 * f, g],
    ])
    return {
        "E": E, "F": F, "G": G, "W": W, "Eh": Eh, "Fh": Fh, "Gh": Gh,
        "a": a, "b": b, "c": c, "e": e, "f": f, "g": g,
        "K": (a * c - b * b) + (e * g - f * f),
        "kappa": (a - c) * f - (e - g) * b,
        "Delta": 0.25 * np.linalg.det(resultant),
        "H": np.array([0.5 * (a + c), 0.5 * (e + g)]),
    }


def height_cubic_reference(inv, n, u):
    """The cubic Taylor coefficient of the height function f_b at the point
    of ``inv``, b = n1 e3 + n2 e4, along the unit tangent u1 e1 + u2 e2,
    with the frames by Gram-Schmidt in R^4: the third derivatives of f_b
    are those of b3 phi + b4 psi, and the parameter coordinates of a
    tangent vector are its first two ambient ones."""
    p, q = inv.jet_phi, inv.jet_psi
    e1, e2 = _gram_schmidt([np.array([1.0, 0.0, p.fx, q.fx]),
                            np.array([0.0, 1.0, p.fy, q.fy])])
    e3, e4 = _gram_schmidt([np.array([-p.fx, -p.fy, 1.0, 0.0]),
                            np.array([-q.fx, -q.fy, 0.0, 1.0])])
    b = n[0] * e3 + n[1] * e4
    kx, ky = (u[0] * e1 + u[1] * e2)[:2]

    def cubic(jet):
        return (jet.fxxx * kx ** 3 + 3.0 * jet.fxxy * kx * kx * ky
                + 3.0 * jet.fxyy * kx * ky * ky + jet.fyyy * ky ** 3)

    return (b[2] * cubic(p) + b[3] * cubic(q)) / 6.0


def evolvent_reference(inv, theta):
    """The evolvent point for one tangent direction, solved on its own.

    Returns (point, det); point is None where the tangency system is
    singular.
    """
    et = conics.eta(inv, theta)
    _, zeta = conics.conjugate_radii(inv, theta)
    m = np.array([[et[0], et[1]], [zeta[0], zeta[1]]])
    with np.errstate(divide="ignore", invalid="ignore"):  # subnormal pivots
        det = float(np.linalg.det(m))
    if abs(det) <= 1e-12:
        return None, det
    return np.linalg.solve(m, np.array([1.0, 0.0])), det


def polyline_reference(mapper, pts, closed=False):
    """The points attribute and tag of an SVG polyline, one vertex at a
    time: each mapped by the mapper's x0, y0 and scale into the 800 x 800
    view, and each coordinate formatted by ``f"{v:.4f}"``."""
    coords = " ".join(
        f"{(p[0] - mapper.x0) * mapper.scale:.4f},"
        f"{800.0 - (p[1] - mapper.y0) * mapper.scale:.4f}" for p in pts)
    return coords, ("polygon" if closed else "polyline")


def split_sweep_reference(pts, det, invalid):
    """The (points, closed) polylines of an evolvent sweep ``pts`` of period
    pi, with the determinant ``det`` of each sample's tangency system, whose
    samples in ``invalid`` are at infinity or clipped: cut at those samples
    and between neighbours (the last sample's neighbour is the first) where
    the sign bit of det differs, read from the sample after the last cut."""
    n = len(pts)
    neg = [math.copysign(1.0, d) < 0.0 for d in det]
    nxt = [(k + 1) % n for k in range(n)]
    linked = [not invalid[k] and not invalid[nxt[k]] and neg[k] == neg[nxt[k]]
              for k in range(n)]
    if all(linked):
        return [(pts, True)]
    k = max(k for k in range(n) if not linked[k])
    out, run = [], []
    for _ in range(n):
        k = nxt[k]
        run.append(k)
        if not linked[k]:
            if not invalid[run[0]]:
                out.append((pts[run], False))
            run = []
    return out


def polygon_signed_area(points) -> float:
    """Shoelace area of a closed polygon given as an (n, 2) array."""
    pts = np.asarray(points, dtype=float)
    x = pts[:, 0]
    y = pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def winding_number(points, target=(0.0, 0.0)) -> int:
    """Winding of a closed polygon around a point (angle summation)."""
    pts = np.asarray(points, dtype=float) - np.asarray(target, dtype=float)
    ang = np.arctan2(pts[:, 1], pts[:, 0])
    dif = np.diff(np.concatenate([ang, ang[:1]]))
    dif = (dif + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(float(np.sum(dif)) / (2.0 * np.pi)))


def jet_variable_reference(which, x0, y0, order):
    """Jet of the coordinate 'x' or 'y' on arrays, with the value and both
    first-derivative seeds as full arrays of the broadcast grid shape (ones
    and zeros), and float zeros above.  ``jets.jet_variable`` keeps the
    coordinate's own shape and seeds with the floats 1.0 and 0.0;
    evaluations must agree under ==.
    """
    one = np.ones(np.broadcast(x0, y0).shape)
    val = np.broadcast_to(x0 if which == "x" else y0, one.shape).astype(float)
    seeds = (one, one * 0.0) if which == "x" else (one * 0.0, one)
    size = (order + 1) * (order + 2) // 2
    return Jet(((val,) + seeds + (0.0,) * size)[:size])


# -- the tree walk that eval_jet compiled away ----------------------------------

def _elementary(name, v):
    return getattr(math if type(v) is float else np, name)(v)


def _reciprocal_derivatives(f):
    r = 1.0 / f
    r2 = r * r
    yield from (r, -r2, 2.0 * r2 * r)
    d, k = -6.0 * r2 * r2, 3
    while True:
        yield d
        k += 1
        d = -k * d * r


def _sqrt_derivatives(f):
    s = _elementary("sqrt", f)
    yield s
    d, k = 0.5 / s, 1
    while True:
        yield d
        d = (0.5 - k) * d / f
        k += 1


def _tan_derivatives(f):
    t = _elementary("tan", f)
    sec2 = 1.0 + t * t
    yield from (t, sec2, 2.0 * t * sec2)
    yield sec2 * (2.0 + 6.0 * t * t)
    # u^(k) = P_k(t) with P_(k+1) = P_k' (1 + t^2); P_3 = 2 + 8 t^2 + 6 t^4
    poly = [2, 0, 8, 0, 6]
    while True:
        slope = [k * a for k, a in enumerate(poly)][1:] + [0, 0]
        poly = [u + v for u, v in zip(slope, [0, 0] + slope)]
        value = 0.0
        for a in reversed(poly):
            value = value * t + a
        yield value


class ReferenceJet:
    """Jet arithmetic that carries its structural zeros as a bitmask at run
    time, as ``monge4.jets.Jet`` did before ``eval_jet`` compiled each tree:
    the derivatives of the elementary functions come from generators, and
    products and compositions from the Leibniz kernels of ``monge4.jets``
    for the pattern of the operands.  With no structural zeros it is plain
    jet arithmetic."""

    __slots__ = ("coeffs", "zeros")

    def __init__(self, coeffs, zeros=0):
        self.coeffs = coeffs
        self.zeros = zeros

    @property
    def order(self):
        return (math.isqrt(8 * len(self.coeffs) + 1) - 3) // 2

    def __add__(self, o):
        return ReferenceJet(tuple(map(operator.add, self.coeffs, o.coeffs)),
                            self.zeros & o.zeros)

    def __neg__(self):
        return ReferenceJet(tuple(map(operator.neg, self.coeffs)), self.zeros)

    def __sub__(self, o):
        return ReferenceJet(tuple(map(operator.sub, self.coeffs, o.coeffs)),
                            self.zeros & o.zeros)

    def scaled(self, s):
        return ReferenceJet(tuple([s * v for v in self.coeffs]), self.zeros)

    def __mul__(self, o):
        fn, zeros = jets._product(self.order, self.zeros, o.zeros)
        return ReferenceJet(fn(self.coeffs, o.coeffs), zeros)

    def __truediv__(self, o):
        return self * o._reciprocal()

    def _reciprocal(self):
        jets._require_nonzero(self.coeffs[0], "division by zero")
        return self._compose(_reciprocal_derivatives(self.coeffs[0]))

    def _compose(self, derivatives):
        order = self.order
        d = list(itertools.islice(derivatives, order + 1))
        h = d[:2] + [d[k] / math.factorial(k) for k in range(2, order + 1)]
        fn, zeros = jets._composition(order, self.zeros)
        return ReferenceJet(fn(self.coeffs, h), zeros)

    def sin(self):
        s, c = _elementary("sin", self.coeffs[0]), _elementary("cos", self.coeffs[0])
        return self._compose(itertools.cycle((s, c, -s, -c)))

    def cos(self):
        s, c = _elementary("sin", self.coeffs[0]), _elementary("cos", self.coeffs[0])
        return self._compose(itertools.cycle((c, -s, -c, s)))

    def tan(self):
        return self._compose(_tan_derivatives(self.coeffs[0]))

    def exp(self):
        return self._compose(itertools.repeat(_elementary("exp", self.coeffs[0])))

    def log(self):
        jets._require_positive(self.coeffs[0], "log")
        return self._compose(itertools.chain(
            (_elementary("log", self.coeffs[0]),),
            _reciprocal_derivatives(self.coeffs[0])))

    def sqrt(self):
        jets._require_positive(self.coeffs[0], "sqrt")
        return self._compose(_sqrt_derivatives(self.coeffs[0]))

    def powi(self, n):
        if n == 0:
            return _reference_constant(1.0, self.order)
        if n < 0:
            return self.powi(-n)._reciprocal()
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def powf(self, p):
        if float(p).is_integer():
            if abs(p) <= jets.POWI_LIMIT:
                return self.powi(int(p))
            jets._require_positive(self.coeffs[0], f"integer power {p:g} (above "
                                   f"the powi limit {jets.POWI_LIMIT})")
        else:
            jets._require_positive(self.coeffs[0], "non-integer power")
        return (self.log().scaled(p)).exp()


def _reference_constant(v, order):
    size = (order + 1) * (order + 2) // 2
    return ReferenceJet((float(v),) + (0.0,) * (size - 1), (1 << size) - 2)


def _reference_variable(which, x0, y0, order, patterns):
    v = x0 if which == "x" else y0
    grid = isinstance(x0, np.ndarray) or isinstance(y0, np.ndarray)
    v = np.array(v, dtype=float) if grid else float(v)
    seeds, live = ((1.0, 0.0), 0b11) if which == "x" else ((0.0, 1.0), 0b101)
    size = (order + 1) * (order + 2) // 2
    return ReferenceJet(((v,) + seeds + (0.0,) * size)[:size],
                        ((1 << size) - 1) & ~live if patterns else 0)


def raw_jet_reference(node, x0, y0, order, *, patterns=True, variable=None):
    """The coefficients of the jet of ``node`` at (x0, y0), before the
    checks of ``eval_jet``, by a walk of the tree in :class:`ReferenceJet`
    arithmetic; or the ``jets._DomainFailure``, ``OverflowError`` or
    ``ValueError`` that stopped it.  Constants have every derivative as a
    structural zero; ``patterns`` gives the coordinate jets theirs too.
    ``variable(which, x0, y0, order)``, when given, makes the coordinate
    jets, with no structural zeros, in place of a float copy of the
    coordinate with float seeds."""
    def walk(node):
        match node:
            case ex.Num(value=v):
                return _reference_constant(v, order)
            case ex.Name(name=n) if n in ex.CONSTANTS:
                return _reference_constant(ex.CONSTANTS[n], order)
            case ex.Name(name=n):
                if variable is not None:
                    return ReferenceJet(variable(n, x0, y0, order).coeffs)
                return _reference_variable(n, x0, y0, order, patterns)
            case ex.Neg(operand=u):
                return -walk(u)
            case ex.BinOp(op=op, lhs=l, rhs=r):
                a, b = walk(l), walk(r)
                return {"+": operator.add, "-": operator.sub, "*": operator.mul,
                        "/": operator.truediv}[op](a, b)
            case ex.Pow(base=b, exponent=p):
                return walk(b).powf(p)
            case ex.Call(func=f, arg=a):
                return getattr(walk(a), f)()
        raise TypeError(f"not an expression node: {node!r}")

    with np.errstate(all="ignore"):
        return walk(node).coeffs


def eval_jet_reference(node, x0, y0, order, **walk):
    """``eval_jet`` on :func:`raw_jet_reference`: the same conversion of
    the failures into ``EvaluationError``, the same finiteness check and
    broadcast."""
    grid = isinstance(x0, np.ndarray) or isinstance(y0, np.ndarray)
    if not grid:
        x0, y0 = float(x0), float(y0)
    try:
        coeffs = raw_jet_reference(node, x0, y0, order, **walk)
    except jets._DomainFailure as err:
        raise EvaluationError(str(err), jets._point_of(x0, y0, err.mask)) from None
    except OverflowError:
        raise EvaluationError("non-finite result (overflow)",
                              jets._point_of(x0, y0, None)) from None
    except ValueError:
        raise EvaluationError("non-finite result",
                              jets._point_of(x0, y0, None)) from None
    if not grid:
        if not all(math.isfinite(c) for c in coeffs):
            raise EvaluationError("non-finite result", (x0, y0))
        return Jet(coeffs)
    if not all(np.isfinite(c).all() for c in coeffs):
        bad = functools.reduce(np.logical_or, (~np.isfinite(c) for c in coeffs))
        raise EvaluationError("non-finite result", jets._point_of(x0, y0, bad))
    shape = np.broadcast(x0, y0).shape
    return Jet(tuple(np.broadcast_to(np.asarray(c, dtype=float), shape)
                     for c in coeffs))


def invariant_gradients(surface, x, y):
    """Delta, kappa and their exact gradients at (x, y), unscaled: the
    fields of ``localgeom.frame_fields`` as order-1 jets, shifted out of the
    order-3 jets of phi and psi, and ||M|| as ``coeff_scale``."""
    x, y = float(x), float(y)
    fl = frame_fields(_derivatives(eval_jet(surface.phi, x, y, 3), 1),
                      _derivatives(eval_jet(surface.psi, x, y, 3), 1))
    scale = coeff_norm(SimpleNamespace(
        a=fl.a.f, b=fl.b.f, c=fl.c.f, e=fl.e.f, f=fl.f.f, g=fl.g.f))
    return SimpleNamespace(
        delta=fl.Delta.f,
        grad_delta=np.array([fl.Delta.fx, fl.Delta.fy]),
        kappa=fl.kappa.f,
        grad_kappa=np.array([fl.kappa.fx, fl.kappa.fy]),
        coeff_scale=float(scale),
    )


def hessian_of_delta_fd(surface, x, y, step=1e-4):
    """Hessian of Delta at (x, y) by central differences of the exact Delta
    gradient with step h and h/2, combined by one Richardson extrapolation,
    then symmetrised.  Entries that overflow are inf or nan."""
    def grad(px, py):
        return invariant_gradients(surface, px, py).grad_delta

    h = step
    cols = []
    for dx, dy in ((1.0, 0.0), (0.0, 1.0)):
        with np.errstate(all="ignore"):
            d_h = (grad(x + h * dx, y + h * dy)
                   - grad(x - h * dx, y - h * dy)) / (2 * h)
            d_h2 = (grad(x + 0.5 * h * dx, y + 0.5 * h * dy)
                    - grad(x - 0.5 * h * dx, y - 0.5 * h * dy)) / h
            cols.append((4.0 * d_h2 - d_h) / 3.0)
    hess = np.column_stack(cols)
    return 0.5 * (hess + hess.T)


def bisect_edges_reference(surface, ax, ay, bx, by, da, db, rounds=40):
    """Vertices of the crossing edges from (ax, ay) to (bx, by) by plain
    bisection: ``rounds`` halvings of t in [0, 1] on the sign of Delta, then
    the midpoint of the last bracket and its |Delta|.  Takes and returns what
    ``locus._refine_edges`` does; db is not used.
    """
    sa = np.sign(da)
    lo = np.zeros(len(ax))
    hi = np.ones(len(ax))
    for _ in range(rounds):
        mid = 0.5 * (lo + hi)
        dm = invariant_grid(surface, ax + (bx - ax) * mid,
                            ay + (by - ay) * mid).Delta
        same = np.sign(dm) == sa
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    mid = 0.5 * (lo + hi)
    mx = ax + (bx - ax) * mid
    my = ay + (by - ay) * mid
    res = np.abs(invariant_grid(surface, mx, my).Delta)
    return mx, my, res


def newton_walkers_reference(surface, px, py, cellx, celly):
    """The roots (x, y, residual) of the walkers started at the seeds
    (px[i], py[i]), by one scalar Newton iteration on (Delta, kappa) per
    seed with the exact Jacobian of :func:`invariant_gradients`.  Takes and
    returns what ``locus._newton_walkers`` does.

    A walker runs the whole NEWTON_ITERATIONS budget and keeps its best
    iterate with residual max(|Delta|/s^4, |kappa|/s^2) at most
    NEWTON_ACCEPT, s = ||M||.  It stops early where s^4 underflows
    to 0, where its Jacobian is singular on the rows scaled to unit length
    or to LAPACK, and where a step leaves the domain by more than a cell.
    """
    xmin, xmax, ymin, ymax = surface.domain
    accepted = []
    for px, py in zip(np.asarray(px).tolist(), np.asarray(py).tolist()):
        root = None
        for _ in range(NEWTON_ITERATIONS):
            g = invariant_gradients(surface, px, py)
            s = g.coeff_scale
            if s ** 4 == 0.0:
                break
            resid = max(abs(g.delta) / s ** 4, abs(g.kappa) / s ** 2)
            if resid <= NEWTON_ACCEPT and (root is None or resid < root[2]):
                root = (px, py, resid)
            (d0, d1), (k0, k1) = g.grad_delta, g.grad_kappa
            nd, nk = math.hypot(d0, d1), math.hypot(k0, k1)
            if not (0.0 < nd < math.inf and 0.0 < nk < math.inf):
                break
            if abs((d0 / nd) * (k1 / nk) - (d1 / nd) * (k0 / nk)) <= 1e-300:
                break
            try:
                step = np.linalg.solve(np.array([g.grad_delta, g.grad_kappa]),
                                       np.array([g.delta, g.kappa]))
            except np.linalg.LinAlgError:
                break
            px -= float(step[0])
            py -= float(step[1])
            if not (xmin - cellx <= px <= xmax + cellx
                    and ymin - celly <= py <= ymax + celly):
                break
        if root is not None and xmin <= root[0] <= xmax and ymin <= root[1] <= ymax:
            accepted.append(root)
    return accepted


def sylvester_delta(a, b, c, e, f, g):
    """Quarter of the 4x4 Sylvester resultant determinant of the quadratics
    a u^2 + 2b uv + c v^2 and e u^2 + 2f uv + g v^2, by LU (np.linalg.det);
    takes equally shaped arrays."""
    a, b, c, e, f, g = np.broadcast_arrays(a, b, c, e, f, g)
    z = np.zeros_like(np.asarray(a, dtype=float))
    m = np.stack([
        np.stack([a, 2.0 * b, c, z], axis=-1),
        np.stack([e, 2.0 * f, g, z], axis=-1),
        np.stack([z, a, 2.0 * b, c], axis=-1),
        np.stack([z, e, 2.0 * f, g], axis=-1),
    ], axis=-2)
    return 0.25 * np.linalg.det(m)


def rank_m(a, b, c, e, f, g, rank_ratio):
    """Rank of M = [[a, b, c], [e, f, g]] from its singular values s1 >= s2:
    0 when M = 0, 1 when s2 <= rank_ratio * s1, else 2.

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
    return np.where(big == 0.0, 0,
                    np.where(det <= rank_ratio ** 2 * s1_sq * s1_sq, 1, 2))


def _normalised_conic(m):
    """The rationals ``m`` (3x3, symmetric) divided by their largest |entry|,
    the sign chosen as ``conics.conic_from_matrix`` chooses it, rounded to
    floats."""
    peak = max(abs(v) for row in m for v in row)
    m = [[v / peak for v in row] for row in m]
    trace = m[0][0] + m[1][1]
    if trace < 0 or (trace == 0 and next(v for row in m for v in row if v) < 0):
        m = [[-v for v in row] for row in m]
    return np.array([[float(v) for v in row] for row in m])


def normal_plane_oracle(a, b, c, e, f, g, rel=cls.REL):
    """The normal plane of M = [[a, b, c], [e, f, g]] (floats), exactly, in
    ``fractions.Fraction``: a namespace of

    * ``char``, the characteristic conic: the matrix of the points n whose
      line n . X = 1 touches the ellipse H + A w, |w| = 1, that is
      (1 - n . H)^2 = |A^T n|^2, [[H H^T - A A^T, -H], [-H^T, 1]];
    * ``ind``, the indicatrix conic (X - H)^T (A A^T)^-1 (X - H) = 1 (None
      where det A = 0);
    * both normalised as ``conics.conic_from_matrix`` does and rounded;
    * ``axes_sq`` = s1^2 + s2^2 = ||A||^2 and ``axes_product`` = s1 s2 =
      |det A| for the semi-axes s1 >= s2, as floats;
    * ``kind``, the characteristic conic's kind by the classifier's bands
      at ``rel``: degenerate where |kappa| <= rel ||M||^2, else ellipse,
      parabola or hyperbola as Delta lies above rel ||M||^4, inside the
      band or below it;
    * ``char_exact``, the matrix of ``char`` before normalising, and
      ``delta`` and ``kappa`` by their formulas, all exact.
    """
    F = fractions.Fraction
    a, b, c, e, f, g = map(F, (a, b, c, e, f, g))
    h3, h4 = (a + c) / 2, (e + g) / 2
    p, q, r, t = (a - c) / 2, b, (e - g) / 2, f
    s11, s12, s22 = p * p + q * q, p * r + q * t, r * r + t * t
    char = [[h3 * h3 - s11, h3 * h4 - s12, -h3],
            [h3 * h4 - s12, h4 * h4 - s22, -h4],
            [-h3, -h4, F(1)]]
    det = p * t - q * r
    ind = None
    if det:
        inv = [[s22 / det ** 2, -s12 / det ** 2], [-s12 / det ** 2, s11 / det ** 2]]
        bh = [inv[0][0] * h3 + inv[0][1] * h4, inv[1][0] * h3 + inv[1][1] * h4]
        ind = _normalised_conic([[inv[0][0], inv[0][1], -bh[0]],
                                 [inv[1][0], inv[1][1], -bh[1]],
                                 [-bh[0], -bh[1], h3 * bh[0] + h4 * bh[1] - 1]])
    msq = a * a + b * b + c * c + e * e + f * f + g * g
    delta = (a * c - b * b) * (e * g - f * f) \
        - (a * g + c * e - 2 * b * f) ** 2 / 4
    kappa = (a - c) * f - (e - g) * b
    band = F(rel)
    if abs(kappa) <= band * msq:
        kind = "degenerate"
    elif delta > band * msq * msq:
        kind = "ellipse"
    elif delta < -band * msq * msq:
        kind = "hyperbola"
    else:
        kind = "parabola"
    return SimpleNamespace(char=_normalised_conic(char), ind=ind,
                           axes_sq=float(s11 + s22), axes_product=float(abs(det)),
                           kind=kind, char_exact=char, delta=delta, kappa=kappa)


def frame_oracle(phi_d, psi_d, digits=800):
    """a..g, W, K, kappa and Delta of :func:`monge4.localgeom.frame_fields`
    from the same float derivatives (fx, fy, fxx, fxy, fyy) of phi and psi,
    in ``decimal`` at ``digits`` significant digits, rounded to floats.

    The formulas are the textbook ones the package avoids: W = E G - F^2,
    and each coefficient a quotient of products of the metric.  At
    |gradient| = 1e70, E G is about 1e280 and W as small as 1, so 300
    digits resolve W; the default leaves room for the degree-9 products.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        px, py, pxx, pxy, pyy = (decimal.Decimal(float(v)) for v in phi_d)
        qx, qy, qxx, qxy, qyy = (decimal.Decimal(float(v)) for v in psi_d)
        E = 1 + px * px + qx * qx
        F = px * py + qx * qy
        G = 1 + py * py + qy * qy
        W = E * G - F * F
        Eh = 1 + px * px + py * py
        Fh = px * qx + py * qy
        sW, sEh = W.sqrt(), Eh.sqrt()
        P = Eh * qxx - Fh * pxx
        Q = Eh * qxy - Fh * pxy
        R = Eh * qyy - Fh * pyy
        a = pxx / (E * sEh)
        b = (E * pxy - F * pxx) / (E * sW * sEh)
        c = (E * E * pyy - 2 * E * F * pxy + F * F * pxx) / (E * W * sEh)
        e = P / (E * sEh * sW)
        f = (E * Q - F * P) / (E * W * sEh)
        g = (E * E * R - 2 * E * F * Q + F * F * P) / (E * W * sW * sEh)
        values = dict(
            a=a, b=b, c=c, e=e, f=f, g=g, W=W,
            K=(a * c - b * b) + (e * g - f * f),
            kappa=(a - c) * f - (e - g) * b,
            Delta=(a * c - b * b) * (e * g - f * f)
            - (a * g + c * e - 2 * b * f) ** 2 / 4)
        return {key: float(v) for key, v in values.items()}


def repr_column(values):
    """``repr(float(v) + 0.0)`` of each value, one Python call per value."""
    return [repr(float(v) + 0.0) for v in values]


def grid_rows_reference(surface, res, rel):
    """Lines of the grid CSV after the header from one whole-grid
    evaluation: y varies in the outer loop, x in the inner one, each real
    printed by ``repr``."""
    xs, ys = grid_axes(surface, res)
    fields = invariant_grid(surface, xs[:, None], ys[None, :])
    check_invariants(fields, (xs[:, None], ys[None, :]))
    labels = cls.class_labels_grid(fields, rel)
    x_text = repr_column(xs)
    lines = []
    for j, y in enumerate(repr_column(ys)):
        lines += [f"{x},{y},{k},{kap},{delta},{label}\n"
                  for x, k, kap, delta, label in zip(
                      x_text, repr_column(fields.K[:, j]),
                      repr_column(fields.kappa[:, j]),
                      repr_column(fields.Delta[:, j]), labels[:, j].tolist())]
    return lines


def selfcheck_report_reference(surface, res):
    """(all_passed, [(name, passed, worst)]) of every cross-check from one
    whole-grid evaluation, with the deviation and the bound taken from each
    check's routes here, not from ``CrossCheck.margin``."""
    xs, ys = grid_axes(surface, res)
    where = (xs[:, None], ys[None, :])
    fields = invariant_grid(surface, *where, order=3)
    msq = coeff_norm(fields) ** 2
    checks = []
    for check in CROSS_CHECKS:
        with np.errstate(all="ignore"):
            u, v, scale = check.routes(fields, msq)
        bad = ~np.isfinite(u - v)
        if bad.any():
            raise EvaluationError("non-finite invariants (overflow)",
                                  jets._first_bad(bad, *where))
        deviation = u - v if check.one_sided else np.abs(u - v)
        bound = check.rel * scale
        checks.append((check.name, bool(np.all(deviation <= bound)),
                       float(np.max(deviation - bound))))
    return all(p for _, p, _ in checks), checks


def _whole_grid(surface, res, order):
    if res < locus.MIN_RESOLUTION:
        raise ValueError(f"grid resolution must be >= {locus.MIN_RESOLUTION}")
    xs, ys = grid_axes(surface, res)
    return xs, ys, invariant_grid(surface, xs[:, None], ys[None, :], order=order)


def trace_parabolic_reference(surface, res, rel=cls.REL):
    """``locus.trace_parabolic`` from one whole-grid evaluation, with the
    sign of Delta at each saddle cell's centre evaluated cell by cell."""
    xs, ys, fields = _whole_grid(surface, res, 2)
    delta = np.asarray(fields.Delta)
    flat = np.abs(delta) <= rel * coeff_norm(fields) ** 4
    live = ~(flat[:-1, :-1] & flat[1:, :-1] & flat[1:, 1:] & flat[:-1, 1:])
    degenerate_cells = [(int(i), int(j)) for i, j in zip(*np.nonzero(~live))]
    pos = delta > 0.0
    neg = delta < 0.0
    h_cross = (pos[:-1, :] & neg[1:, :]) | (neg[:-1, :] & pos[1:, :])
    v_cross = (pos[:, :-1] & neg[:, 1:]) | (neg[:, :-1] & pos[:, 1:])
    south, east = h_cross[:, :-1], v_cross[1:, :]
    north, west = h_cross[:, 1:], v_cross[:-1, :]
    count = south.astype(np.int8) + east + north + west
    used = live & ((count == 2) | (count == 4))
    h_used = np.zeros_like(h_cross)
    h_used[:, :-1] |= used
    h_used[:, 1:] |= used
    v_used = np.zeros_like(v_cross)
    v_used[:-1, :] |= used
    v_used[1:, :] |= used
    hi_idx = np.nonzero(h_cross & h_used)
    vi_idx = np.nonzero(v_cross & v_used)
    crossings = {}
    if hi_idx[0].size or vi_idx[0].size:
        mx, my, resid = locus._refine_edges(
            surface, np.concatenate([xs[hi_idx[0]], xs[vi_idx[0]]]),
            np.concatenate([ys[hi_idx[1]], ys[vi_idx[1]]]),
            np.concatenate([xs[hi_idx[0] + 1], xs[vi_idx[0]]]),
            np.concatenate([ys[hi_idx[1]], ys[vi_idx[1] + 1]]),
            np.concatenate([delta[hi_idx], delta[vi_idx]]),
            np.concatenate([delta[hi_idx[0] + 1, hi_idx[1]],
                            delta[vi_idx[0], vi_idx[1] + 1]]))
        keys = [("h", i, j) for i, j in zip(*(a.tolist() for a in hi_idx))] \
            + [("v", i, j) for i, j in zip(*(a.tolist() for a in vi_idx))]
        crossings = dict(zip(keys, zip(mx.tolist(), my.tolist(),
                                       resid.tolist())))
    segments = []
    for i, j in zip(*(a.tolist() for a in np.nonzero(used))):
        edges = [edge for edge, crossed in (
            (("h", i, j), south[i, j]), (("v", i + 1, j), east[i, j]),
            (("h", i, j + 1), north[i, j]), (("v", i, j), west[i, j]))
            if crossed]
        if len(edges) == 2:
            segments.append((edges[0], edges[1]))
            continue
        s_edge, e_edge, n_edge, w_edge = edges
        centre = invariant_grid(surface, 0.5 * (xs[i] + xs[i + 1]),
                                0.5 * (ys[j] + ys[j + 1])).Delta
        if (float(centre) > 0.0) == bool(pos[i, j]):
            segments += [(s_edge, e_edge), (n_edge, w_edge)]
        else:
            segments += [(s_edge, w_edge), (n_edge, e_edge)]
    return locus.PolylineSet(polylines=link_segments_reference(segments,
                                                               crossings),
                             degenerate_cells=degenerate_cells)


def link_segments_reference(segments, crossings):
    """``locus._link_segments`` as it was: two passes over the sorted keys,
    open chains first, each walked by a closure that marks the directed
    pairs it has taken."""
    adjacency = {}
    for a, b in segments:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)

    visited = set()
    polylines = []

    def _walk(start, first):
        chain = [start, first]
        visited.add((start, first))
        visited.add((first, start))
        while True:
            nxt = [k for k in adjacency[chain[-1]]
                   if (chain[-1], k) not in visited]
            if not nxt:
                return chain, False
            k = nxt[0]
            visited.add((chain[-1], k))
            visited.add((k, chain[-1]))
            if k == chain[0]:
                return chain, True
            chain.append(k)

    # open chains first (endpoints have a single neighbour)
    keys = sorted(adjacency.keys())
    for key in keys:
        if len(adjacency[key]) == 1:
            nb = adjacency[key][0]
            if (key, nb) in visited:
                continue
            chain, closed = _walk(key, nb)
            polylines.append((chain, closed))
    for key in keys:
        for nb in adjacency[key]:
            if (key, nb) in visited:
                continue
            chain, closed = _walk(key, nb)
            polylines.append((chain, closed))

    out = []
    for chain, closed in polylines:
        pts = np.array([[crossings[k][0], crossings[k][1]] for k in chain])
        res = np.array([crossings[k][2] for k in chain])
        out.append(locus.Polyline(points=pts, residuals=res, closed=closed))
    return out


def find_inflections_reference(surface, res, rel=cls.REL):
    """``locus.find_inflections`` from one whole-grid evaluation of order 3:
    the seeds are the minima of the scaled residual over the whole grid
    that pass the seed test, capped at MAX_SEEDS by one stable sort.

    The search evaluates its tiles at order 2 and third derivatives at the
    minima only; this reference takes them from the grid, so every
    comparison with it also checks that the two give the same bits.  It
    fails at the grid's first point where a third derivative overflows,
    where the search names the first such minimum, or succeeds."""
    xs, ys, fields = _whole_grid(surface, res, 3)
    resid_field = locus._residual_field(fields)
    padded = np.full((res + 2, res + 2), np.inf)
    padded[1:-1, 1:-1] = resid_field
    is_min = np.ones_like(resid_field, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                is_min &= resid_field <= padded[1 + di:res + 1 + di,
                                                1 + dj:res + 1 + dj]
    at_min = np.nonzero(is_min)
    grads, m = scaled_jets(*(Jet(tuple(c[at_min] for c in jet.coeffs))
                             for jet in (fields.jet_phi, fields.jet_psi)), 1)
    xmin, xmax, ymin, ymax = surface.domain
    cellx = (xmax - xmin) / (res - 1)
    celly = (ymax - ymin) / (res - 1)
    cell = float(np.hypot(cellx, celly))
    rho = 1.5 * cell
    gd = np.hypot(grads.Delta.fx, grads.Delta.fy)
    gk = np.hypot(grads.kappa.fx, grads.kappa.fy)
    seed_mask = np.zeros_like(is_min)
    seed_mask[at_min] = \
        (np.abs(m.Delta) <= np.maximum(locus.SEED_BAND * m.msq ** 2, gd * rho)) \
        & (np.abs(m.kappa) <= np.maximum(locus.SEED_BAND * m.msq, gk * rho))
    seeds = np.argwhere(seed_mask)
    if len(seeds) > locus.MAX_SEEDS:
        order = np.argsort(resid_field[seed_mask], kind="stable")
        seeds = seeds[order[:locus.MAX_SEEDS]]
    accepted = locus._newton_walkers(surface, xs[seeds[:, 0]], ys[seeds[:, 1]],
                                     cellx, celly)
    accepted.sort(key=lambda r: r[2])
    unique = []
    for r in accepted:
        if all(np.hypot(r[0] - u[0], r[1] - u[1]) > cell for u in unique):
            unique.append(r)
    reports = []
    for px, py, resid in unique:
        inv = local_invariants(surface, px, py)
        label = cls.class_labels_grid(inv, rel)
        if label.rank > 1:
            continue
        with np.errstate(invalid="ignore"):
            det_hd = float(np.linalg.det(cls.hessian_of_delta(surface, px, py)))
        reports.append(locus.InflectionReport(
            x=px, y=py, kind=label.k_type, K=inv.K, det_hessian_delta=det_hd,
            residual=resid))
    reports.sort(key=lambda r: (r.x, r.y))
    return reports
