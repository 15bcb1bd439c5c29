"""Independent numerical oracles used by the test suite.

Everything here works from plain value evaluations of Python callables with
central finite differences, deliberately sharing no derivative machinery and
no closed-form coefficient formulas with the package: the geometric oracle
builds frames by Gram-Schmidt and projects second derivatives per the
definition of the second fundamental form.

The exceptions are :func:`evolvent_reference`, the per-direction loop body
that ``conics._evolvent_sweep`` batches, and :func:`jet_variable_reference`,
coordinate jets with full-array seeds; the package must reproduce both bit
for bit.
"""

from __future__ import annotations

import numpy as np

from monge4 import conics
from monge4 import expr as ex
from monge4.jets import Jet3

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "tan": np.tan,
              "exp": np.exp, "log": np.log, "sqrt": np.sqrt}


def eval_value(node: ex.Expr, x0, y0):
    """Plain value of a parsed expression at (x0, y0), without derivatives.

    Outside a function's domain it returns whatever Python or numpy give
    (nan, inf or an exception); it does not raise the package's
    EvaluationError the way eval_jet3 does.
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


def jet_variable_reference(which, x0, y0):
    """Jet of the coordinate 'x' or 'y' on arrays, with the value and both
    first-derivative seeds as full arrays of the broadcast grid shape (ones
    and zeros).  ``jets.jet_variable`` keeps the coordinate's own shape and
    seeds with the floats 1.0 and 0.0; evaluations must agree under ==.
    """
    one = np.ones(np.broadcast(x0, y0).shape)
    val = np.broadcast_to(x0 if which == "x" else y0, one.shape).astype(float)
    if which == "x":
        return Jet3(val, one, one * 0.0)
    return Jet3(val, one * 0.0, one)
