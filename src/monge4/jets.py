"""Truncated Taylor (jet) arithmetic in two variables.

``Jet3`` carries the value and all partial derivatives up to order 3 of a
scalar function of (x, y) at a point.  Arithmetic follows the Leibniz and
chain rules exactly, so evaluating an expression tree in ``Jet3`` arithmetic
yields the analytic derivatives up to floating rounding.  Coefficients may be
Python floats (point evaluation) or numpy arrays (grid evaluation); the same
code path serves both.

``Dual2`` is the order-1 analogue, used to push exact first derivatives
through formulas whose inputs are jet coefficients (e.g. gradients of derived
scalar fields whose coefficients already are second derivatives).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import EvaluationError

__all__ = ["Jet3", "Dual2", "eval_jet3", "jet_constant", "jet_variable"]


# largest |exponent| of an integer power taken by repeated squaring; above
# it x^n is exp(n log x), defined for x > 0 only
POWI_LIMIT = 512


def _sin(v):
    return math.sin(v) if type(v) is float else np.sin(v)


def _cos(v):
    return math.cos(v) if type(v) is float else np.cos(v)


def _tan(v):
    return math.tan(v) if type(v) is float else np.tan(v)


def _exp(v):
    return math.exp(v) if type(v) is float else np.exp(v)


def _log(v):
    return math.log(v) if type(v) is float else np.log(v)


def _sqrt(v):
    return math.sqrt(v) if type(v) is float else np.sqrt(v)


class _DomainFailure(Exception):
    """Internal: a jet operation left the function's domain.

    ``mask`` marks the offending points of an array-valued jet (None for
    scalars); it may have any shape that broadcasts to the grid.  The
    expression evaluator converts this into an :class:`EvaluationError`
    carrying the first such grid point.
    """

    def __init__(self, message, mask=None):
        super().__init__(message)
        self.mask = mask


def _require_positive(v, what):
    if type(v) is float:
        if not (v > 0.0):
            raise _DomainFailure(f"{what} of non-positive value {v!r}")
        return
    bad = ~(np.asarray(v) > 0.0)
    if bad.any():
        raise _DomainFailure(f"{what} of non-positive value", bad)


def _require_nonzero(v, what):
    if type(v) is float:
        if v == 0.0:
            raise _DomainFailure(what)
        return
    bad = np.asarray(v) == 0.0
    if bad.any():
        raise _DomainFailure(what, bad)


@dataclass(frozen=True)
class Jet3:
    """Value and partial derivatives up to order 3 at a point.

    Mixed partials are stored once (symmetry is structural).
    """

    f: object
    fx: object = 0.0
    fy: object = 0.0
    fxx: object = 0.0
    fxy: object = 0.0
    fyy: object = 0.0
    fxxx: object = 0.0
    fxxy: object = 0.0
    fxyy: object = 0.0
    fyyy: object = 0.0

    # -- ring operations ------------------------------------------------
    def __add__(self, o):
        if not isinstance(o, Jet3):
            o = jet_constant(o)
        return Jet3(self.f + o.f, self.fx + o.fx, self.fy + o.fy,
                    self.fxx + o.fxx, self.fxy + o.fxy, self.fyy + o.fyy,
                    self.fxxx + o.fxxx, self.fxxy + o.fxxy,
                    self.fxyy + o.fxyy, self.fyyy + o.fyyy)

    __radd__ = __add__

    def __neg__(self):
        return Jet3(-self.f, -self.fx, -self.fy, -self.fxx, -self.fxy,
                    -self.fyy, -self.fxxx, -self.fxxy, -self.fxyy, -self.fyyy)

    def __sub__(self, o):
        if not isinstance(o, Jet3):
            o = jet_constant(o)
        return Jet3(self.f - o.f, self.fx - o.fx, self.fy - o.fy,
                    self.fxx - o.fxx, self.fxy - o.fxy, self.fyy - o.fyy,
                    self.fxxx - o.fxxx, self.fxxy - o.fxxy,
                    self.fxyy - o.fxyy, self.fyyy - o.fyyy)

    def __rsub__(self, o):
        return jet_constant(o) - self

    def scaled(self, s):
        return Jet3(s * self.f, s * self.fx, s * self.fy, s * self.fxx,
                    s * self.fxy, s * self.fyy, s * self.fxxx, s * self.fxxy,
                    s * self.fxyy, s * self.fyyy)

    def __mul__(self, o):
        if not isinstance(o, Jet3):
            return self.scaled(o)
        if _is_constant(o):
            return self.scaled(o.f)
        if _is_constant(self):
            return o.scaled(self.f)
        a, b = self, o
        return Jet3(
            a.f * b.f,
            a.fx * b.f + a.f * b.fx,
            a.fy * b.f + a.f * b.fy,
            a.fxx * b.f + 2.0 * a.fx * b.fx + a.f * b.fxx,
            a.fxy * b.f + a.fx * b.fy + a.fy * b.fx + a.f * b.fxy,
            a.fyy * b.f + 2.0 * a.fy * b.fy + a.f * b.fyy,
            a.fxxx * b.f + 3.0 * a.fxx * b.fx + 3.0 * a.fx * b.fxx + a.f * b.fxxx,
            a.fxxy * b.f + a.fxx * b.fy + 2.0 * a.fxy * b.fx
            + 2.0 * a.fx * b.fxy + a.fy * b.fxx + a.f * b.fxxy,
            a.fxyy * b.f + a.fyy * b.fx + 2.0 * a.fxy * b.fy
            + 2.0 * a.fy * b.fxy + a.fx * b.fyy + a.f * b.fxyy,
            a.fyyy * b.f + 3.0 * a.fyy * b.fy + 3.0 * a.fy * b.fyy + a.f * b.fyyy,
        )

    def __rmul__(self, o):
        return self.scaled(o)

    def __truediv__(self, o):
        if not isinstance(o, Jet3):
            return self.scaled(1.0 / o)
        return self * o._reciprocal()

    def __rtruediv__(self, o):
        return self._reciprocal().scaled(o)

    def _reciprocal(self):
        _require_nonzero(self.f, "division by zero")
        r = 1.0 / self.f
        r2 = r * r
        return self._compose(r, -r2, 2.0 * r2 * r, -6.0 * r2 * r2)

    # -- composition with a scalar function ------------------------------
    def _compose(self, d0, d1, d2, d3):
        """Jet of u(f) from the derivative values d_k = u^(k)(f) at the point.

        Order-3 Faa di Bruno: u(f) = d0 + d1 p + d2/2 p^2 + d3/6 p^3, where p
        is this jet with its constant part removed.  p^2 and p^3 are written
        out without the products that contain p's zero constant term; the
        remaining products are summed in the order of the Leibniz rule.
        """
        fx, fy, fxx, fxy, fyy = self.fx, self.fy, self.fxx, self.fxy, self.fyy
        # p^2: its value and first derivatives vanish
        s_xx = 2.0 * fx * fx
        s_xy = fx * fy + fy * fx
        s_yy = 2.0 * fy * fy
        s_xxx = 3.0 * fxx * fx + 3.0 * fx * fxx
        s_xxy = fxx * fy + 2.0 * fxy * fx + 2.0 * fx * fxy + fy * fxx
        s_xyy = fyy * fx + 2.0 * fxy * fy + 2.0 * fy * fxy + fx * fyy
        s_yyy = 3.0 * fyy * fy + 3.0 * fy * fyy
        # p^3 = p^2 p: only its third derivatives survive
        h2 = d2 / 2.0
        h3 = d3 / 6.0
        return Jet3(
            d0,
            d1 * fx,
            d1 * fy,
            d1 * fxx + h2 * s_xx,
            d1 * fxy + h2 * s_xy,
            d1 * fyy + h2 * s_yy,
            d1 * self.fxxx + h2 * s_xxx + h3 * (3.0 * s_xx * fx),
            d1 * self.fxxy + h2 * s_xxy + h3 * (s_xx * fy + 2.0 * s_xy * fx),
            d1 * self.fxyy + h2 * s_xyy + h3 * (s_yy * fx + 2.0 * s_xy * fy),
            d1 * self.fyyy + h2 * s_yyy + h3 * (3.0 * s_yy * fy),
        )

    def sin(self):
        s, c = _sin(self.f), _cos(self.f)
        return self._compose(s, c, -s, -c)

    def cos(self):
        s, c = _sin(self.f), _cos(self.f)
        return self._compose(c, -s, -c, s)

    def tan(self):
        t = _tan(self.f)
        sec2 = 1.0 + t * t
        return self._compose(t, sec2, 2.0 * t * sec2, sec2 * (2.0 + 6.0 * t * t))

    def exp(self):
        v = _exp(self.f)
        return self._compose(v, v, v, v)

    def log(self):
        _require_positive(self.f, "log")
        r = 1.0 / self.f
        return self._compose(_log(self.f), r, -r * r, 2.0 * r * r * r)

    def sqrt(self):
        _require_positive(self.f, "sqrt")
        s = _sqrt(self.f)
        d1 = 0.5 / s
        d2 = -0.5 * d1 / self.f
        d3 = -1.5 * d2 / self.f
        return self._compose(s, d1, d2, d3)

    def powi(self, n: int):
        """Integer power by repeated squaring (keeps polynomials exact)."""
        if n == 0:
            return jet_constant(1.0)
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

    def powf(self, p: float):
        if float(p).is_integer():
            if abs(p) <= POWI_LIMIT:
                return self.powi(int(p))
            _require_positive(self.f, f"integer power {p:g} (above the powi "
                                      f"limit {POWI_LIMIT})")
        else:
            _require_positive(self.f, "non-integer power")
        return (self.log().scaled(p)).exp()

    def coeffs(self):
        return (self.f, self.fx, self.fy, self.fxx, self.fxy, self.fyy,
                self.fxxx, self.fxxy, self.fxyy, self.fyyy)


def _is_constant(j: Jet3) -> bool:
    """True when every derivative coefficient is the float 0.0, as
    :func:`jet_constant` makes them; a product with such a jet is a scaling."""
    for c in (j.fx, j.fy, j.fxx, j.fxy, j.fyy, j.fxxx, j.fxxy, j.fxyy, j.fyyy):
        if type(c) is not float or c != 0.0:
            return False
    return True


def jet_constant(v) -> Jet3:
    return Jet3(v if type(v) is float or isinstance(v, np.ndarray) else float(v))


def jet_variable(which: str, x0, y0) -> Jet3:
    """Jet of the coordinate function 'x' or 'y' at (x0, y0).  On arrays the
    value is a float copy of that coordinate in its own shape (an axis such
    as ``xs[:, None]`` stays one), and the seeds are the floats 1.0 and 0.0."""
    v = x0 if which == "x" else y0
    grid = isinstance(x0, np.ndarray) or isinstance(y0, np.ndarray)
    v = np.array(v, dtype=float) if grid else float(v)
    return Jet3(v, 1.0, 0.0) if which == "x" else Jet3(v, 0.0, 1.0)


@dataclass(frozen=True)
class Dual2:
    """First-order dual number in two directions: value plus gradient."""

    val: object
    dx: object = 0.0
    dy: object = 0.0

    def __add__(self, o):
        if not isinstance(o, Dual2):
            return Dual2(self.val + o, self.dx, self.dy)
        return Dual2(self.val + o.val, self.dx + o.dx, self.dy + o.dy)

    __radd__ = __add__

    def __neg__(self):
        return Dual2(-self.val, -self.dx, -self.dy)

    def __sub__(self, o):
        if not isinstance(o, Dual2):
            return Dual2(self.val - o, self.dx, self.dy)
        return Dual2(self.val - o.val, self.dx - o.dx, self.dy - o.dy)

    def __rsub__(self, o):
        return Dual2(o - self.val, -self.dx, -self.dy)

    def __mul__(self, o):
        if not isinstance(o, Dual2):
            return Dual2(self.val * o, self.dx * o, self.dy * o)
        return Dual2(self.val * o.val,
                     self.dx * o.val + self.val * o.dx,
                     self.dy * o.val + self.val * o.dy)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not isinstance(o, Dual2):
            r = 1.0 / o
            return Dual2(self.val * r, self.dx * r, self.dy * r)
        r = 1.0 / o.val
        v = self.val * r
        return Dual2(v, (self.dx - v * o.dx) * r, (self.dy - v * o.dy) * r)

    def __rtruediv__(self, o):
        r = 1.0 / self.val
        v = o * r
        return Dual2(v, -v * self.dx * r, -v * self.dy * r)

    def __pow__(self, n):
        if not (isinstance(n, int) and n >= 0):
            raise TypeError("Dual2 only supports small non-negative integer powers")
        out = Dual2(1.0)
        for _ in range(n):
            out = out * self
        return out

    def sqrt(self):
        s = _sqrt(self.val)
        h = 0.5 / s
        return Dual2(s, self.dx * h, self.dy * h)


def generic_sqrt(v):
    """sqrt usable on floats, numpy arrays and Dual2 alike."""
    if isinstance(v, Dual2):
        return v.sqrt()
    return _sqrt(v)


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------

def _point_of(x0, y0, mask):
    """The failing point: (x0, y0) for scalars; on a grid the first point
    where ``mask`` (broadcast to the grid) holds, in row-major order, or None
    when there is no mask (a constant subexpression failed)."""
    if not isinstance(x0, np.ndarray) and not isinstance(y0, np.ndarray):
        return (x0, y0)
    if mask is None:
        return None
    bx, by = np.broadcast_arrays(x0, y0)
    index = int(np.argmax(np.broadcast_to(mask, bx.shape).ravel()))
    return (float(bx.ravel()[index]), float(by.ravel()[index]))


def eval_jet3(expression: ex.Expr, x0, y0) -> Jet3:
    """Evaluate an expression as an order-3 jet at (x0, y0).

    ``x0``/``y0`` may be floats or numpy arrays whose shapes broadcast; in
    the array case every jet coefficient is an array of the broadcast shape.
    Grid passes give the axes (``xs[:, None]``, ``ys[None, :]``): a
    subexpression of one coordinate is then evaluated on that axis only, and
    coefficients that do not vary along an axis come back as read-only
    broadcast views.  Domain violations (log/sqrt of a non-positive value,
    tan pole, division by zero) and non-finite results raise
    :class:`EvaluationError` carrying the offending point.
    """
    grid = isinstance(x0, np.ndarray) or isinstance(y0, np.ndarray)
    if not grid:
        x0, y0 = float(x0), float(y0)
    try:
        with np.errstate(all="ignore"):
            jet = _eval(expression, x0, y0)
    except _DomainFailure as err:
        raise EvaluationError(str(err), _point_of(x0, y0, err.mask)) from None
    except OverflowError:
        raise EvaluationError("non-finite result (overflow)",
                              _point_of(x0, y0, None)) from None
    except ValueError:  # math.sin/cos/tan of an infinite float
        raise EvaluationError("non-finite result",
                              _point_of(x0, y0, None)) from None
    if not grid:
        for coeff in jet.coeffs():
            if not math.isfinite(coeff):
                raise EvaluationError("non-finite result", (x0, y0))
        return jet
    for coeff in jet.coeffs():
        bad = ~np.isfinite(coeff)
        if bad.any():
            raise EvaluationError("non-finite result", _point_of(x0, y0, bad))
    # constant subexpressions evaluate to scalar coefficients and one-axis
    # ones to axis-shaped arrays; make the jet uniformly grid-shaped
    shape = np.broadcast(x0, y0).shape
    return Jet3(*(np.broadcast_to(np.asarray(c, dtype=float), shape)
                  for c in jet.coeffs()))


def _eval(node: ex.Expr, x0, y0) -> Jet3:
    match node:
        case ex.Num(value=v):
            return jet_constant(v)
        case ex.Name(name=n):
            if n in ex.CONSTANTS:
                return jet_constant(ex.CONSTANTS[n])
            return jet_variable(n, x0, y0)
        case ex.Neg(operand=u):
            return -_eval(u, x0, y0)
        case ex.BinOp(op=op, lhs=l, rhs=r):
            a = _eval(l, x0, y0)
            b = _eval(r, x0, y0)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            return a / b
        case ex.Pow(base=b, exponent=p):
            return _eval(b, x0, y0).powf(p)
        case ex.Call(func=f, arg=a):
            return getattr(_eval(a, x0, y0), f)()
    raise TypeError(f"not an expression node: {node!r}")
