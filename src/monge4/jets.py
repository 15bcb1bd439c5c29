"""Truncated Taylor (jet) arithmetic in two variables.

A :class:`Jet` of order n carries the value and every partial derivative up
to order n of a scalar function of (x, y) at a point, in graded order
f, fx, fy, fxx, fxy, fyy, fxxx, ...  Arithmetic follows the Leibniz and
chain rules exactly, so evaluating an expression tree in jet arithmetic
yields the analytic derivatives up to floating rounding.  Coefficients may be
Python floats (point evaluation) or numpy arrays (grid evaluation), each in
its own broadcast shape; the same code path serves both.

A jet also knows its structural zeros, the derivatives that vanish by
construction: those in y of a function of x alone, those of a constant, and
those above the degree of a polynomial.  Products and compositions are
compiled per pattern of structural zeros and never form a term that holds
one, so the product of a factor in x alone and a factor in y alone costs one
product per coefficient instead of the whole Leibniz table.

:meth:`Jet.shift` turns the jet of phi into the jet of a partial derivative
of phi by re-indexing alone, so a formula in the derivatives of phi and psi
runs on jets and returns the exact derivatives of its result: order-1 shifts
of order-3 jets give gradients, order-2 shifts of order-4 jets Hessians
(forward-mode Taylor arithmetic: Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from . import expr as ex
from .errors import EvaluationError

__all__ = ["Jet", "eval_jet", "jet_constant", "jet_variable", "sqrt"]


# largest |exponent| of an integer power taken by repeated squaring; above
# it x^n is exp(n log x), defined for x > 0 only
POWI_LIMIT = 512


def _elementary(name, v):
    """math's function ``name`` on a Python float, numpy's on an array."""
    return getattr(math if type(v) is float else np, name)(v)


def sqrt(v):
    """Square root of a float, an array or a :class:`Jet`, elementwise.

    A jet's value is not checked against the domain here, as
    :meth:`Jet.sqrt` does: a nan value gives nan coefficients.
    """
    if isinstance(v, Jet):
        return v._compose(_sqrt_derivatives(v.f))
    return _elementary("sqrt", v)


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


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------

@functools.cache
def _indices(order):
    """(i, j) of the coefficients of an order-n jet in graded order: the
    coefficient at position k is d^(i+j) f / dx^i dy^j."""
    return tuple((d - j, j) for d in range(order + 1) for j in range(d + 1))


def _position(i, j):
    d = i + j
    return d * (d + 1) // 2 + j


def _leibniz_source(i, j, left, right, zl, zr):
    """Python source of d^(i+j)(uv) / dx^i dy^j by the Leibniz rule: the
    sum, left to right, of w * u_(k,l) * v_(i-k,j-l) in descending k then l
    when i >= j, in descending l then k otherwise.  ``left`` and ``right``
    format a position of u and v as an operand.  The set bits of ``zl`` and
    ``zr`` mark the structural zeros of u and v by position; the terms that
    contain one are left out, and "" stands for a sum with no terms left."""
    pairs = [(k, l) for k in range(i, -1, -1) for l in range(j, -1, -1)]
    if i < j:
        pairs.sort(key=lambda kl: (-kl[1], -kl[0]))
    terms = []
    for k, l in pairs:
        p, q = _position(k, l), _position(i - k, j - l)
        if zl >> p & 1 or zr >> q & 1:
            continue
        w = math.comb(i, k) * math.comb(j, l)
        terms.append(("" if w == 1 else f"{w}.0 * ")
                     + f"{left.format(p)} * {right.format(q)}")
    return " + ".join(terms)


def _compile(source, name):
    namespace = {}
    exec(source, namespace)  # source built from the Leibniz tables above
    return namespace[name]


def _zeros_of(items):
    """The pattern of structural zeros of coefficient sources: the
    positions whose sum has no terms."""
    return sum(1 << p for p, item in enumerate(items) if not item)


def _tuple_source(items):
    return f"({', '.join(item or '0.0' for item in items)},)"


# The product and the composition of each order and each pattern of
# structural zeros are compiled once, from its Leibniz table, into
# straight-line code that returns the coefficients and their pattern: on
# Python floats, a loop over the table costs about as much again as the
# arithmetic, and a term with a structural zero is never formed.  The
# coefficients that are not structural zeros form a down-set of the (i, j)
# triangle (seeds do, and sums, products and compositions keep it), so there
# are at most 132 patterns at order 4 and the caches stay small.

@functools.cache
def _product(order, za, zb):
    """The coefficients of the product of two order-n jets whose structural
    zeros are ``za`` and ``zb``, and their own structural zeros, as a
    function of the two coefficient tuples.  Against a constant, whose
    derivatives are all structural zeros, it is a scaling; the product of a
    jet in x alone and one in y alone has one term per coefficient."""
    items = [_leibniz_source(i, j, "a[{}]", "b[{}]", za, zb)
             for i, j in _indices(order)]
    return _compile(f"def product(a, b):\n    return {_tuple_source(items)}, "
                    f"{_zeros_of(items)}\n", "product")


@functools.cache
def _composition(order, zc):
    """The coefficients of u(f) for an order-n jet f with structural zeros
    ``zc``, and their own structural zeros, as a function of f's
    coefficients c and h = (h_0, ..., h_n), h_k = u^(k)(f) / k!.

    u(f) = h_0 + sum_k h_k p^k, where p is f less its value.  p^k has
    structural zeros at every degree below k and wherever its factors leave
    no term; each power is formed as p^(k-1) p without the terms that
    contain one.
    """
    power = ["", "c[{}]"] + [f"p{k}_{{}}" for k in range(2, order + 1)]
    zeros = [0, zc | 1]  # p's value is zero
    lines = []
    for k in range(2, order + 1):
        items = [_leibniz_source(i, j, power[k - 1], "c[{}]", zeros[k - 1],
                                 zeros[1]) for i, j in _indices(order)]
        lines += [f"    {power[k].format(p)} = {item}\n"
                  for p, item in enumerate(items) if item]
        zeros.append(_zeros_of(items))
    items = ["h[0]"] + [" + ".join(f"h[{k}] * {power[k].format(p)}"
                                   for k in range(1, i + j + 1)
                                   if not zeros[k] >> p & 1)
                        for p, (i, j) in enumerate(_indices(order)) if p]
    return _compile("def composition(c, h):\n" + "".join(lines)
                    + f"    return {_tuple_source(items)}, {_zeros_of(items)}\n",
                    "composition")


# derivatives u^(k)(f), k = 0, 1, 2, ..., of the elementary functions

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
    s = sqrt(f)
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


class Jet:
    """Value and partial derivatives up to some order at a point.

    ``coeffs`` holds them in graded order (f, fx, fy, fxx, fxy, fyy, ...);
    mixed partials are stored once.  Jets in one computation share their
    order.  The set bits of ``zeros`` mark structural zeros by position:
    derivatives that vanish identically by construction, such as those in y
    of a function of x alone.  Only :func:`jet_constant` and
    :func:`jet_variable` set them, and every operation carries them on; a
    coefficient that merely computes to zero is not one, so that 0 * inf
    still gives nan.
    """

    __slots__ = ("coeffs", "zeros")

    def __init__(self, coeffs, zeros=0):
        self.coeffs = coeffs
        self.zeros = zeros

    @property
    def order(self):
        return (math.isqrt(8 * len(self.coeffs) + 1) - 3) // 2

    # the coefficients up to order 3 by name
    f, fx, fy, fxx, fxy, fyy, fxxx, fxxy, fxyy, fyyy = (
        property(lambda self, k=k: self.coeffs[k]) for k in range(10))

    def shift(self, i: int, j: int, order: int) -> "Jet":
        """The order-``order`` jet of d^(i+j) f / dx^i dy^j: its (k, l)
        coefficient is this jet's (k + i, l + j).  Needs i + j + order at
        most this jet's order."""
        c = self.coeffs
        return Jet(tuple([c[_position(k + i, l + j)] for k, l in _indices(order)]))

    # -- ring operations ------------------------------------------------
    # a scalar operand changes the value only
    def __add__(self, o):
        if not isinstance(o, Jet):
            return Jet((self.coeffs[0] + o,) + self.coeffs[1:], self.zeros)
        return Jet(tuple(map(operator.add, self.coeffs, o.coeffs)),
                   self.zeros & o.zeros)

    __radd__ = __add__

    def __neg__(self):
        return Jet(tuple(map(operator.neg, self.coeffs)), self.zeros)

    def __sub__(self, o):
        if not isinstance(o, Jet):
            return Jet((self.coeffs[0] - o,) + self.coeffs[1:], self.zeros)
        return Jet(tuple(map(operator.sub, self.coeffs, o.coeffs)),
                   self.zeros & o.zeros)

    def scaled(self, s):
        """s times the jet, for a finite float s."""
        return Jet(tuple([s * v for v in self.coeffs]), self.zeros)

    def __mul__(self, o):
        if not isinstance(o, Jet):
            return self.scaled(o)
        return Jet(*_product(self.order, self.zeros, o.zeros)(self.coeffs,
                                                              o.coeffs))

    __rmul__ = scaled

    def __truediv__(self, o):
        if not isinstance(o, Jet):
            return self.scaled(1.0 / o)
        return self * o._reciprocal()

    def _reciprocal(self):
        _require_nonzero(self.f, "division by zero")
        return self._compose(_reciprocal_derivatives(self.f))

    # -- composition with a scalar function ------------------------------
    def _compose(self, derivatives):
        """Jet of u(f) from the derivatives u^(k)(f), k = 0, 1, ..., at
        this jet's value (an iterable; the first order + 1 are used)."""
        order = self.order
        d = list(itertools.islice(derivatives, order + 1))
        h = d[:2] + [d[k] / math.factorial(k) for k in range(2, order + 1)]
        return Jet(*_composition(order, self.zeros)(self.coeffs, h))

    def sin(self):
        s, c = _elementary("sin", self.f), _elementary("cos", self.f)
        return self._compose(itertools.cycle((s, c, -s, -c)))

    def cos(self):
        s, c = _elementary("sin", self.f), _elementary("cos", self.f)
        return self._compose(itertools.cycle((c, -s, -c, s)))

    def tan(self):
        return self._compose(_tan_derivatives(self.f))

    def exp(self):
        return self._compose(itertools.repeat(_elementary("exp", self.f)))

    def log(self):
        _require_positive(self.f, "log")
        return self._compose(itertools.chain(
            (_elementary("log", self.f),), _reciprocal_derivatives(self.f)))

    def sqrt(self):
        _require_positive(self.f, "sqrt")
        return sqrt(self)

    def powi(self, n: int):
        """Integer power by repeated squaring (keeps polynomials exact)."""
        if n == 0:
            return jet_constant(1.0, self.order)
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

    __pow__ = powi

    def powf(self, p: float):
        if float(p).is_integer():
            if abs(p) <= POWI_LIMIT:
                return self.powi(int(p))
            _require_positive(self.f, f"integer power {p:g} (above the powi "
                                      f"limit {POWI_LIMIT})")
        else:
            _require_positive(self.f, "non-integer power")
        return (self.log().scaled(p)).exp()


def jet_constant(v, order: int) -> Jet:
    """Jet of a constant: every derivative is a structural zero."""
    v = v if type(v) is float or isinstance(v, np.ndarray) else float(v)
    size = len(_indices(order))
    return Jet((v,) + (0.0,) * (size - 1), (1 << size) - 2)


def jet_variable(which: str, x0, y0, order: int) -> Jet:
    """Jet of the coordinate function 'x' or 'y' at (x0, y0).  On arrays the
    value is a float copy of that coordinate in its own shape (an axis such
    as ``xs[:, None]`` stays one), and the seeds are the floats 1.0 and 0.0.
    Every derivative but its own first one is a structural zero."""
    v = x0 if which == "x" else y0
    grid = isinstance(x0, np.ndarray) or isinstance(y0, np.ndarray)
    v = np.array(v, dtype=float) if grid else float(v)
    seeds, live = ((1.0, 0.0), 0b11) if which == "x" else ((0.0, 1.0), 0b101)
    size = len(_indices(order))
    return Jet(((v,) + seeds + (0.0,) * size)[:size],
               ((1 << size) - 1) & ~live)


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


def eval_jet(expression: ex.Expr, x0, y0, order: int) -> Jet:
    """Evaluate an expression as a jet of the given order at (x0, y0).

    ``x0``/``y0`` may be floats or numpy arrays whose shapes broadcast; in
    the array case every jet coefficient is an array of the broadcast shape.
    Grid passes give the axes (``xs[:, None]``, ``ys[None, :]``): a
    subexpression of one coordinate is then evaluated on that axis only, and
    coefficients that do not vary along an axis come back as read-only
    broadcast views.  Domain violations (log/sqrt of a non-positive value,
    tan pole, division by zero) and non-finite coefficients raise
    :class:`EvaluationError` carrying the offending point; derivatives
    above ``order`` are never formed, so they cannot fail.
    """
    grid = isinstance(x0, np.ndarray) or isinstance(y0, np.ndarray)
    if not grid:
        x0, y0 = float(x0), float(y0)
    try:
        with np.errstate(all="ignore"):
            jet = _eval(expression, x0, y0, order)
    except _DomainFailure as err:
        raise EvaluationError(str(err), _point_of(x0, y0, err.mask)) from None
    except OverflowError:
        raise EvaluationError("non-finite result (overflow)",
                              _point_of(x0, y0, None)) from None
    except ValueError:  # math.sin/cos/tan of an infinite float
        raise EvaluationError("non-finite result",
                              _point_of(x0, y0, None)) from None
    if not grid:
        for coeff in jet.coeffs:
            if not math.isfinite(coeff):
                raise EvaluationError("non-finite result", (x0, y0))
        return jet
    if not all(np.isfinite(c).all() for c in jet.coeffs):
        bad = functools.reduce(np.logical_or, (~np.isfinite(c) for c in jet.coeffs))
        raise EvaluationError("non-finite result", _point_of(x0, y0, bad))
    # constant subexpressions evaluate to scalar coefficients and one-axis
    # ones to axis-shaped arrays; make the jet uniformly grid-shaped
    shape = np.broadcast(x0, y0).shape
    return Jet(tuple(np.broadcast_to(np.asarray(c, dtype=float), shape)
                     for c in jet.coeffs))


def _eval(node: ex.Expr, x0, y0, order) -> Jet:
    match node:
        case ex.Num(value=v):
            return jet_constant(v, order)
        case ex.Name(name=n):
            if n in ex.CONSTANTS:
                return jet_constant(ex.CONSTANTS[n], order)
            return jet_variable(n, x0, y0, order)
        case ex.Neg(operand=u):
            return -_eval(u, x0, y0, order)
        case ex.BinOp(op=op, lhs=l, rhs=r):
            a = _eval(l, x0, y0, order)
            b = _eval(r, x0, y0, order)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            return a / b
        case ex.Pow(base=b, exponent=p):
            return _eval(b, x0, y0, order).powf(p)
        case ex.Call(func=f, arg=a):
            return getattr(_eval(a, x0, y0, order), f)()
    raise TypeError(f"not an expression node: {node!r}")
