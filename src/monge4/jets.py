"""Truncated Taylor (jet) arithmetic in two variables.

A :class:`Jet` of order n carries the value and every partial derivative up
to order n of a scalar function of (x, y) at a point, in graded order
f, fx, fy, fxx, fxy, fyy, fxxx, ...  Arithmetic follows the Leibniz and
chain rules exactly, so evaluating an expression tree in jet arithmetic
yields the analytic derivatives up to floating rounding.  Coefficients may be
Python floats (point evaluation) or numpy arrays (grid evaluation), each in
its own broadcast shape; the same code path serves both.

:func:`eval_jet` compiles each expression tree once per order into a kernel
of straight-line Python over coefficient tuples.  The structural zeros of
each subexpression, the derivatives that vanish by construction (in y of a
function of x alone, of a constant, above a polynomial's degree), are
compile-time facts there, and its products and compositions form no term
that holds one: the product of a factor in x alone and one in y alone costs
one product per coefficient instead of the whole Leibniz table.

:meth:`Jet.shift` turns the jet of phi into the jet of a partial derivative
of phi by re-indexing alone, so a formula in the derivatives of phi and psi
runs on jets and returns the exact derivatives of its result: order-1 shifts
of order-3 jets give gradients, order-2 shifts of order-4 jets Hessians
(forward-mode Taylor arithmetic: Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13).
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from . import expr as ex
from .errors import EvaluationError

__all__ = ["Jet", "eval_jet", "sqrt"]


# largest |exponent| of an integer power taken by repeated squaring; above
# it x^n is exp(n log x), defined for x > 0 only
POWI_LIMIT = 512


def sqrt(v):
    """Square root of a float, an array or a :class:`Jet`, elementwise; a
    jet's value is not checked as in an expression: nan gives nan."""
    if isinstance(v, Jet):
        return v._compose("sqrt")
    return (math if type(v) is float else np).sqrt(v)


class _DomainFailure(Exception):
    """Internal: a jet operation left the function's domain.  ``mask``
    marks the offending points of an array-valued jet (None for scalars) in
    any shape that broadcasts to the grid; :func:`eval_jet` converts this
    into an :class:`EvaluationError` carrying the first such grid point."""

    def __init__(self, message, mask=None):
        super().__init__(message)
        self.mask = mask


def _require_positive(v, what):
    if type(v) is float:
        if not (v > 0.0):
            raise _DomainFailure(f"{what} of non-positive value {v!r}")
    elif (bad := ~(np.asarray(v) > 0.0)).any():
        raise _DomainFailure(f"{what} of non-positive value", bad)


def _require_nonzero(v, what):
    if type(v) is float:
        if v == 0.0:
            raise _DomainFailure(what)
    elif (bad := np.asarray(v) == 0.0).any():
        raise _DomainFailure(what, bad)


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------

@functools.cache
def _indices(order):
    """(i, j) of the coefficient d^(i+j) f / dx^i dy^j at each position."""
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


def _compile(source, name, **names):
    """The function ``name`` of generated ``source``, with ``names`` global."""
    exec(source, names)
    return names[name]


def _zeros_of(items):
    """The structural zeros of coefficient sources: the sums with no term."""
    return sum(1 << p for p, item in enumerate(items) if not item)


def _tuple_source(items):
    return f"({', '.join(item or '0.0' for item in items)},)"


# The product and the composition of each order and each pattern of
# structural zeros are compiled once, from its Leibniz table, into
# straight-line code, with the pattern of the result beside it: on Python
# floats, a loop over the table costs about as much again as the arithmetic,
# and a term with a structural zero is never formed.  The coefficients that
# are not structural zeros form a down-set of the (i, j) triangle (seeds do,
# and sums, products and compositions keep it), so there are at most 132
# patterns at order 4 and the caches stay small.

@functools.cache
def _product(order, za, zb):
    """The product of two order-n jets whose structural zeros are ``za``
    and ``zb``, as a function of the two coefficient tuples, and the
    structural zeros of the product.  Against a constant, whose derivatives
    are all structural zeros, it is a scaling; the product of a jet in x
    alone and one in y alone has one term per coefficient."""
    items = [_leibniz_source(i, j, "a[{}]", "b[{}]", za, zb)
             for i, j in _indices(order)]
    return (_compile(f"def product(a, b):\n    return {_tuple_source(items)}\n",
                     "product"), _zeros_of(items))


@functools.cache
def _composition(order, zc):
    """u(f) for an order-n jet f with structural zeros ``zc``, as a
    function of f's coefficients c and h = (h_0, ..., h_n),
    h_k = u^(k)(f) / k!, and the structural zeros of u(f).

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
    return (_compile("def composition(c, h):\n" + "".join(lines)
                     + f"    return {_tuple_source(items)}\n", "composition"),
            _zeros_of(items))


def _taylor_source(kind, v, n, m, t):
    """Source of h_k = u^(k)(v) / k!, k = 0..n, for u = ``kind`` (sin, cos,
    tan, exp, log, sqrt or 1/) of the value ``v``: (statements, the h_k).
    ``m`` names math or numpy; the statements assign names prefixed ``t``."""
    lines, d = [], []

    def let(name, value):
        lines.append(f"{t}{name} = {value}")
        return t + name

    if kind == "log":  # then u' = 1/v
        d, kind = [let("l", f"{m}.log({v})")], "1/"
    if kind in ("sin", "cos"):
        s, c = let("s", f"{m}.sin({v})"), let("c", f"{m}.cos({v})")
        d = ([s, c, f"-{s}", f"-{c}"] if kind == "sin"
             else [c, f"-{s}", f"-{c}", s]) * (n // 4 + 1)
    elif kind == "exp":
        d = [let("e", f"{m}.exp({v})")] * (n + 1)
    elif kind == "1/" and len(d) <= n:
        r = let("r", f"1.0 / {v}")
        r2 = let("r2", f"{r} * {r}")
        top = n - len(d)  # the highest derivative of 1/v needed
        d += [r, f"-{r2}", f"2.0 * {r2} * {r}"]
        for k in range(3, top + 1):
            d.append(let(f"d{k}", f"-{k} * {d[-1]} * {r}" if k > 3
                         else f"-6.0 * {r2} * {r2}"))
    elif kind == "sqrt":
        d = [let("s", f"{m}.sqrt({v})")]
        for k in range(n):
            d.append(let(f"d{k + 1}", f"{0.5 - k!r} * {d[-1]} / {v}" if k
                         else f"0.5 / {d[0]}"))
    elif kind == "tan":  # u^(k) = P_k(t) with P_(k+1) = P_k' (1 + t^2)
        tt, q = let("t", f"{m}.tan({v})"), let("q", f"1.0 + {t}t * {t}t")
        d = [tt, q, f"2.0 * {tt} * {q}", f"{q} * (2.0 + 6.0 * {tt} * {tt})"]
        poly = [2, 0, 8, 0, 6]  # P_3 = 2 + 8 t^2 + 6 t^4
        while len(d) <= n:
            slope = [k * a for k, a in enumerate(poly)][1:] + [0, 0]
            poly = [a + b for a, b in zip(slope, [0, 0] + slope)]
            value = "0.0"
            for a in reversed(poly):
                value = f"({value}) * {tt} + {a}"
            d.append(value)
    return lines, [e if k < 2 else f"({e}) / {math.factorial(k)}"
                   for k, e in enumerate(d[:n + 1])]


def _power(base, n, mul):
    """base^n, n >= 1, by repeated squaring with the product ``mul``."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


class Jet:
    """Value and partial derivatives up to some order at a point.

    ``coeffs`` holds them in graded order (f, fx, fy, fxx, fxy, fyy, ...);
    mixed partials are stored once.  Jets in one computation share their
    order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = coeffs

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
            return Jet((self.coeffs[0] + o,) + self.coeffs[1:])
        return Jet(tuple(map(operator.add, self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Jet(tuple(map(operator.neg, self.coeffs)))

    def __sub__(self, o):
        if not isinstance(o, Jet):
            return Jet((self.coeffs[0] - o,) + self.coeffs[1:])
        return Jet(tuple(map(operator.sub, self.coeffs, o.coeffs)))

    def scaled(self, s):
        """s times the jet, for a finite float s."""
        return Jet(tuple([s * v for v in self.coeffs]))

    def __mul__(self, o):
        if not isinstance(o, Jet):
            return self.scaled(o)
        return Jet(_product(self.order, 0, 0)[0](self.coeffs, o.coeffs))

    __rmul__ = scaled

    def __truediv__(self, o):
        if not isinstance(o, Jet):
            return self.scaled(1.0 / o)
        _require_nonzero(o.f, "division by zero")
        return self * o._compose("1/")

    def __pow__(self, n: int):
        """Positive integer power by repeated squaring."""
        return _power(self, n, operator.mul)

    def _compose(self, kind):
        """Jet of u(f) for the function ``kind`` of :func:`_taylor_source`."""
        return Jet(_composed(kind, self.order)(
            self.coeffs, math if type(self.f) is float else np))


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------

class _Compiler:
    """Source that computes, operation for operation, what jet arithmetic
    computes on an expression tree (:meth:`node`) at one order.  Each
    subexpression is a tuple of coefficients at run time and (its name, its
    fixed coefficients, whether it is constant, its structural zeros) here.
    The fixed coefficients are the values of the structural zeros, formed as
    0.0 and made -0.0 by negations and sums or nan by an infinite exponent,
    and None elsewhere.  A constant is a Python float on a grid too, so its
    functions are math's, the others ``m``'s."""

    def __init__(self, order):
        self.order, self.size = order, len(_indices(order))
        self.lines, self.variables = [], {}
        self.names = {"math": math, "np": np, "_require_positive": _require_positive,
                      "_require_nonzero": _require_nonzero}

    def bind(self, value):
        name = f"k{len(self.names)}"
        self.names[name] = value
        return name

    def literal(self, v):
        return repr(v) if math.isfinite(v) else self.bind(v)

    def let(self, value, fixed, const):
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {value}")
        return name, fixed, const, sum(1 << p for p, v in enumerate(fixed)
                                       if v is not None)

    def node(self, node):
        # left-deep chains of operators and powers, such as a long sum, in
        # a loop: the operations in the order of a recursive walk
        chain = []
        while isinstance(node, (ex.BinOp, ex.Pow)):
            chain.append(node)
            node = node.lhs if isinstance(node, ex.BinOp) else node.base
        match node:
            case ex.Num(value=v):
                a = self.constant(v)
            case ex.Name(name=n) if n in ex.CONSTANTS:
                a = self.constant(ex.CONSTANTS[n])
            case ex.Name(name=n):
                a = self.variable(n)
            case ex.Neg(operand=u):
                a = self.elementwise(operator.neg, "-{}", self.node(u))
            case ex.Call(func=f, arg=u):
                a = self.node(u)
                if f in ("log", "sqrt"):
                    self.require(_require_positive, a, f)
                a = self.compose(f, a)
            case _:
                raise TypeError(f"not an expression node: {node!r}")
        for link in reversed(chain):
            if isinstance(link, ex.Pow):
                a = self.power(a, link.exponent)
            elif link.op in ("+", "-"):
                a = self.elementwise(operator.add if link.op == "+" else operator.sub,
                                     f"{{}} {link.op} {{}}", a, self.node(link.rhs))
            else:
                b = self.node(link.rhs)
                a = self.product(a, b if link.op == "*" else self.reciprocal(b))
        return a

    def constant(self, v):
        zeros = [0.0] * (self.size - 1)
        return self.bind((float(v), *zeros)), [None] + zeros, True, (1 << self.size) - 2

    def variable(self, n):
        """The coordinate's jet, once; on arrays its value is a float copy."""
        if n not in self.variables:
            v = "x" if n == "x" else "y"
            seeds = [None, 0.0] if n == "x" else [0.0, None]
            fixed = ([None] + seeds + [0.0] * self.size)[:self.size]
            items = [f"({v} if m is math else np.array({v}, dtype=float))"] \
                + ["1.0" if z is None else "0.0" for z in fixed[1:]]
            self.variables[n] = self.let(f"({', '.join(items)},)", fixed, False)
        return self.variables[n]

    def elementwise(self, fold, form, *args):
        """``form`` of ``args`` at each position, ``fold`` where all are fixed."""
        fixed, items = [], []
        for p in range(self.size):
            values = [a[1][p] for a in args]
            fixed.append(None if None in values else fold(*values))
            items.append(form.format(*(f"{a[0]}[{p}]" if v is None else self.literal(v)
                                       for a, v in zip(args, values)))
                         if fixed[p] is None else self.literal(fixed[p]))
        return self.let(f"({', '.join(items)},)", fixed, all(a[2] for a in args))

    def require(self, check, a, what):
        self.lines.append(f"{check.__name__}({a[0]}[0], {what!r})")

    def call(self, kernel, args, const):
        """The call of a product or composition kernel and its pattern."""
        fn, zeros = kernel
        fixed = [0.0 if zeros >> p & 1 else None for p in range(self.size)]
        return self.let(f"{self.bind(fn)}({args})", fixed, const)

    def product(self, a, b):
        return self.call(_product(self.order, a[3], b[3]), f"{a[0]}, {b[0]}",
                         a[2] and b[2])

    def compose(self, kind, a):
        lines, h = _taylor_source(kind, f"{a[0]}[0]", self.order,
                                  "math" if a[2] else "m", f"u{len(self.lines)}_")
        self.lines += lines
        return self.call(_composition(self.order, a[3]),
                         f"{a[0]}, ({', '.join(h)},)", a[2])

    def function(self, args, root):
        """The compiled function of ``args`` that returns ``root``."""
        return _compile(f"def kernel({args}):\n" + "".join(
            f"    {line}\n" for line in self.lines) + f"    return {root[0]}\n",
            "kernel", **self.names)

    def reciprocal(self, a):
        self.require(_require_nonzero, a, "division by zero")
        return self.compose("1/", a)

    def power(self, a, p):
        if float(p).is_integer() and abs(p) <= POWI_LIMIT:
            n = int(p)
            if n == 0:
                return self.constant(1.0)
            u = _power(a, abs(n), self.product)
            return u if n > 0 else self.reciprocal(u)
        self.require(_require_positive, a, "non-integer power"
                     if not float(p).is_integer() else
                     f"integer power {p:g} (above the powi limit {POWI_LIMIT})")
        log = self.compose("log", a)
        return self.compose("exp", self.elementwise(lambda v: p * v,
                                                    f"{self.literal(p)} * {{}}", log))


# kernels by (id(tree), order), oldest out first: an entry holds its tree, so
# no other tree has that id, and hashing the tree would cost microseconds
KERNEL_CACHE = 256
_KERNELS = {}


@functools.cache
def _composed(kind, order):
    """u(c) for u = ``kind``, a function of the jet's coefficients c and m."""
    compiler = _Compiler(order)
    c = ("c", [None] * compiler.size, False, 0)
    return compiler.function("c, m", compiler.compose(kind, c))


def _kernel(expression, order):
    """The kernel of ``expression`` at ``order``, compiled on first use: the
    coefficients, unchecked, as a function of x, y and m (math or numpy)."""
    entry = _KERNELS.get((id(expression), order))
    if entry is not None and entry[0] is expression:
        return entry[1]
    compiler = _Compiler(order)
    kernel = compiler.function("x, y, m", compiler.node(expression))
    if len(_KERNELS) >= KERNEL_CACHE:
        del _KERNELS[next(iter(_KERNELS))]
    _KERNELS[id(expression), order] = (expression, kernel)
    return kernel


def _first_bad(bad, *values):
    """The entries of ``values``, as floats, at the first index in
    row-major order where ``bad`` holds (all broadcast together)."""
    bad, *values = np.broadcast_arrays(bad, *values)
    idx = int(np.argmax(bad.ravel()))
    return tuple(float(v.ravel()[idx]) for v in values)


def _point_of(x0, y0, mask):
    """The failing point: (x0, y0) for scalars; on a grid the first point
    where ``mask`` holds, by :func:`_first_bad`, or None when there is no
    mask (a constant subexpression failed)."""
    if not isinstance(x0, np.ndarray) and not isinstance(y0, np.ndarray):
        return (x0, y0)
    return None if mask is None else _first_bad(mask, x0, y0)


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
    kernel = _kernel(expression, order)
    try:
        if grid:
            with np.errstate(all="ignore"):
                coeffs = kernel(x0, y0, np)
        else:  # math raises where numpy warns
            coeffs = kernel(x0, y0, math)
    except _DomainFailure as err:
        raise EvaluationError(str(err), _point_of(x0, y0, err.mask)) from None
    except OverflowError:
        raise EvaluationError("non-finite result (overflow)",
                              _point_of(x0, y0, None)) from None
    except ValueError:  # math.sin/cos/tan of an infinite float
        raise EvaluationError("non-finite result",
                              _point_of(x0, y0, None)) from None
    if not grid:
        if not all(map(math.isfinite, coeffs)):
            raise EvaluationError("non-finite result", (x0, y0))
        return Jet(coeffs)
    if not all(np.isfinite(c).all() for c in coeffs):
        bad = functools.reduce(np.logical_or, (~np.isfinite(c) for c in coeffs))
        raise EvaluationError("non-finite result", _point_of(x0, y0, bad))
    # constant subexpressions evaluate to scalar coefficients and one-axis
    # ones to axis-shaped arrays; make the jet uniformly grid-shaped
    shape = np.broadcast(x0, y0).shape
    return Jet(tuple(np.broadcast_to(np.asarray(c, dtype=float), shape)
                     for c in coeffs))
