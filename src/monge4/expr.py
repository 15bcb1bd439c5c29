"""Scalar expressions in the variables x and y.

Grammar (whitespace-insensitive)::

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)*      # exponent must be a (signed) number
    atom     := NUMBER | 'x' | 'y' | 'pi' | 'e'
              | FUNC '(' expr ')' | '(' expr ')'
    FUNC     := sin | cos | tan | exp | log | sqrt

All binary operators are left-associative; '^' binds tighter than unary
minus, which binds tighter than '*'/'/'.  Power exponents are restricted to
numeric literals so that polynomial expressions stay polynomial under jet
evaluation.  Parentheses, calls and minuses nest :data:`MAX_DEPTH` deep.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ExpressionSyntaxError, UnknownIdentifierError

__all__ = [
    "Num", "Name", "Neg", "BinOp", "Pow", "Call",
    "parse_expression", "pretty", "substitute",
    "VARIABLES", "CONSTANTS", "FUNCTIONS", "MAX_DEPTH",
]

# nesting of parentheses, calls and minuses: far below the recursion limit
MAX_DEPTH = 100

VARIABLES = ("x", "y")
CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Name:
    name: str  # one of VARIABLES or CONSTANTS


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: float  # numeric literal only


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Num | Name | Neg | BinOp | Pow | Call

_NUMBER = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    # -- tokens ---------------------------------------------------------
    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def _fail(self, message, expected=None, offset=None):
        raise ExpressionSyntaxError(message, self.pos if offset is None else offset,
                                    expected=expected)

    def _nested(self, parse):
        """``parse()`` one level deeper, after the '(' or '-' just read."""
        if self.depth == MAX_DEPTH:
            self._fail(f"expression nested deeper than {MAX_DEPTH} levels",
                       offset=self.pos - 1)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    # -- grammar --------------------------------------------------------
    def parse(self) -> Expr:
        node = self.expr()
        self._skip_ws()
        if self.pos < len(self.text):
            self._fail(f"unexpected input {self.text[self.pos]!r}",
                       expected="operator or end of input")
        return node

    def expr(self) -> Expr:
        node = self.term()
        while (c := self._peek()) in ("+", "-"):
            self.pos += 1
            node = BinOp(c, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while (c := self._peek()) in ("*", "/"):
            self.pos += 1
            node = BinOp(c, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self._peek() == "-":
            self.pos += 1
            return Neg(self._nested(self.unary))
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        while self._peek() == "^":
            self.pos += 1
            node = Pow(node, self._exponent())
        return node

    def _exponent(self) -> float:
        self._skip_ws()
        sign = 1.0
        if self._peek() == "-":
            self.pos += 1
            sign = -1.0
        self._skip_ws()
        m = _NUMBER.match(self.text, self.pos)
        if not m:
            self._fail("power exponent must be a numeric literal",
                       expected="number")
        self.pos = m.end()
        return sign * float(m.group())

    def atom(self) -> Expr:
        c = self._peek()
        if c is None:
            self._fail("unexpected end of input", expected="operand")
        if c == "(":
            self.pos += 1
            node = self._nested(self.expr)
            if self._peek() != ")":
                self._fail("unbalanced parenthesis", expected="')'")
            self.pos += 1
            return node
        m = _NUMBER.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Num(float(m.group()))
        m = _IDENT.match(self.text, self.pos)
        if m:
            name = m.group()
            start = self.pos
            self.pos = m.end()
            if name in VARIABLES or name in CONSTANTS:
                return Name(name)
            if name in FUNCTIONS:
                if self._peek() != "(":
                    self._fail(f"function {name!r} requires an argument list",
                               expected="'('")
                self.pos += 1
                arg = self._nested(self.expr)
                if self._peek() != ")":
                    self._fail("unbalanced parenthesis", expected="')'")
                self.pos += 1
                return Call(name, arg)
            raise UnknownIdentifierError(name, start)
        self._fail(f"unexpected character {c!r}", expected="operand")


def parse_expression(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ExpressionSyntaxError` (with byte offset) on malformed
    input and :class:`UnknownIdentifierError` for names outside the grammar.
    """
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 0, expected="operand")
    return _Parser(text).parse()


# precedence levels used by the printer; mirrors the grammar
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: Expr) -> int:
    match node:
        case BinOp(op="+") | BinOp(op="-"):
            return _PREC_ADD
        case BinOp():
            return _PREC_MUL
        case Neg():
            return _PREC_NEG
        case Pow():
            return _PREC_POW
        case _:
            return _PREC_ATOM


def pretty(node: Expr) -> str:
    """Render an expression tree back to parseable text.

    ``parse_expression(pretty(t))`` returns a tree equal to ``t``.
    """
    match node:
        case Num(value=v):
            return repr(v)
        case Name(name=n):
            return n
        case Neg(operand=u):
            inner = pretty(u)
            if _prec(u) < _PREC_NEG:
                inner = f"({inner})"
            return f"-{inner}"
        case BinOp(op=op, lhs=l, rhs=r):
            mine = _prec(node)
            ls = pretty(l)
            if _prec(l) < mine:
                ls = f"({ls})"
            rs = pretty(r)
            # left-associative: parenthesize right child at equal precedence
            if _prec(r) <= mine:
                rs = f"({rs})"
            return f"{ls} {op} {rs}"
        case Pow(base=b, exponent=p):
            bs = pretty(b)
            if _prec(b) < _PREC_POW:
                bs = f"({bs})"
            return f"{bs}^{repr(p)}"
        case Call(func=f, arg=a):
            return f"{f}({pretty(a)})"
    raise TypeError(f"not an expression node: {node!r}")


def substitute(node: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace variables by expression trees (used e.g. to precompose a
    surface with a rotation of the parameter plane)."""
    match node:
        case Name(name=n) if n in mapping:
            return mapping[n]
        case Num() | Name():
            return node
        case Neg(operand=u):
            return Neg(substitute(u, mapping))
        case BinOp(op=op, lhs=l, rhs=r):
            return BinOp(op, substitute(l, mapping), substitute(r, mapping))
        case Pow(base=b, exponent=p):
            return Pow(substitute(b, mapping), p)
        case Call(func=f, arg=a):
            return Call(f, substitute(a, mapping))
    raise TypeError(f"not an expression node: {node!r}")
