"""Expression parser and canonical printer for polynomials.

Grammar (explicit multiplication, no juxtaposition; a leading minus is the
only unary form, matching what the printer emits):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := nat | nat '/' nat | ident | '(' expr ')'

Identifiers must be declared variables of the ring.  ``parse(print(p)) == p``
for every polynomial.  Parentheses nest at most ``MAX_NESTING`` deep, so the
recursive descent stays far from the interpreter's recursion limit.  A power
``base^n`` of a ``v``-term base is expanded only if its multinomial term bound
C(n+v-1, v-1) is at most ``MAX_TERMS``: (x+y+z+1)^20, with 1771 terms, is.
A product ``a*b`` is expanded only if ``len(a.terms) * len(b.terms)`` is at
most ``MAX_TERMS``, so (x+y+z+1)^20*(x+y+z+1)^20 is rejected.  A numeric
literal has at most ``MAX_DIGITS`` digits, well below the length at which
Python's ``int`` refuses to convert a string (4,300 digits by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ExprSyntaxError, UnknownVariable
from .poly import Polynomial, VarSet

MAX_NESTING = 100
MAX_TERMS = 2000
MAX_DIGITS = 1000


# AST nodes: kept tiny; evaluation happens immediately after parsing.
@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str
    offset: int


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*'
    left: object
    right: object
    offset: int  # of the operator


@dataclass(frozen=True)
class Pow:
    base: object
    exp: int
    offset: int  # of the '^'


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        t = self.text
        n = len(t)
        i = self.pos
        while i < n and t[i].isspace():
            i += 1
        self.pos = i
        if i >= n:
            return ("end", "", i)
        ch = t[i]
        # ASCII only: str.isdigit also accepts digits that int() rejects
        if ch.isascii() and ch.isdigit():
            j = i
            while j < n and t[j].isascii() and t[j].isdigit():
                j += 1
            if j - i > MAX_DIGITS:
                raise ExprSyntaxError(
                    f"numeric literal longer than {MAX_DIGITS} digits", i)
            return ("nat", t[i:j], i)
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (t[j].isalnum() or t[j] == "_"):
                j += 1
            return ("ident", t[i:j], i)
        if ch in "+-*^()/":
            return (ch, ch, i)
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)

    def next(self):
        kind, val, off = self.peek()
        self.pos = off + len(val)
        return kind, val, off


class _Parser:
    def __init__(self, text: str):
        self.toks = _Tokenizer(text)
        self.depth = 0

    def parse(self):
        node = self.expr()
        kind, val, off = self.toks.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {val!r}", off)
        return node

    def expr(self):
        kind, _, _ = self.toks.peek()
        if kind == "-":
            self.toks.next()
            node = Neg(self.term())
        else:
            node = self.term()
        while True:
            kind, _, off = self.toks.peek()
            if kind in ("+", "-"):
                self.toks.next()
                node = BinOp(kind, node, self.term(), off)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, _, off = self.toks.peek()
            if kind == "*":
                self.toks.next()
                node = BinOp("*", node, self.factor(), off)
            else:
                return node

    def factor(self):
        node = self.base()
        kind, _, off = self.toks.peek()
        if kind == "^":
            self.toks.next()
            k2, val, off2 = self.toks.next()
            if k2 != "nat":
                raise ExprSyntaxError("exponent must be a literal natural number", off2)
            node = Pow(node, int(val), off)
        return node

    def base(self):
        kind, val, off = self.toks.next()
        if kind == "nat":
            k2, _, _ = self.toks.peek()
            if k2 == "/":
                self.toks.next()
                k3, den, off3 = self.toks.next()
                if k3 != "nat":
                    raise ExprSyntaxError("denominator must be a natural number", off3)
                if int(den) == 0:
                    raise ExprSyntaxError("zero denominator", off3)
                return Num(Fraction(int(val), int(den)))
            return Num(Fraction(int(val)))
        if kind == "ident":
            return Var(val, off)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", off)
            self.depth += 1
            node = self.expr()
            self.depth -= 1
            k2, _, off2 = self.toks.next()
            if k2 != ")":
                raise ExprSyntaxError("expected ')'", off2)
            return node
        raise ExprSyntaxError(f"unexpected token {val!r}", off)


def parse_expr(text: str):
    """Parse to an AST without evaluating; raises ExprSyntaxError."""
    return _Parser(text).parse()


_ARITH = {"+": Polynomial.__add__, "-": Polynomial.__sub__, "*": Polynomial.__mul__}


def _to_poly(node, ring: VarSet) -> Polynomial:
    if isinstance(node, BinOp) and node.op in _ARITH:
        # a chain a + b - c ... or a * b * c ... nests to the left once per
        # operator, so walk its left spine iteratively
        spine = []
        while isinstance(node, BinOp) and node.op in _ARITH:
            spine.append(node)
            node = node.left
        acc = _to_poly(node, ring)
        for op in reversed(spine):
            right = _to_poly(op.right, ring)
            if op.op == "*" and len(acc.terms) * len(right.terms) > MAX_TERMS:
                raise ExprSyntaxError(
                    f"product would expand to more than {MAX_TERMS} terms", op.offset)
            acc = _ARITH[op.op](acc, right)
        return acc
    if isinstance(node, Num):
        return Polynomial.const(ring, node.value)
    if isinstance(node, Var):
        if node.name not in ring.names:
            raise UnknownVariable(node.name, node.offset)
        return Polynomial.variable(ring, node.name)
    if isinstance(node, Neg):
        return -_to_poly(node.arg, ring)
    if isinstance(node, Pow):
        base = _to_poly(node.base, ring)
        v, n = len(base.terms), node.exp
        # C(n+v-1, n) > n for v > 1: a large n is rejected without computing it
        if v > 1 and (n >= MAX_TERMS or math.comb(n + v - 1, n) > MAX_TERMS):
            raise ExprSyntaxError(
                f"power would expand to more than {MAX_TERMS} terms", node.offset)
        return base ** n
    raise ExprSyntaxError("malformed expression tree", 0)


def parse_poly(text: str, ring: VarSet) -> Polynomial:
    """Parse expression text into a canonical polynomial over the ring."""
    return _to_poly(parse_expr(text), ring)


def print_poly(p: Polynomial) -> str:
    """Canonical text: terms descending in the ring's default order;
    integer coefficients printed without a denominator.  Round-trips
    through parse_poly."""
    return str(p)
