"""Expression parser for polynomials.

The printer is ``Polynomial.__str__``: terms descend in the ring's default
order, and integer coefficients print without a denominator.

Grammar (explicit multiplication, no juxtaposition; a leading minus is the
only unary form, matching what the printer emits):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := nat | nat '/' nat | ident | '(' expr ')'

The parser evaluates while it parses: each rule returns the polynomial its
text denotes, so a text with several faults reports the first one in text
order.  Identifiers must be declared variables of the ring.
``parse_poly(str(p), p.ring) == p`` for every polynomial: the printed
text round-trips.

Every expansion is bounded before it is made, with an ``ExprSyntaxError``
at the offset of the operator (or literal) at fault:

* parentheses nest at most ``MAX_NESTING`` deep, so the recursive descent
  stays far from the interpreter's recursion limit;
* a power ``base^n`` of a ``v``-term base is expanded only if its
  multinomial term bound C(n+v-1, v-1) is at most ``MAX_TERMS``:
  (x+y+z+1)^20, with 1771 terms, is;
* a product ``a*b`` is expanded only if ``len(a.terms) * len(b.terms)`` is
  at most ``MAX_TERMS``, so (x+y+z+1)^20*(x+y+z+1)^20 is rejected;
* the term products of a whole text number at most ``MAX_PRODUCTS``: each
  ``a*b`` counts ``len(a.terms) * len(b.terms)``, and each power of a
  base with more than one term counts the products that
  ``Polynomial.__pow__``'s repeated squaring makes, from the term bound
  of each intermediate power (:func:`_power_products`).  (x+1)^1999
  passes the term bound but would make 1.65 million products, while
  (x+y+z+1)^20 makes 62,516, so a text holds one such power and not two;
* a numeric literal has at most ``MAX_DIGITS`` digits, and so has every
  numerator and denominator that a power or product can produce, judged
  from a bound on the operands' coefficients (:func:`_height`): 2^20000
  and (1000*x + 1)^1999 are rejected.  Python's ``int`` refuses to convert
  to or from a string of more than 4,300 digits by default;
* a sum or difference ``a + b`` is checked after it is made (adding
  bounded coefficients is cheap): each coefficient it produces must have
  a numerator and denominator of at most ``MAX_DIGITS`` digits, so a long
  sum of moderate coefficients loads and six fractions with 1000-digit
  denominators do not.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ExprSyntaxError, UnknownVariable
from .poly import Polynomial, VarSet

MAX_NESTING = 100
MAX_TERMS = 2000
MAX_DIGITS = 1000
MAX_PRODUCTS = 100_000

# the least integer with more than MAX_DIGITS digits
_TOO_LONG = 10 ** MAX_DIGITS
_TOO_LONG_BITS = _TOO_LONG.bit_length()
_MANY = f"would expand to more than {MAX_TERMS} terms"
_LONG = f"could have a coefficient longer than {MAX_DIGITS} digits"


def _power_products(v: int, n: int) -> int:
    """A bound on the term products that ``Polynomial.__pow__`` makes for
    the ``n``-th power of a ``v``-term polynomial: its square-and-multiply
    loop, with each power ``k`` of the base counted as C(k+v-1, v-1) terms."""
    def size(k):
        return math.comb(k + v - 1, v - 1)

    total = 0
    result, base = 0, 1  # the exponents that result and base hold
    while n:
        if n & 1:
            total += size(result) * size(base)
            result += base
        if n > 1:
            total += size(base) ** 2
            base *= 2
        n >>= 1
    return total


def _height(p: Polynomial) -> int:
    """A bound on p's numerators and denominators from which those of a
    product or power follow: every coefficient of ``a*b`` has numerator and
    denominator at most ``_height(a) * _height(b)``, and of ``p^n`` at most
    ``_height(p)^n``.  It is the larger of the lcm ``d`` of p's
    denominators and the sum of ``|d*c|`` over p's coefficients ``c``."""
    d = 1
    for c in p.terms.values():
        d = math.lcm(d, c.denominator)
    return max(d, sum(abs(c.numerator) * (d // c.denominator) for c in p.terms.values()))


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
    """Recursive descent over the grammar above; each rule returns the
    polynomial over ``ring`` that its text denotes."""

    def __init__(self, text: str, ring: VarSet):
        self.toks = _Tokenizer(text)
        self.ring = ring
        self.depth = 0
        self.products = 0  # term products made so far, for MAX_PRODUCTS

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, val, off = self.toks.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {val!r}", off)
        return p

    def expr(self) -> Polynomial:
        """A sum is collected in one dict, so it costs its length once.
        Each term that a ``+`` or ``-`` adds is charged to ``MAX_PRODUCTS``
        at that operator, and each coefficient it touches is checked."""
        if self.toks.peek()[0] == "-":
            self.toks.next()
            first = -self.term()
        else:
            first = self.term()
        kind = self.toks.peek()[0]
        if kind not in ("+", "-"):
            return first
        acc = dict(first.terms)
        while kind in ("+", "-"):
            off = self.toks.next()[2]
            right = self.term() if kind == "+" else -self.term()
            self._charge(len(right.terms), off)
            for e, c in right.terms.items():
                s = acc.get(e)
                s = c if s is None else s + c
                if not s:
                    del acc[e]
                elif abs(s.numerator) >= _TOO_LONG or s.denominator >= _TOO_LONG:
                    raise ExprSyntaxError(
                        f"sum has a coefficient longer than {MAX_DIGITS} digits", off)
                else:
                    acc[e] = s
            kind = self.toks.peek()[0]
        return Polynomial._of(self.ring, acc)

    def term(self) -> Polynomial:
        acc = self.factor()
        while True:
            kind, _, off = self.toks.peek()
            if kind != "*":
                return acc
            self.toks.next()
            right = self.factor()
            if len(acc.terms) * len(right.terms) > MAX_TERMS:
                raise ExprSyntaxError(f"product {_MANY}", off)
            if _height(acc) * _height(right) >= _TOO_LONG:
                raise ExprSyntaxError(f"product {_LONG}", off)
            self._charge(len(acc.terms) * len(right.terms), off)
            acc = acc * right

    def factor(self) -> Polynomial:
        base = self.base()
        kind, _, off = self.toks.peek()
        if kind != "^":
            return base
        self.toks.next()
        k2, val, off2 = self.toks.next()
        if k2 != "nat":
            raise ExprSyntaxError("exponent must be a literal natural number", off2)
        v, n = len(base.terms), int(val)
        # C(n+v-1, n) > n for v > 1: a large n is rejected without computing it
        if v > 1 and (n >= MAX_TERMS or math.comb(n + v - 1, n) > MAX_TERMS):
            raise ExprSyntaxError(f"power {_MANY}", off)
        # h^n >= 2^(n * (bits - 1)): a large n is rejected without computing h^n
        h = _height(base)
        if h > 1 and (n * (h.bit_length() - 1) >= _TOO_LONG_BITS or h ** n >= _TOO_LONG):
            raise ExprSyntaxError(f"power {_LONG}", off)
        if v > 1:
            self._charge(_power_products(v, n), off)
        return base ** n

    def _charge(self, products: int, off: int):
        """Count the term products of the operator at ``off`` against the
        text's ``MAX_PRODUCTS``."""
        self.products += products
        if self.products > MAX_PRODUCTS:
            raise ExprSyntaxError(
                f"text would make more than {MAX_PRODUCTS} term products", off)

    def base(self) -> Polynomial:
        kind, val, off = self.toks.next()
        if kind == "nat":
            if self.toks.peek()[0] != "/":
                return Polynomial.const(self.ring, int(val))
            self.toks.next()
            k3, den, off3 = self.toks.next()
            if k3 != "nat":
                raise ExprSyntaxError("denominator must be a natural number", off3)
            if int(den) == 0:
                raise ExprSyntaxError("zero denominator", off3)
            return Polynomial.const(self.ring, Fraction(int(val), int(den)))
        if kind == "ident":
            if val not in self.ring.names:
                raise UnknownVariable(val, off)
            return Polynomial.variable(self.ring, val)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", off)
            self.depth += 1
            p = self.expr()
            self.depth -= 1
            k2, _, off2 = self.toks.next()
            if k2 != ")":
                raise ExprSyntaxError("expected ')'", off2)
            return p
        raise ExprSyntaxError(f"unexpected token {val!r}", off)


def parse_poly(text: str, ring: VarSet) -> Polynomial:
    """Parse expression text into a canonical polynomial over the ring;
    raises ExprSyntaxError (UnknownVariable for an undeclared name) at the
    first fault in the text."""
    return _Parser(text, ring).parse()
