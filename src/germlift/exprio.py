"""Expression parser for polynomials.

The printer is ``Polynomial.__str__``: terms descend in the ring's default
order, and integer coefficients print without a denominator.

Grammar (explicit multiplication, no juxtaposition; a leading minus is the
only unary form, matching what the printer emits):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := nat | nat '/' nat | ident | '(' expr ')'

The parser evaluates while it parses: each rule returns the term dict its
text denotes, with int or Fraction coefficients, and the polynomial is
built once, from the whole text's dict.  A product goes through
``poly.term_product`` (by a one-term factor, an exponent add; otherwise in
integers) and a power through ``poly.term_power``.  The tokenizer scans
the text once, before parsing; a fault that it meets is raised only when
the parser reaches it, so a text with several faults reports the first one
in text order.  Identifiers must be declared variables of the ring.
``parse_poly(str(p), p.ring) == p`` for every polynomial: the printed
text round-trips.

Every expansion is bounded before it is made, with an ``ExprSyntaxError``
at the offset of the operator (or literal) at fault:

* parentheses nest at most ``MAX_NESTING`` deep, so the recursive descent
  stays far from the interpreter's recursion limit;
* a power ``base^n`` of a ``v``-term base is expanded only if its
  multinomial term bound C(n+v-1, v-1) is at most ``MAX_TERMS``:
  (x+y+z+1)^20, with 1771 terms, is;
* a product ``a*b`` is expanded only if ``len(a) * len(b)`` is at most
  ``MAX_TERMS``, so (x+y+z+1)^20*(x+y+z+1)^20 is rejected;
* the term products of a whole text number at most ``MAX_PRODUCTS``: each
  ``a*b`` counts ``len(a) * len(b)`` for its operands' term dicts, and
  each power of a base with more than one term counts the products that
  ``poly.term_power``'s repeated squaring makes, from the term bound
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
import re
from fractions import Fraction

from .errors import AmbientError, ExprSyntaxError, UnknownVariable
from .poly import Exp, Polynomial, VarSet, term_power, term_product

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
    """A bound on the term products that ``poly.term_power`` makes for
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


def _height(terms: dict[Exp, Fraction | int]) -> int:
    """A bound on the numerators and denominators of a term dict from which
    those of a product or power follow: every coefficient of ``a*b`` has
    numerator and denominator at most ``_height(a) * _height(b)``, and of
    ``p^n`` at most ``_height(p)^n``.  It is the larger of the lcm ``d`` of
    the denominators and the sum of ``|d*c|`` over the coefficients ``c``."""
    if len(terms) == 1:
        c, = terms.values()
        return max(c.denominator, abs(c.numerator))
    d = math.lcm(*[c.denominator for c in terms.values()])
    return max(d, sum(abs(c.numerator) * (d // c.denominator) for c in terms.values()))


# white space, a natural number, a word, an operator, or any other
# character; \w and \s match exactly the characters that str.isalnum (or
# "_") and str.isspace accept
_TOKEN = re.compile(r"(?P<space>\s+)|(?P<nat>[0-9]+)|(?P<word>\w+)|(?P<op>[-+*^()/])|.", re.S)


def _tokens(text: str) -> list[tuple]:
    """The tokens of ``text`` as ``(kind, value, offset)``, scanned once,
    up to an ``("end", "", offset)`` token.  At a character no token
    starts with (a word must start with a letter or "_"), or a literal that
    is too long, the list ends with ``("fault", error, offset)`` instead,
    which the parser raises when it reaches it, so a fault earlier in the
    text is reported first."""
    out = []
    for m in _TOKEN.finditer(text):
        group = m.lastgroup
        if group == "space":
            continue
        val, off = m.group(), m.start()
        if group == "op":
            out.append((val, val, off))
        elif group == "word" and (val[0].isalpha() or val[0] == "_"):
            out.append(("ident", val, off))
        elif group == "nat" and len(val) <= MAX_DIGITS:
            out.append(("nat", val, off))
        else:
            if group == "nat":
                fault = f"numeric literal longer than {MAX_DIGITS} digits"
            else:
                fault = f"unexpected character {val[0]!r}"
            out.append(("fault", ExprSyntaxError(fault, off), off))
            return out
    out.append(("end", "", len(text)))
    return out


class _Parser:
    """Recursive descent over the grammar above; each rule returns the term
    dict over ``ring`` that its text denotes, with int or Fraction
    coefficients."""

    def __init__(self, text: str, ring: VarSet):
        self.toks = _tokens(text)
        self.i = 0
        self.ring = ring
        self.zero = ring.zero_exp()
        self.depth = 0
        self.products = 0  # term products made so far, for MAX_PRODUCTS

    def peek(self) -> tuple:
        tok = self.toks[self.i]
        if tok[0] == "fault":
            raise tok[1]
        return tok

    def next(self) -> tuple:
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {val!r}", off)
        return Polynomial._of(self.ring, {e: Fraction(c) if type(c) is int else c
                                          for e, c in p.items()})

    def expr(self) -> dict:
        """A sum is collected in one dict, so it costs its length once.
        Each term that a ``+`` or ``-`` adds is charged to ``MAX_PRODUCTS``
        at that operator, and each coefficient it touches is checked."""
        if self.peek()[0] == "-":
            self.i += 1
            first = {e: -c for e, c in self.term().items()}
        else:
            first = self.term()
        # every rule returns a dict of its own, so the sum collects in it
        acc = first
        kind = self.peek()[0]
        while kind in ("+", "-"):
            off = self.next()[2]
            right = self.term()
            self._charge(len(right), off)
            for e, c in right.items():
                s = acc.get(e)
                if kind == "-":
                    c = -c
                s = c if s is None else s + c
                if not s:
                    del acc[e]
                elif abs(s.numerator) >= _TOO_LONG or s.denominator >= _TOO_LONG:
                    raise ExprSyntaxError(
                        f"sum has a coefficient longer than {MAX_DIGITS} digits", off)
                else:
                    acc[e] = s
            kind = self.peek()[0]
        return acc

    def term(self) -> dict:
        acc = self.factor()
        while True:
            kind, _, off = self.peek()
            if kind != "*":
                return acc
            self.i += 1
            right = self.factor()
            if len(acc) * len(right) > MAX_TERMS:
                raise ExprSyntaxError(f"product {_MANY}", off)
            if _height(acc) * _height(right) >= _TOO_LONG:
                raise ExprSyntaxError(f"product {_LONG}", off)
            self._charge(len(acc) * len(right), off)
            acc = term_product(acc, right)

    def factor(self) -> dict:
        base = self.base()
        kind, _, off = self.peek()
        if kind != "^":
            return base
        self.i += 1
        k2, val, off2 = self.next()
        if k2 != "nat":
            raise ExprSyntaxError("exponent must be a literal natural number", off2)
        v, n = len(base), int(val)
        # C(n+v-1, n) > n for v > 1: a large n is rejected without computing it
        if v > 1 and (n >= MAX_TERMS or math.comb(n + v - 1, n) > MAX_TERMS):
            raise ExprSyntaxError(f"power {_MANY}", off)
        # h^n >= 2^(n * (bits - 1)): a large n is rejected without computing h^n
        h = _height(base)
        if h > 1 and (n * (h.bit_length() - 1) >= _TOO_LONG_BITS or h ** n >= _TOO_LONG):
            raise ExprSyntaxError(f"power {_LONG}", off)
        if v > 1:
            self._charge(_power_products(v, n), off)
        return term_power(base, n, self.zero)

    def _charge(self, products: int, off: int):
        """Count the term products of the operator at ``off`` against the
        text's ``MAX_PRODUCTS``."""
        self.products += products
        if self.products > MAX_PRODUCTS:
            raise ExprSyntaxError(
                f"text would make more than {MAX_PRODUCTS} term products", off)

    def base(self) -> dict:
        kind, val, off = self.next()
        if kind == "nat":
            if self.peek()[0] != "/":
                c = int(val)
            else:
                self.i += 1
                k3, den, off3 = self.next()
                if k3 != "nat":
                    raise ExprSyntaxError("denominator must be a natural number", off3)
                if int(den) == 0:
                    raise ExprSyntaxError("zero denominator", off3)
                c = Fraction(int(val), int(den))
            return {self.zero: c} if c else {}
        if kind == "ident":
            try:
                i = self.ring.index(val)
            except AmbientError:
                raise UnknownVariable(val, off) from None
            return {self.zero[:i] + (1,) + self.zero[i + 1:]: 1}
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", off)
            self.depth += 1
            p = self.expr()
            self.depth -= 1
            k2, _, off2 = self.next()
            if k2 != ")":
                raise ExprSyntaxError("expected ')'", off2)
            return p
        raise ExprSyntaxError(f"unexpected token {val!r}", off)


def parse_poly(text: str, ring: VarSet) -> Polynomial:
    """Parse expression text into a canonical polynomial over the ring;
    raises ExprSyntaxError (UnknownVariable for an undeclared name) at the
    first fault in the text."""
    return _Parser(text, ring).parse()
