"""Exact multivariate polynomials over the rationals.

Coefficients are :class:`fractions.Fraction` throughout; there is no floating
point anywhere in the package, and a float coefficient or exponent is
refused with a :class:`TypeError`.  Monomials are dense exponent tuples
whose length is fixed by the ambient :class:`VarSet`.

Composition has one routine, :func:`compose`: it sums ``c_e * img^e`` into
one term dict, taking each monomial image ``img^e`` from a cache that the
caller supplies, whatever the images look like.
``Polynomial.substitute`` passes a fresh cache, and ``germs.pull_back``
the cache kept on the germ.  Products with a one-term factor and powers of
one term shift exponents instead of summing term products, so a monomial
image of one-term images costs no term products.  Weights, of a ring, an
order, a grading or an Euler field, pass one check
(:func:`positive_weights`).  Setting variables to 0 is an exponent filter:
over the same ring (:func:`set_zero`), or with the other variables renamed
in order onto another ring (:func:`zero_section`).  Exact division pops the remainder's
terms from a heap (:func:`exact_divide`), and a determinant of a matrix of
polynomials is one fraction-free elimination (:func:`determinant`).

Products of several terms by several (:func:`term_product`), powers of
several terms (:func:`term_power`), composition, ``modules.combine``,
exact division, the determinant and :func:`integer_normalize` work on
integer coefficients: :func:`_cleared` scales their inputs to integers,
and the result is scaled back with one Fraction per term
(:func:`_rational`).  :func:`compose` keeps each monomial image as an
integer term dict over a denominator, builds them by integer products and
powers (:func:`_int_product`, :func:`_int_power`) and sums
``c_e * img^e`` over one common denominator.  Every term product is
summed by one loop (:func:`add_products`).  Both exact algorithms divide
by one integer loop (:func:`_divide`).  Exact division first divides the
divisor by its content; by Gauss's lemma a quotient by a primitive
integer polynomial has integer coefficients when it exists, so a lead
coefficient that does not divide refuses the division.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, sub
from typing import TYPE_CHECKING, Collection, Iterable, Mapping, Sequence

from .errors import AmbientError, NotDivisible

if TYPE_CHECKING:
    from .groebner import Budget

Exp = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

def exp_sub(a: Exp, b: Exp) -> Exp:
    return tuple(map(sub, a, b))


def exp_divides(a: Exp, b: Exp) -> bool:
    """True when the monomial with exponents ``a`` divides the one with ``b``."""
    return all(map(le, a, b))


def positive_weights(weights: Iterable, n: int | None = None) -> tuple[int, ...]:
    """``weights`` as a tuple of positive ints (not bools, floats or
    strings that convert to one), one per variable of an ``n``-variable
    ring when ``n`` is given; :class:`AmbientError` otherwise."""
    w = tuple(weights)
    if not all(type(x) is int and x > 0 for x in w):
        raise AmbientError(f"weights must be positive integers: {w}")
    if n is not None and len(w) != n:
        raise AmbientError(f"{len(w)} weights for {n} variables")
    return w


# the pattern of "ident" in the published manifest schema
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class VarSet:
    """An ordered set of variable names with optional positive integer weights."""

    __slots__ = ("names", "weights", "_index")

    def __init__(self, names: Iterable[str], weights: Iterable[int] | None = None):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise AmbientError(f"variable names are not distinct: {self.names}")
        for n in self.names:
            if not _IDENT.fullmatch(n):
                raise AmbientError(f"invalid variable name {n!r}")
        if weights is None:
            self.weights = None
        else:
            self.weights = positive_weights(weights, len(self.names))
        self._index = {n: i for i, n in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VarSet)
            and self.names == other.names
            and self.weights == other.weights
        )

    def __hash__(self) -> int:
        return hash((self.names, self.weights))

    def __repr__(self) -> str:
        if self.weights is None:
            return f"VarSet({list(self.names)})"
        return f"VarSet({list(self.names)}, weights={list(self.weights)})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise AmbientError(f"variable {name!r} not in {self.names}") from None

    def zero_exp(self) -> Exp:
        return (0,) * len(self.names)

    def unit_exp(self, i: int) -> Exp:
        e = [0] * len(self.names)
        e[i] = 1
        return tuple(e)

    def default_order(self) -> "MonomialOrder":
        """wgrevlex by the ring's weights when it declares them, else grevlex."""
        if self.weights is not None:
            return MonomialOrder.wgrevlex(self.weights)
        return MonomialOrder.grevlex()


@dataclass(frozen=True)
class MonomialOrder:
    """A term order, encoded by :meth:`heap_key` on exponent tuples.

    All four kinds are total well-orders compatible with multiplication.
    Orders other than the ring's default are used by passing them explicitly.
    """

    kind: str
    weights: tuple[int, ...] | None = None
    block: tuple[int, ...] = ()

    @staticmethod
    def lex() -> "MonomialOrder":
        return MonomialOrder("lex")

    @staticmethod
    def grevlex() -> "MonomialOrder":
        return MonomialOrder("grevlex")

    @staticmethod
    def wgrevlex(weights: Iterable[int]) -> "MonomialOrder":
        return MonomialOrder("wgrevlex", weights=positive_weights(weights))

    @staticmethod
    def elimination(block: Iterable[int]) -> "MonomialOrder":
        """Block order eliminating the variables at positions ``block``, in that order."""
        return MonomialOrder("block", block=tuple(block))

    def heap_key(self, e: Exp) -> tuple[int, ...]:
        """A flat int tuple, least for the greatest monomial, so ``min``
        finds the leading monomial and ``heapq`` pops monomials in
        descending order.  Every exponent tuple of one ring gives a key of
        one length, and distinct exponents give distinct keys.
        """
        if self.kind == "grevlex":
            return (-sum(e),) + e[::-1]
        if self.kind == "wgrevlex":
            w = self.weights
            return (-sum(wi * xi for wi, xi in zip(w, e)), -sum(e)) + e[::-1]
        if self.kind == "lex":
            return tuple(-x for x in e)
        if self.kind == "block":
            hi = tuple([e[i] for i in self.block])
            lo = tuple([x for i, x in enumerate(e) if i not in self.block])
            return (-sum(hi),) + hi[::-1] + (-sum(lo),) + lo[::-1]
        raise ValueError(f"unknown order kind {self.kind!r}")


class Polynomial:
    """Immutable polynomial: a map from exponent tuples to nonzero Fractions."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: VarSet, terms: Mapping[Exp, Fraction | int] | None = None):
        self.ring = ring
        clean: dict[Exp, Fraction] = {}
        if terms:
            for e, c in terms.items():
                if not isinstance(c, Fraction):
                    c = _exact(c)
                if c:
                    clean[tuple(e)] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @staticmethod
    def _of(ring: VarSet, terms: dict[Exp, Fraction]) -> "Polynomial":
        """Wrap ``terms``, which must already map exponent tuples of ``ring``
        to nonzero Fractions, without copying or checking them."""
        out = Polynomial.__new__(Polynomial)
        out.ring, out.terms = ring, terms
        return out

    @staticmethod
    def zero(ring: VarSet) -> "Polynomial":
        return Polynomial(ring)

    @staticmethod
    def const(ring: VarSet, c) -> "Polynomial":
        return Polynomial(ring, {ring.zero_exp(): c})

    @staticmethod
    def variable(ring: VarSet, name: str) -> "Polynomial":
        return Polynomial(ring, {ring.unit_exp(ring.index(name)): ONE})

    @staticmethod
    def monomial(ring: VarSet, exp: Exp, coeff=ONE) -> "Polynomial":
        return Polynomial(ring, {tuple(exp): coeff})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get(self.ring.zero_exp(), ZERO)

    def _check_same_ring(self, other: "Polynomial"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise AmbientError(
                f"ambient mismatch: {self.ring!r} vs {other.ring!r}"
            )

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        self._check_same_ring(other)
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e, ZERO) + c
            if s:
                res[e] = s
            elif e in res:
                del res[e]
        return Polynomial._of(self.ring, res)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Polynomial._of(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(self._coerce(other).__neg__())

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        """The product (:func:`term_product`); an int or Fraction factor is
        a constant polynomial."""
        other = self._coerce(other)
        self._check_same_ring(other)
        return Polynomial._of(self.ring, term_product(self.terms, other.terms))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        return self.power(n)

    def power(self, n: int, budget: Budget | None = None) -> "Polynomial":
        """The ``n``-th power (:func:`term_power`).  With a ``budget``,
        :meth:`Budget.check_clock` runs before each product."""
        return Polynomial._of(self.ring, term_power(self.terms, n, self.ring.zero_exp(), budget))

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(self.ring, other)
        raise TypeError(f"cannot combine Polynomial with {type(other)!r}")

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.ring, other)
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- calculus and substitution ------------------------------------------

    def diff(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to the named variable."""
        i = self.ring.index(name)
        res: dict[Exp, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            res[tuple(d)] = c * e[i]
        return Polynomial(self.ring, res)

    def substitute(
        self,
        mapping: Mapping[str, "Polynomial"],
        into: VarSet | None = None,
    ) -> "Polynomial":
        """Substitute polynomials for variables.

        Variables absent from ``mapping`` are mapped to the variable of the
        same name in the target ring; if the target ring has no such variable
        the substitution is rejected.
        """
        target = into
        for v in mapping.values():
            if target is None:
                target = v.ring
            elif v.ring != target:
                raise AmbientError("substitution images live in different rings")
        if target is None:
            target = self.ring
        images: list[Polynomial | None] = []
        for i, name in enumerate(self.ring.names):
            if name in mapping:
                images.append(mapping[name])
            elif any(e[i] for e in self.terms):
                if name not in target._index:
                    raise AmbientError(
                        f"no image for variable {name!r} in target ring"
                    )
                images.append(Polynomial.variable(target, name))
            else:
                images.append(None)
        return compose(self, images, target, {})

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        """Exact evaluation at a rational point (all variables required); a
        coordinate that is not an int or Fraction raises :class:`TypeError`."""
        vals = [_exact(point[n]) for n in self.ring.names]
        total = ZERO
        for e, c in self.terms.items():
            v = c
            for x, k in zip(vals, e):
                if k:
                    v *= x**k
            total += v
        return total

    # -- gradings -------------------------------------------------------------

    def weighted_degrees(self, weights: Iterable[int] | None = None) -> tuple[int, ...]:
        """Sorted distinct weighted degrees of the terms (empty for zero)."""
        if weights is None:
            if self.ring.weights is None:
                raise AmbientError("no weights declared for this ring")
            w = self.ring.weights
        else:
            w = positive_weights(weights, len(self.ring))
        degs = {sum(wi * ei for wi, ei in zip(w, e)) for e in self.terms}
        return tuple(sorted(degs))

    def is_weighted_homogeneous(self, weights: Iterable[int] | None = None) -> bool:
        return len(self.weighted_degrees(weights)) <= 1

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    # -- ordered access ---------------------------------------------------------

    def leading(self, order: MonomialOrder | None = None) -> tuple[Exp, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        order = order or self.ring.default_order()
        e = min(self.terms, key=order.heap_key)
        return e, self.terms[e]

    def sorted_terms(self, order: MonomialOrder | None = None):
        """Terms in descending order, leading term first."""
        order = order or self.ring.default_order()
        return sorted(self.terms.items(), key=lambda t: order.heap_key(t[0]))

    # -- printing -----------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for j, (e, c) in enumerate(self.sorted_terms()):
            factors = []
            for name, k in zip(self.ring.names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mag = abs(c)
            if not factors or mag != 1:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if j == 0:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def add_products(acc: dict[Exp, int], a: Mapping[Exp, int], b: Mapping[Exp, int]) -> None:
    """Add the product of the integer term dicts ``a`` and ``b`` into ``acc``.

    Sums that cancel stay in ``acc`` as zero coefficients; whoever wraps
    ``acc`` as a polynomial drops them once, at the end.
    """
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = acc.get(e)
            acc[e] = c1 * c2 if s is None else s + c1 * c2


def _int_product(a: Mapping[Exp, int], b: Mapping[Exp, int]) -> dict[Exp, int]:
    """The product of two integer term dicts, without zero coefficients."""
    acc: dict[Exp, int] = {}
    add_products(acc, a, b)
    return {e: c for e, c in acc.items() if c}


def term_product(a: Mapping[Exp, Fraction], b: Mapping[Exp, Fraction]) -> dict[Exp, Fraction]:
    """The product of two term dicts with nonzero rational (Fraction or
    int) coefficients, as another.

    By a one-term factor it is a shift of the other factor's exponents:
    distinct exponents stay distinct and no coefficient vanishes, and a
    coefficient 1 leaves the other factor's coefficients as they are.
    Otherwise both factors are scaled to integers by one denominator
    (:func:`_cleared`), every term product is summed in ``int``
    (:func:`add_products`), and the sum is scaled back with one Fraction
    per term (:func:`_rational`).  So the coefficients are Fractions when
    the inputs' are, and only a shift can leave ``int`` ones.
    """
    if len(a) == 1 or len(b) == 1:
        if len(a) != 1:
            a, b = b, a
        (e1, c1), = a.items()
        if c1 == 1:
            return {tuple(map(add, e1, e2)): c2 for e2, c2 in b.items()}
        return {tuple(map(add, e1, e2)): c1 * c2 for e2, c2 in b.items()}
    (ia, ib), den = _cleared(a, b)
    acc: dict[Exp, int] = {}
    add_products(acc, ia, ib)
    return _rational(acc, 1, den * den)


def term_power(terms: Mapping[Exp, Fraction], n: int, zero: Exp,
               budget: Budget | None = None) -> dict[Exp, Fraction]:
    """The ``n``-th power of a term dict with nonzero rational (Fraction or
    int) coefficients, whose exponents have the length of ``zero``, the
    exponent of 1.

    Of one term it is the coefficient to the ``n`` and the exponents times
    ``n``.  Otherwise the base is scaled to integers once, raised in ``int``
    (:func:`_int_power`, which reads a ``budget``'s clock before each
    product) and scaled back with one Fraction per term.  An exponent that
    is not an ``int`` raises :class:`TypeError`, a negative one
    :class:`ValueError`, before any work.
    """
    if type(n) is not int:
        raise TypeError(f"exponent must be an int, not {type(n).__name__} {n!r}")
    if n < 0:
        raise ValueError("negative exponents are outside the polynomial model")
    if len(terms) == 1:
        (e, c), = terms.items()
        return {tuple(k * n for k in e): c ** n}
    (base,), den = _cleared(terms)
    return _rational(_int_power(base, n, zero, budget), 1, den ** n)


def _int_power(base: Mapping[Exp, int], n: int, zero: Exp,
               budget: Budget | None = None) -> dict[Exp, int]:
    """The ``n``-th power of an integer term dict, without zero
    coefficients: of one term, the coefficient to the ``n`` and the
    exponents times ``n``; otherwise by repeated squaring, starting from 1
    (``zero``'s term).  With a ``budget``, :meth:`Budget.check_clock` runs
    before each product, each squaring included."""
    if len(base) == 1:
        (e, c), = base.items()
        return {tuple(k * n for k in e): c ** n}
    # from 1, so the products are those that exprio._power_products counts
    result = {zero: 1}
    k = n
    while k:
        if k & 1:
            if budget is not None:
                budget.check_clock()
            result = _int_product(result, base)
        if k > 1:
            if budget is not None:
                budget.check_clock()
            base = _int_product(base, base)
        k >>= 1
    return result


def compose(p: Polynomial, images: Sequence[Polynomial | None], ring: VarSet,
            cache: dict[Exp, tuple[dict[Exp, int], int]],
            budget: Budget | None = None) -> Polynomial:
    """``p(images[0], images[1], ...)`` over ``ring``: the sum of ``c_e * img^e``
    over the terms of ``p``, summed in ``int`` into one term dict.

    ``images[i]`` is read only if some term of ``p`` contains variable
    ``i``.  ``img^e = prod(images[i]^e_i)`` comes from ``cache``
    (exponent -> ``(I_e, d_e)``, an integer term dict and a positive
    denominator with ``img^e == I_e / d_e``), which is valid for as long as
    the caller keeps the images fixed.  Each image is scaled to integers
    at most once per call (:func:`_cleared`).  A missing monomial image is
    the product of the powers ``images[i]^e_i``, each cached under its
    own exponent: a higher power is built from ``images[i]^(e_i - 1)``
    when that is cached, else by repeated squaring (:func:`_int_power`), so
    no exponent costs more than its bit length in products and nothing
    recurses.  Every product is one of integer term dicts
    (:func:`_int_product`); a power of a one-term image (a renaming, an
    embedding, ``z -> z^k``) is a shift of exponents, and a zero image makes
    the products zero.  With a ``budget``, :meth:`Budget.check_clock` runs
    before each of those products, each squaring included.  The sum
    ``sum(c_e * I_e / d_e)`` is taken over one common denominator and
    scaled back with one Fraction per result term (:func:`_rational`).
    """
    zero = ring.zero_exp()
    cleared: dict[int, tuple[dict[Exp, int], int]] = {}  # i -> images[i] scaled
    parts = []
    for e, c in p.terms.items():
        img = cache.get(e)
        if img is None:
            for i, k in enumerate(e):
                if not k:
                    continue
                unit = (0,) * i + (k,) + (0,) * (len(e) - i - 1)
                power = cache.get(unit)
                if power is None:
                    base = cleared.get(i)
                    if base is None:
                        (terms,), den = _cleared(images[i].terms)
                        base = cleared[i] = terms, den
                    if k == 1:
                        power = base
                    else:
                        below = cache.get(unit[:i] + (k - 1,) + unit[i + 1:])
                        if below is not None:
                            if budget is not None:
                                budget.check_clock()
                            power = _int_product(below[0], base[0]), below[1] * base[1]
                        else:
                            power = _int_power(base[0], k, zero, budget), base[1] ** k
                    cache[unit] = power
                if img is None:
                    img = power
                else:
                    if budget is not None:
                        budget.check_clock()
                    img = _int_product(img[0], power[0]), img[1] * power[1]
            if img is None:
                img = {zero: 1}, 1
            cache[e] = img
        parts.append((c, img))
    den = lcm(*[c.denominator * d for c, (_, d) in parts])
    acc: dict[Exp, int] = {}
    for c, (terms, d) in parts:
        m = c.numerator * (den // (c.denominator * d))
        for e2, k in terms.items():
            s = acc.get(e2)
            acc[e2] = m * k if s is None else s + m * k
    return Polynomial._of(ring, _rational(acc, 1, den))


def rering(p: Polynomial, ring: VarSet) -> Polynomial:
    """``p`` over ``ring``, which must name the same variables in order."""
    if p.ring.names != ring.names:
        raise AmbientError("cannot move polynomial between unrelated rings")
    return Polynomial(ring, p.terms)


def set_zero(p: Polynomial, zeroed: Collection[str]) -> Polynomial:
    """``p`` with the variables ``zeroed`` set to 0, over ``p``'s own ring:
    the terms that contain no zeroed variable."""
    zero = [p.ring.index(n) for n in zeroed]
    return Polynomial._of(p.ring, {e: c for e, c in p.terms.items()
                                   if not any(e[i] for i in zero)})


def zero_section(p: Polynomial, zeroed: Collection[str], into: VarSet) -> Polynomial:
    """``p`` with the variables ``zeroed`` set to 0 and the others mapped, in
    order, onto the variables of ``into``: the terms that contain no zeroed
    variable, each with the exponents of the others."""
    ring = p.ring
    zero = [ring.index(n) for n in zeroed]
    keep = [i for i in range(len(ring)) if i not in zero]
    if len(keep) != len(into):
        raise AmbientError(f"{len(keep)} variables remain for the {len(into)} of {into}")
    return Polynomial._of(into, {tuple(e[i] for i in keep): c for e, c in p.terms.items()
                                 if not any(e[i] for i in zero)})


def fresh_name(ring: VarSet, stem: str) -> str:
    """``stem``, extended by underscores until no variable of ``ring`` has it."""
    name = stem
    while name in ring.names:
        name += "_"
    return name


def _exact(c) -> Fraction:
    """``c``, a Fraction or an int, as a Fraction; :class:`TypeError` for
    anything else, floats included."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficients must be int or Fraction, not {type(c).__name__} {c!r}")


def _cleared(*terms: Mapping[Exp, Fraction]) -> tuple[list[dict[Exp, int]], int]:
    """``([den * t for t in terms], den)`` as integer term dicts, with
    ``den`` the lcm of the denominators of all their coefficients."""
    den = lcm(*[c.denominator for t in terms for c in t.values()])
    if den == 1:
        return [{e: c.numerator for e, c in t.items()} for t in terms], 1
    return [{e: c.numerator * (den // c.denominator) for e, c in t.items()}
            for t in terms], den


def _rational(terms: Mapping[Exp, int], num: int, den: int) -> dict[Exp, Fraction]:
    """The term dict ``terms * num / den`` without its zero terms, from
    integer ``terms``, ``num`` nonzero and ``den`` positive: one Fraction
    per term."""
    g = gcd(num, den)
    num, den = num // g, den // g
    if den == 1:
        return {e: Fraction(c * num) for e, c in terms.items() if c}
    return {e: Fraction(c * num, den) for e, c in terms.items() if c}


def _divide(a: Mapping[Exp, int], b: Mapping[Exp, int], key) -> dict[Exp, int]:
    """``q`` with integer coefficients and ``a == q*b``, for integer term dicts
    with ``b`` nonzero; :class:`NotDivisible` when there is none.

    Long division by the leading term of ``b`` under ``key``.  The remainder
    is a term dict whose terms sit in a heap of heap keys, each pushed when
    it enters the remainder, so each step pops the greatest remaining term
    without a rescan; a popped term that has since cancelled is skipped.  A
    step only adds terms below the one it removes, so the steps are those of
    a rescan for the leading term, and the division fails at the first
    leading term that the lead of ``b`` does not divide, in its exponents or
    in its coefficient.
    """
    eb = min(b, key=key)
    cb = b[eb]
    tail = [(e, c) for e, c in b.items() if e != eb]
    rem = dict(a)
    heap = [(key(e), e) for e in rem]
    heapq.heapify(heap)
    quot: dict[Exp, int] = {}
    while heap:
        e = heapq.heappop(heap)[1]
        c = rem.pop(e, None)
        if c is None:
            continue
        q, r = divmod(c, cb)
        if r or not exp_divides(eb, e):
            raise NotDivisible
        shift = exp_sub(e, eb)
        quot[shift] = q
        for et, ct in tail:
            t = tuple(map(add, shift, et))
            old = rem.get(t)
            if old is None:
                rem[t] = -q * ct
                heapq.heappush(heap, (key(t), t))
            else:
                new = old - q * ct
                if new:
                    rem[t] = new
                else:
                    del rem[t]
    return quot


def exact_divide(a: Polynomial, b: Polynomial, budget: Budget | None = None) -> Polynomial:
    """Return ``q`` with ``a == q*b``; raise :class:`NotDivisible` otherwise.

    The division runs on integers (:func:`_divide`, in the ring's default
    order): ``a`` and ``b`` are scaled to integer coefficients, and ``b`` is
    divided by its content.  By Gauss's lemma a quotient by a primitive
    integer polynomial, when there is one, has integer coefficients, so the
    first step whose lead does not divide proves that ``b`` does not divide
    ``a``.  The integer quotient is scaled back once, one Fraction per term.
    With a ``budget``, :meth:`Budget.check_clock` runs once, before dividing.
    """
    a._check_same_ring(b)
    if budget is not None:
        budget.check_clock()
    if b.is_zero:
        if a.is_zero:
            return a
        raise NotDivisible("division by zero polynomial")
    (num,), den_a = _cleared(a.terms)
    (prim,), den_b = _cleared(b.terms)
    content = gcd(*prim.values())
    prim = {e: c // content for e, c in prim.items()}
    try:
        quot = _divide(num, prim, a.ring.default_order().heap_key)
    except NotDivisible:
        raise NotDivisible(f"{b} does not divide {a}") from None
    return Polynomial._of(a.ring, _rational(quot, den_b, den_a * content))


def determinant(rows: Sequence[Sequence[Polynomial]],
                budget: Budget | None = None) -> Polynomial:
    """The determinant of a nonempty square matrix of polynomials over one
    ring, by fraction-free elimination (E. H. Bareiss, Math. Comp. 22,
    1968) on integer coefficients.

    Each row is scaled to integer coefficients once, by the lcm of its
    denominators, and the determinant of the scaled matrix is divided by
    the product of those scales at the end.  Step ``k`` replaces each entry
    below and right of the pivot ``a[k][k]`` by ``(a[k][k]*a[i][j] -
    a[i][k]*a[k][j]) / p``, with ``p`` the previous pivot.  Every such entry
    is then a minor of the integer matrix, so each division (:func:`_divide`)
    is exact over the integers, and the last entry is the determinant.  A
    zero pivot is swapped with the first lower row that is nonzero in its
    column, which flips the sign; with none, the determinant is 0.  With a
    ``budget``, :meth:`Budget.check_clock` runs once per pivot.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("determinant needs a nonempty square matrix")
    first = rows[0][0]
    ring = first.ring
    a, scale = [], 1
    for r in rows:
        for p in r:
            first._check_same_ring(p)
        row, den = _cleared(*[p.terms for p in r])
        a.append(row)
        scale *= den
    key = ring.default_order().heap_key
    negate = False
    prev = None
    for k in range(n - 1):
        if budget is not None:
            budget.check_clock()
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return Polynomial.zero(ring)
            a[k], a[swap] = a[swap], a[k]
            negate = not negate
        pivot = a[k][k]
        for i in range(k + 1, n):
            minus = {e: -c for e, c in a[i][k].items()}
            for j in range(k + 1, n):
                t: dict[Exp, int] = {}
                add_products(t, pivot, a[i][j])
                add_products(t, minus, a[k][j])
                t = {e: c for e, c in t.items() if c}
                a[i][j] = t if prev is None else _divide(t, prev, key)
        prev = pivot
    return Polynomial._of(ring, _rational(a[-1][-1], -1 if negate else 1, scale))


def integer_normalize(p: Polynomial) -> Polynomial:
    """Scale to coprime integer coefficients with positive leading coefficient."""
    if p.is_zero:
        return p
    (terms,), _ = _cleared(p.terms)
    content = gcd(*terms.values())
    if p.leading()[1] < 0:
        content = -content
    return Polynomial._of(p.ring, {e: Fraction(c // content) for e, c in terms.items()})
