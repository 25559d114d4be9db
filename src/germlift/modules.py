"""Free-module elements and finitely generated submodules over a polynomial ring.

A submodule's working order is a :class:`~germlift.poly.MonomialOrder`,
which the Groebner kernel extends to vectors term over position.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import AmbientError, RankError
from .poly import Exp, MonomialOrder, Polynomial, VarSet, _cleared, _rational, add_products


class ModuleElement:
    """A vector of polynomials of fixed rank over one ambient ring."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring: VarSet, entries: Sequence[Polynomial]):
        self.ring = ring
        self.entries = tuple(entries)
        for p in self.entries:
            if p.ring is not ring and p.ring != ring:
                raise AmbientError("module element entries must share one ring")

    @staticmethod
    def zero(ring: VarSet, rank: int) -> "ModuleElement":
        z = Polynomial.zero(ring)
        return ModuleElement(ring, (z,) * rank)

    @staticmethod
    def unit(ring: VarSet, rank: int, comp: int) -> "ModuleElement":
        entries = [Polynomial.zero(ring)] * rank
        entries[comp] = Polynomial.const(ring, 1)
        return ModuleElement(ring, entries)

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.entries)

    def _check(self, other: "ModuleElement"):
        if self.ring != other.ring:
            raise AmbientError("module elements over different rings")
        if self.rank != other.rank:
            raise RankError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        self._check(other)
        return ModuleElement(self.ring, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        self._check(other)
        return ModuleElement(self.ring, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "ModuleElement":
        return ModuleElement(self.ring, [-a for a in self.entries])

    def scale(self, c) -> "ModuleElement":
        """Multiply by a Polynomial, Fraction or int."""
        return ModuleElement(self.ring, [p * c if isinstance(c, (int, Fraction)) else c * p for p in self.entries])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModuleElement)
            and self.ring == other.ring
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring, self.entries))

    def at_origin(self) -> tuple[Fraction, ...]:
        return tuple(p.constant_term() for p in self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.entries) + ")"

    def __repr__(self) -> str:
        return f"ModuleElement{self}"


def proportional(a: ModuleElement, b: ModuleElement) -> Fraction | None:
    """The nonzero rational ``c`` with ``a == c*b``, or None."""
    a._check(b)
    c = None
    for pa, pb in zip(a.entries, b.entries):
        if pa.is_zero != pb.is_zero:
            return None
        if pa.is_zero:
            continue
        eb, cb = pb.leading()
        if eb not in pa.terms:
            return None
        ratio = pa.terms[eb] / cb
        if c is None:
            c = ratio
        elif c != ratio:
            return None
        if pa != pb * ratio:
            return None
    return Fraction(1) if c is None else c


GREVLEX = MonomialOrder.grevlex()


def combine(ring: VarSet, rank: int, coeffs: Iterable,
            gens: Iterable[ModuleElement]) -> ModuleElement:
    """sum(coeffs_i * gens_i), the zero vector of ``rank`` for no terms.

    A coefficient is a Polynomial over ``ring``, a Fraction or an int.
    The coefficients are scaled to integers by one common denominator, and
    the generators' entries by another (``poly._cleared``).  Every term
    product is summed in ``int`` into one term dict per component, and
    each component becomes a polynomial once, at the end, with one
    Fraction per term.
    """
    cs, gs, at = [], [], []  # coefficients, nonzero entries, (coefficient, component)
    for c, g in zip(coeffs, gens):
        if g.ring is not ring and g.ring != ring:
            raise AmbientError("module elements over different rings")
        if g.rank != rank:
            raise RankError(f"rank mismatch: {rank} vs {g.rank}")
        if isinstance(c, (int, Fraction)):
            c = {ring.zero_exp(): c} if c else {}
        elif isinstance(c, Polynomial):
            if c.ring is not ring and c.ring != ring:
                raise AmbientError(f"ambient mismatch: {ring!r} vs {c.ring!r}")
            c = c.terms
        else:
            raise TypeError(f"a coefficient must be a Polynomial, int or Fraction, not {c!r}")
        if not c:
            continue
        for j, p in enumerate(g.entries):
            if p.terms:
                gs.append(p.terms)
                at.append((len(cs), j))
        cs.append(c)
    cs, dc = _cleared(*cs)
    gs, dg = _cleared(*gs)
    acc: list[dict[Exp, int]] = [{} for _ in range(rank)]
    for (i, j), p in zip(at, gs):
        add_products(acc[j], cs[i], p)
    return ModuleElement(ring, [Polynomial._of(ring, _rational(d, 1, dc * dg)) for d in acc])


class Submodule:
    """Finitely generated submodule of a free module with a cached basis."""

    def __init__(
        self,
        ring: VarSet,
        rank: int,
        generators: Iterable[ModuleElement],
        order: MonomialOrder | None = None,
    ):
        self.ring = ring
        self.rank = int(rank)
        if self.rank < 1:
            raise RankError("rank must be a positive integer")
        self.generators = tuple(g for g in generators)
        for g in self.generators:
            if g.ring != ring:
                raise AmbientError("generators over a different ring")
            if g.rank != self.rank:
                raise RankError("generator rank differs from module rank")
        if order is None:
            order = ring.default_order()
        elif order.weights is not None and len(order.weights) != len(ring):
            raise AmbientError(f"{len(order.weights)} order weights for the "
                               f"{len(ring)} variables of {ring!r}")
        self.order = order
        self._gb = None  # GroebnerBasis, filled lazily

    @staticmethod
    def ideal(ring: VarSet, polys: Iterable[Polynomial], order=None) -> "Submodule":
        gens = [ModuleElement(ring, (p,)) for p in polys]
        return Submodule(ring, 1, gens, order)

    def ideal_generators(self) -> tuple[Polynomial, ...]:
        if self.rank != 1:
            raise RankError("not a rank-1 module")
        return tuple(g.entries[0] for g in self.generators)

    def __repr__(self) -> str:
        return f"Submodule(rank={self.rank}, {len(self.generators)} generators)"


def membership_module(ring: VarSet, rank: int,
                      generators: Iterable[ModuleElement]) -> Submodule:
    """A module of vector fields whose basis only answers membership.

    Membership does not depend on the order, so such modules work under
    plain grevlex: on the skewed weights of the hk targets the ring's
    weighted order makes Buchberger do several times the work.  Modules
    whose bases reach a report (printed witnesses, syzygies that become
    generators) stay on the ring's default order.
    """
    return Submodule(ring, rank, generators, GREVLEX)
