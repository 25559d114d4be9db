"""Polynomial map-germs, unfoldings with arbitrarily placed parameters, and
transport of vector fields along target diffeomorphisms.

A vector field on a space is a :class:`~germlift.modules.ModuleElement`
over that ring with one entry per coordinate; ``VectorField(space,
entries)`` builds one and checks the count, and every function here that
takes a field checks its ring and rank with :func:`check_field`.
``apply_to(eta, h)`` is the derivative of ``h`` along ``eta``.

Every composition with a germ f (``wf_apply``, ``MapGerm.compose``,
``push_forward``) runs through :func:`pull_back`, which hands
``poly.compose`` the germ's own cache of monomial images ``f^e``
(``MapGerm._images``, each as an integer term dict and its denominator),
so a field composed with f reuses every image that an earlier field
needed.  Each takes the caller's budget, whose clock ``poly.compose``
reads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .errors import AmbientError, InverseCheckFailed, RankError, StructureError
from .modules import ModuleElement, Submodule, combine
from .poly import Exp, Polynomial, VarSet, compose, zero_section

if TYPE_CHECKING:
    from .groebner import Budget


class MapGerm:
    """A polynomial map fixing the origin, (K^n, 0) -> (K^p, 0).

    Three caches live on a germ: its tangent module ``_tf``
    (:func:`tf_generators`), its monomial images ``_images`` (exponent
    ``e`` over the target -> ``(I_e, d_e)``, an integer term dict over the
    source and a positive denominator with ``f^e == I_e / d_e``,
    :func:`pull_back`) and ``_inverse``, the germ last verified to invert
    it together with the columns of ``dH o H^{-1}`` for it
    (:func:`push_forward`).  :meth:`drop_caches` forgets all three.
    """

    __slots__ = ("source", "target", "components", "_tf", "_images", "_inverse")

    def __init__(self, source: VarSet, target: VarSet, components: Sequence[Polynomial]):
        self.source = source
        self.target = target
        self.components = tuple(components)
        if len(self.components) != len(target):
            raise StructureError(
                f"{len(self.components)} components for a {len(target)}-dimensional target"
            )
        for p in self.components:
            if p.ring != source:
                raise AmbientError("components must live over the source ring")
            if p.constant_term() != 0:
                raise StructureError("germ must map the origin to the origin")
        self.drop_caches()

    def drop_caches(self):
        self._tf = None
        self._images: dict[Exp, tuple[dict[Exp, int], int]] = {}
        self._inverse: tuple[MapGerm, list[ModuleElement]] | None = None

    @property
    def n(self) -> int:
        return len(self.source)

    @property
    def p(self) -> int:
        return len(self.target)

    def compose(self, inner: "MapGerm", budget: Budget | None = None) -> "MapGerm":
        """self after inner; a ``budget``'s clock is read as in :func:`pull_back`."""
        if inner.target.names != self.source.names:
            raise AmbientError("composition: inner target must match outer source")
        comps = [pull_back(c, inner, budget) for c in self.components]
        return MapGerm(inner.source, self.target, comps)

    def is_identity(self) -> bool:
        if self.source.names != self.target.names:
            return False
        return all(
            c == Polynomial.variable(self.source, n)
            for c, n in zip(self.components, self.source.names)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MapGerm)
            and self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.source, self.target, self.components))

    def __str__(self) -> str:
        comps = ", ".join(str(c) for c in self.components)
        return f"({', '.join(self.source.names)}) -> ({comps})"

    def __repr__(self) -> str:
        return f"MapGerm{self}"


def check_field(eta: ModuleElement, space: VarSet, where: str) -> None:
    """Raise unless ``eta`` is a vector field on ``space``, described by
    ``where``: a module element over that ring with one entry per
    coordinate."""
    if eta.ring != space:
        raise AmbientError(f"field must live on {where}")
    if eta.rank != len(space):
        raise RankError("a vector field needs one entry per coordinate")


def VectorField(space: VarSet, entries: Sequence[Polynomial]) -> ModuleElement:
    """An element of theta_p: the module element over ``space`` with one
    polynomial entry per coordinate."""
    eta = ModuleElement(space, entries)
    check_field(eta, space, "its space")
    return eta


def apply_to(eta: ModuleElement, h: Polynomial) -> Polynomial:
    """Directional derivative eta(h) = sum(entry_i * dh/dx_i)."""
    check_field(eta, h.ring, "the ring of the function")
    out = Polynomial.zero(h.ring)
    for name, a in zip(h.ring.names, eta.entries):
        out = out + a * h.diff(name)
    return out


def jacobian(f: MapGerm) -> list[list[Polynomial]]:
    """The p x n matrix of partials, entry (i, j) = d f_i / d x_j."""
    return [[c.diff(v) for v in f.source.names] for c in f.components]


def tf_generators(f: MapGerm) -> Submodule:
    """The columns of df as a submodule of rank p over the source ring."""
    if f._tf is None:
        J = jacobian(f)
        cols = [
            ModuleElement(f.source, [J[i][j] for i in range(f.p)])
            for j in range(f.n)
        ]
        f._tf = Submodule(f.source, f.p, cols)
    return f._tf


def pull_back(p: Polynomial, f: MapGerm, budget: Budget | None = None) -> Polynomial:
    """p o f: ``p`` over f's target (matched by position) composed with f,
    through the germ's cache of monomial images.  A ``budget``'s clock is
    read before each product that builds an image."""
    return compose(p, f.components, f.source, f._images, budget)


def wf_apply(eta: ModuleElement, f: MapGerm, budget: Budget | None = None) -> ModuleElement:
    """eta composed with f, a rank-p element over the source ring."""
    check_field(eta, f.target, "the target of the germ")
    return ModuleElement(f.source, [pull_back(p, f, budget) for p in eta.entries])


def push_forward(eta: ModuleElement, H: MapGerm, H_inv: MapGerm,
                 budget: Budget | None = None) -> ModuleElement:
    """Transport of a field through a diffeomorphism, dH o eta o H^{-1}:
    the combination of the columns of dH o H^{-1} by eta o H^{-1}.

    Both composites of H and H_inv are checked to be the identity, exactly,
    once per pair, and the columns of dH o H^{-1} are worked out then:
    ``H`` remembers the inverse it passed with, and those columns, for
    every later field.  An inverse that fails is never remembered, so every
    call with it raises.  Every composition reads the ``budget``'s clock,
    as in :func:`pull_back`.
    """
    check_field(eta, H.source, "the source of the diffeomorphism")
    if H._inverse is None or H._inverse[0] is not H_inv:
        if not H.compose(H_inv, budget).is_identity() \
                or not H_inv.compose(H, budget).is_identity():
            raise InverseCheckFailed("supplied inverse does not invert the map")
        J = jacobian(H)
        H._inverse = H_inv, [
            ModuleElement(H.target, [pull_back(J[i][j], H_inv, budget) for i in range(H.p)])
            for j in range(H.n)]
    return combine(H.target, H.p, wf_apply(eta, H_inv, budget).entries, H._inverse[1])


class Unfolding:
    """An unfolding F(x, l) = (f_l(x), l) with explicit parameter positions.

    ``source_params`` and ``target_params`` name the parameter variables in
    the source and the matching parameter coordinates in the target; they may
    sit at arbitrary positions, not only trailing ones.
    """

    __slots__ = ("total", "source_params", "target_params", "core")

    def __init__(self, total: MapGerm, source_params: Sequence[str],
                 target_params: Sequence[str], core: MapGerm):
        self.total = total
        self.source_params = tuple(source_params)
        self.target_params = tuple(target_params)
        self.core = core
        if len(self.source_params) != len(self.target_params):
            raise StructureError("source and target parameter counts differ")
        for v in self.source_params:
            total.source.index(v)
        for v in self.target_params:
            total.target.index(v)
        for sv, tv in zip(self.source_params, self.target_params):
            comp = total.components[total.target.index(tv)]
            if comp != Polynomial.variable(total.source, sv):
                raise StructureError(
                    f"target component {tv} must equal the source parameter {sv}"
                )
        if self.restrict() != core:
            raise StructureError("restricting the unfolding does not give the core")

    @property
    def r(self) -> int:
        return len(self.source_params)

    def target_param_indices(self) -> list[int]:
        return [self.total.target.index(v) for v in self.target_params]

    def non_param_target_indices(self) -> list[int]:
        tp = set(self.target_param_indices())
        return [i for i in range(self.total.p) if i not in tp]

    def restrict(self) -> MapGerm:
        """Set all parameters to zero and drop parameter coordinates.

        Remaining source variables are renamed positionally onto the core's
        source ring, so the result is directly comparable with the core.
        """
        total = self.total
        src = self.core.source
        if len(total.source) - len(set(self.source_params)) != len(src):
            raise StructureError("core source dimension mismatch")
        comps = [zero_section(total.components[i], self.source_params, src)
                 for i in self.non_param_target_indices()]
        return MapGerm(src, self.core.target, comps)

    def __repr__(self) -> str:
        return (
            f"Unfolding(params {self.source_params} -> {self.target_params}, "
            f"total {self.total!r})"
        )

