"""Liftability certificates and the stable-unfolding pipeline.

A field eta on the target is liftable over f when df o xi = eta o f for some
field xi on the source.  Certificates carry the witness xi and re-verify the
defining identity by exact expansion; the pipeline recovers the liftable
fields of a core germ from those of an unfolding by intersecting with the
module of fields whose parameter components vanish on the zero section,
restricting, and pruning, and returns the certificate of every output
generator along with the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AmbientError,
    InputNotLiftable,
    OutputNotCertified,
    StructureError,
)
from .germs import MapGerm, Unfolding, VectorField, jacobian, tf_generators, wf_apply
from .groebner import Budget, express, module_intersect, prune_module
from .modules import ModuleElement, Submodule, membership_module
from .poly import Polynomial


@dataclass(frozen=True)
class LiftCertificate:
    """A verified witness pair: df o xi = eta o f, exactly."""

    germ: MapGerm
    eta: VectorField
    xi: VectorField

    def __post_init__(self):
        if self.eta.space != self.germ.target:
            raise AmbientError("eta must live on the target of the germ")
        if self.xi.space != self.germ.source:
            raise AmbientError("xi must live on the source of the germ")
        J = jacobian(self.germ)
        lhs = []
        for i in range(self.germ.p):
            acc = Polynomial.zero(self.germ.source)
            for j in range(self.germ.n):
                acc = acc + J[i][j] * self.xi.entries[j]
            lhs.append(acc)
        rhs = wf_apply(self.eta, self.germ)
        if ModuleElement(self.germ.source, lhs) != rhs:
            raise StructureError("certificate identity df(xi) = eta o f failed")


@dataclass(frozen=True)
class LiftResult:
    """Outcome of a liftability check.

    ``certificate`` is set on success.  Otherwise ``obstruction`` is the
    nonzero normal form of eta o f against the columns of df; this refutes a
    polynomial witness, and is conclusive for the germ-level question only
    when the data is quasihomogeneous (``conclusive``).
    """

    certificate: LiftCertificate | None
    obstruction: ModuleElement | None = None
    conclusive: bool = False

    @property
    def certified(self) -> bool:
        return self.certificate is not None


def _graded_setup(f: MapGerm, rhs: ModuleElement) -> bool:
    if f.source.weights is None:
        return False
    if not all(c.is_weighted_homogeneous() for c in f.components):
        return False
    return all(p.is_zero or p.is_weighted_homogeneous() for p in rhs.entries)


def is_liftable(f: MapGerm, eta: VectorField, budget: Budget | None = None) -> LiftResult:
    """Decide polynomial liftability of eta over f, producing a certificate."""
    if eta.space != f.target:
        raise AmbientError("field must live on the target of the germ")
    rhs = wf_apply(eta, f)
    membership = express(rhs, tf_generators(f), budget)
    if membership.is_member:
        xi = VectorField(f.source, membership.coefficients)
        return LiftResult(LiftCertificate(f, eta, xi))
    return LiftResult(None, membership.remainder, _graded_setup(f, rhs))


def restrictable_fields(U: Unfolding) -> Submodule:
    """Fields on the unfolded target whose restriction to the parameter zero
    section is well defined: unit fields at non-parameter coordinates plus
    (parameter) * d/d(parameter) in all combinations."""
    ring = U.total.target
    P = U.total.p
    gens = []
    for i in U.non_param_target_indices():
        gens.append(ModuleElement.unit(ring, P, i))
    for tv in U.target_params:
        lam = Polynomial.variable(ring, tv)
        for j in U.target_param_indices():
            gens.append(ModuleElement.unit(ring, P, j).scale(lam))
    return membership_module(ring, P, gens)


def restrict_field(eta: VectorField, U: Unfolding) -> VectorField:
    """Set the parameters to zero and keep the non-parameter components,
    renamed onto the core's target ring."""
    if eta.space != U.total.target:
        raise AmbientError("field must live on the unfolded target")
    core_tgt = U.core.target
    keep = U.non_param_target_indices()
    zero = {v: Polynomial.zero(core_tgt) for v in U.target_params}
    rename = {
        U.total.target.names[i]: Polynomial.variable(core_tgt, new)
        for i, new in zip(keep, core_tgt.names)
    }
    mapping = {**zero, **rename}
    entries = [
        eta.entries[i].substitute(mapping, into=core_tgt) for i in keep
    ]
    return VectorField(core_tgt, entries)


def lift_from_unfolding(U: Unfolding, liftF: Submodule,
                        budget: Budget | None = None
                        ) -> tuple[Submodule, tuple[LiftCertificate, ...]]:
    """Liftable fields of the core from a generating set of Lift(total).

    Every input generator is certified liftable over the unfolding before
    use, and every output generator is certified liftable over the core; a
    failure of either check is an error, never silently dropped.  Returns
    the module with one certificate per generator, in generator order (for
    a trivial unfolding, the input module and its certificates).  The
    returned module of a nontrivial unfolding has working order grevlex
    (``membership_module``); its generators are sorted by the ring's
    default order.
    """
    ring = U.total.target
    if liftF.ring != ring or liftF.rank != U.total.p:
        raise AmbientError("liftF must be a module of fields on the unfolded target")
    certs = []
    for idx, g in enumerate(liftF.generators):
        res = is_liftable(U.total, VectorField.from_element(g), budget)
        if not res.certified:
            raise InputNotLiftable(idx, res.obstruction)
        certs.append(res.certificate)
    if U.r == 0:
        return liftF, tuple(certs)
    crossed = module_intersect(liftF, restrictable_fields(U), budget)
    candidates = [
        restrict_field(VectorField.from_element(g), U).as_element()
        for g in crossed.generators
    ]
    candidates = [c for c in candidates if not c.is_zero]
    raw = membership_module(U.core.target, U.core.p, candidates)
    out = prune_module(raw, budget)
    certs = []
    for idx, g in enumerate(out.generators):
        res = is_liftable(U.core, VectorField.from_element(g), budget)
        if not res.certified:
            raise OutputNotCertified(idx, res.obstruction)
        certs.append(res.certificate)
    return out, tuple(certs)


def origin_span(M: Submodule) -> list[tuple[Fraction, ...]]:
    """Basis of the span of generator evaluations at the origin (tau-tilde)."""
    rows = [list(g.at_origin()) for g in M.generators]
    basis: list[list[Fraction]] = []
    pivots: list[int] = []
    for row in rows:
        row = list(row)
        for b, piv in zip(basis, pivots):
            if row[piv]:
                factor = row[piv] / b[piv]
                row = [x - factor * y for x, y in zip(row, b)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            continue
        row = [x / row[lead] for x in row]
        basis.append(row)
        pivots.append(lead)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [tuple(basis[i]) for i in order]

