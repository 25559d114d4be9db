"""Liftability certificates and the stable-unfolding pipeline.

A field eta on the target is liftable over f when df o xi = eta o f for some
field xi on the source; both are module elements with one entry per
coordinate (see :mod:`germlift.germs`).  Certificates carry the witness xi
and re-verify the defining identity by exact expansion in the kernel's
integers (``groebner.re_expands``, the routine behind ``express``'s own
check); that is the one re-expansion behind a certified lift, as
:func:`is_liftable` divides by the columns of df without ``express``.  Each
certified lift also composes eta o f once, and packs it for the kernel
once: :func:`is_liftable` hands the image it divided to the certificate,
which re-expands against it, while a certificate built by hand composes
eta o f itself.  The pipeline recovers
the liftable fields of a core germ from those of an unfolding by intersecting
with the restrictable fields (whose parameter components vanish on the zero
section of the parameters, a monomial module), restricting, and pruning,
and returns the certificate of every output generator along with the
module.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, InitVar, dataclass
from fractions import Fraction
from typing import Iterable

from .errors import (
    AmbientError,
    InputNotLiftable,
    OutputNotCertified,
    StructureError,
)
from .germs import MapGerm, Unfolding, check_field, tf_generators, wf_apply
from .groebner import Budget, _divide, prune_module, re_expands, reduced_basis, syzygy_module
from .modules import GREVLEX, ModuleElement, Submodule, combine, membership_module
from .poly import Polynomial, set_zero, zero_section


@dataclass(frozen=True)
class LiftCertificate:
    """A verified witness pair: df o xi = eta o f, exactly.

    Building one re-expands sum(xi_j * (column j of df)) against eta o f
    by ``groebner.re_expands`` and raises StructureError when they differ.
    A certificate built by hand composes eta o f itself; :func:`is_liftable`
    passes the eta o f it divided (``_image``), so a certified lift composes
    it once.
    """

    germ: MapGerm
    eta: ModuleElement
    xi: ModuleElement
    _: KW_ONLY
    _image: InitVar[ModuleElement | None] = None

    def __post_init__(self, _image):
        germ = self.germ
        check_field(self.eta, germ.target, "the target of the germ")
        check_field(self.xi, germ.source, "the source of the germ")
        image = wf_apply(self.eta, germ) if _image is None else _image
        if not re_expands(image, self.xi.entries, tf_generators(germ)):
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


def is_liftable(f: MapGerm, eta: ModuleElement, budget: Budget | None = None) -> LiftResult:
    """Decide polynomial liftability of eta over f, producing a certificate.

    eta o f is composed once and divided by the columns of df once; a
    witness is returned only inside a :class:`LiftCertificate`, whose
    construction re-expands df(xi) against that eta o f exactly.
    ``wf_apply`` checks that eta is a field on the target of f, and reads
    the budget's clock while it composes.
    """
    rhs = wf_apply(eta, f, budget)
    membership = _divide(rhs, tf_generators(f), budget)
    if membership.is_member:
        xi = ModuleElement(f.source, membership.coefficients)
        return LiftResult(LiftCertificate(f, eta, xi, _image=rhs))
    return LiftResult(None, membership.remainder, _graded_setup(f, rhs))


def _zero_section_params(eta: ModuleElement, U: Unfolding) -> list[Polynomial]:
    """The parameter components of ``eta`` with the target parameters set to 0."""
    return [set_zero(eta.entries[j], U.target_params) for j in U.target_param_indices()]


def restrictable(eta: ModuleElement, U: Unfolding) -> bool:
    """Whether every parameter component of ``eta`` vanishes once the target
    parameters are set to 0: membership in the module generated by the core
    unit fields and (parameter) * d/d(parameter) in all combinations."""
    check_field(eta, U.total.target, "the unfolded target")
    return all(p.is_zero for p in _zero_section_params(eta, U))


def restrict_field(eta: ModuleElement, U: Unfolding) -> ModuleElement:
    """Set the parameters to zero and keep the non-parameter components,
    renamed onto the core's target ring."""
    check_field(eta, U.total.target, "the unfolded target")
    core_tgt = U.core.target
    return ModuleElement(core_tgt, [zero_section(eta.entries[i], U.target_params, core_tgt)
                                    for i in U.non_param_target_indices()])


def restrictable_part(U: Unfolding, liftF: Submodule,
                      budget: Budget | None = None) -> list[ModuleElement]:
    """The reduced grevlex basis of the restrictable fields in ``liftF``.

    sum(c_i * g_i) is restrictable exactly when c on the zero section is a
    syzygy of the g_i's parameter components there, so (parameter) * g_i and
    sum(b_i * g_i) over those syzygies b generate the restrictable part.
    Every basis element is checked restrictable.
    """
    budget = budget or Budget()
    ring = U.total.target
    gens = liftF.generators
    spanning = [g.scale(Polynomial.variable(ring, v))
                for v in U.target_params for g in gens]
    if gens:
        at_zero = [ModuleElement(ring, _zero_section_params(g, U)) for g in gens]
        syz = syzygy_module(at_zero, budget, GREVLEX)
        spanning += [combine(ring, U.total.p, b.entries, gens) for b in syz.generators]
    basis = reduced_basis(ring, U.total.p, spanning, GREVLEX, budget)
    if not all(restrictable(g, U) for g in basis):
        raise StructureError("internal: intersection output is not restrictable")
    return basis


def lift_from_unfolding(U: Unfolding, liftF: Submodule,
                        budget: Budget | None = None
                        ) -> tuple[Submodule, tuple[LiftCertificate, ...]]:
    """Liftable fields of the core from a generating set of Lift(total).

    The restrictable fields of Lift(total) (:func:`restrictable_part`, in
    it by construction) are restricted to the zero section and pruned.

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
    budget = budget or Budget()
    certs = []
    for idx, g in enumerate(liftF.generators):
        res = is_liftable(U.total, g, budget)
        if not res.certified:
            raise InputNotLiftable(idx, res.obstruction)
        certs.append(res.certificate)
    if U.r == 0:
        return liftF, tuple(certs)
    candidates = [restrict_field(g, U) for g in restrictable_part(U, liftF, budget)]
    candidates = [c for c in candidates if not c.is_zero]
    raw = membership_module(U.core.target, U.core.p, candidates)
    out = prune_module(raw, budget)
    certs = []
    for idx, g in enumerate(out.generators):
        res = is_liftable(U.core, g, budget)
        if not res.certified:
            raise OutputNotCertified(idx, res.obstruction)
        certs.append(res.certificate)
    return out, tuple(certs)


def origin_span(fields: Iterable[ModuleElement]) -> list[tuple[Fraction, ...]]:
    """Basis of the span of the fields' values at the origin (tau-tilde)."""
    rows = [list(g.at_origin()) for g in fields]
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

