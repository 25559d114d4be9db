"""Metamorphic checks: answers transform exactly under a change of
coordinates.

For diffeomorphisms ``phi`` of the source and ``psi`` of the target,
``Lift(psi o f o phi) = psi_* Lift(f)`` and the discriminant of
``psi o f o phi`` is ``h o psi^{-1}`` up to a scalar (D. Mond and J. J.
Nuno-Ballesteros, *Singularities of Mappings*, 2020).  The changes below
preserve the weights, so graded verdicts stay conclusive.  None of these
checks needs a reference answer.
"""

from fractions import Fraction

import pytest

from germlift.derlog import discriminant
from germlift.exprio import parse_poly
from germlift.germs import MapGerm, pull_back, push_forward
from germlift.manifest import load_manifest
from germlift.lifting import is_liftable
from germlift.modules import ModuleElement, proportional

from conftest import fixture_path, versal

SCALES = (2, -3, 5)
# rational scales send denominators through the integer boundary of the
# norm's determinant and of the certificate's divisions
RATIONAL_SCALES = (Fraction(1, 2), Fraction(-3, 5), Fraction(7, 3), -2)


def _map(source, target, texts):
    return MapGerm(source, target, [parse_poly(t, source) for t in texts])


def _scaling(ring, scales=SCALES):
    """``psi = diag(2, -3, 5)``, or the diagonal of ``scales``, on the first
    coordinates of ``ring``, and its inverse."""
    scales = scales[:len(ring)]
    psi = _map(ring, ring, [f"{c}*{v}" for c, v in zip(scales, ring.names)])
    psi_inv = _map(ring, ring, [f"{Fraction(1, c)}*{v}" for c, v in zip(scales, ring.names)])
    return psi, psi_inv


@pytest.fixture(scope="module")
def hk():
    return load_manifest(fixture_path("hk.manifest.json"))


def _moved_H2(hk):
    """``psi o H2 o phi`` with ``phi = (x + 7y^4, y)``, which preserves the
    source weights (4, 1), and ``psi`` with its inverse."""
    H2 = hk.maps["H2"]
    phi = _map(H2.source, H2.source, ["x + 7*y^4", "y"])
    psi, psi_inv = _scaling(H2.target)
    return psi.compose(H2.compose(phi)), psi, psi_inv


def test_pushed_forward_liftable_fields_stay_liftable(hk):
    G, psi, psi_inv = _moved_H2(hk)
    fields = hk.fields["lift_H2"].fields
    assert len(fields) == 5
    for eta in fields:
        assert is_liftable(G, push_forward(eta, psi, psi_inv)).certified, str(eta)


def test_pushed_forward_obstruction_stays_conclusive(hk):
    G, psi, psi_inv = _moved_H2(hk)
    eta, = hk.fields["bogus_constant"].fields
    res = is_liftable(G, push_forward(eta, psi, psi_inv))
    assert not res.certified
    assert res.conclusive


@pytest.mark.parametrize("name", ["F", "f", "A2f", "A3f"])
def test_discriminant_moves_with_the_target(name):
    # the maps of the aug.disc_* tasks
    f = load_manifest(fixture_path("augment.manifest.json")).maps[name]
    psi, psi_inv = _scaling(f.target)
    h = discriminant(f).h
    moved = discriminant(psi.compose(f)).h
    ring = f.target
    assert proportional(ModuleElement(ring, [moved]),
                        ModuleElement(ring, [pull_back(h, psi_inv)])) is not None


def _discriminant_germ(name):
    if name in ("A3", "A4"):
        return versal(int(name[1:]))
    return load_manifest(fixture_path("augment.manifest.json")).maps[name]


@pytest.mark.parametrize("name", ["F", "f", "A2f", "A3f", "A3", "A4"])
def test_discriminant_moves_with_a_rational_scaling(name):
    # psi = diag(1/2, -3/5, 7/3, -2), one scale per target coordinate
    f = _discriminant_germ(name)
    psi, psi_inv = _scaling(f.target, RATIONAL_SCALES)
    h = discriminant(f).h
    moved = discriminant(psi.compose(f)).h
    ring = f.target
    assert proportional(ModuleElement(ring, [moved]),
                        ModuleElement(ring, [pull_back(h, psi_inv)])) is not None
