import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import pytest

from germlift.exprio import parse_poly
from germlift.germs import MapGerm
from germlift.poly import VarSet


@pytest.fixture
def xy():
    return VarSet(["x", "y"])


@pytest.fixture
def P():
    """Shorthand parser: P("x^2 + y", ring)."""
    return parse_poly


def fixture_path(name):
    import germlift.fixtures

    return os.path.join(os.path.dirname(germlift.fixtures.__file__), name)


def versal(mu):
    """The versal unfolding (x^(mu+1) + sum a_i x^i, a) of A_mu."""
    params = [f"a{i}" for i in range(1, mu)]
    w = [mu + 1 - i for i in range(1, mu)]
    src = VarSet(["x"] + params, [1] + w)
    tgt = VarSet(["X"] + [p.upper() for p in params], [mu + 1] + w)
    first = f"x^{mu + 1}" + "".join(f" + a{i}*x^{i}" for i in range(1, mu))
    return MapGerm(src, tgt, [parse_poly(t, src) for t in [first] + params])
