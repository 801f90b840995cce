"""OperContext's own checks."""

from fractions import Fraction

from conftest import run_under_O
from cycloper.context import OperContext
from cycloper.errors import MalformedOper
from cycloper.tower import ScalarTower


def test_ad_probe_recovers_vectors():
    ctx = OperContext("A2", ScalarTower.get(1))
    alg = ctx.alg
    x = [Fraction(i + 1, 2) for i in range(alg.dim)]
    assert ctx.matrix_to_vec(alg.ad_of_vec(x), K=ctx.scalars) == [ctx.scalars.coerce(c) for c in x]


_INJECTIVITY_CHECK_UNDER_O = """
from cycloper.context import OperContext
from cycloper.errors import MalformedOper
from cycloper.tower import ScalarTower

ctx = OperContext("A1", ScalarTower.get(1))
ctx.alg.ad[0] = ctx.alg.ad[1]  # two basis vectors with one adjoint matrix
try:
    ctx.ad_probe()
    raise SystemExit("no error")
except MalformedOper:
    pass
"""


def test_injectivity_check_survives_python_O():
    """An adjoint map that is not injective raises MalformedOper, also
    under python -O."""
    run = run_under_O(_INJECTIVITY_CHECK_UNDER_O)
    assert run.returncode == 0, run.stdout + run.stderr
