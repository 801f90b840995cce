"""OperContext's own checks: reading Y off ad_Y."""

import random
from fractions import Fraction

import pytest

from conftest import run_under_O
from cycloper.context import OperContext
from cycloper.errors import MalformedOper
from cycloper.linalg import SparseMat
from cycloper.tower import ScalarTower

LABELS = ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2")


@pytest.mark.parametrize("label", LABELS)
def test_matrix_to_vec_round_trips(label):
    """Random vectors with rational, cyclotomic and rational-function entries
    are read back from their adjoint matrices."""
    ctx = OperContext(label, ScalarTower.get(4))
    alg = ctx.alg
    K, F = ctx.scalars, ctx.functions
    rng = random.Random(label)
    for _ in range(3):
        q = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(alg.dim)]
        assert ctx.matrix_to_vec(alg.ad_of_vec(q), K) == [K.coerce(c) for c in q]
        x = [K.coerce(c) * ctx.omega ** rng.randint(0, 3) for c in q]
        assert ctx.matrix_to_vec(alg.ad_of_vec(x, K), K) == x
        y = [F.coerce(c) / (F.gen - rng.randint(1, 3)) if rng.random() < 0.5 else F.coerce(c) for c in x]
        assert ctx.matrix_to_vec(alg.ad_of_vec(y, F)) == y


def _not_ad(ctx, kind):
    """A matrix over the scalars that is not ad of any element: the identity,
    or ad_x with one extra entry."""
    alg, K = ctx.alg, ctx.scalars
    if kind == "identity":
        return SparseMat.identity(K, alg.dim)
    M = alg.ad_of_vec([K.coerce(i + 1) for i in range(alg.dim)], K)
    M.rows[0][alg.dim - 1] = M.rows[0].get(alg.dim - 1, K.zero) + K.one
    return M


@pytest.mark.parametrize("label", ("A1", "B2", "G2"))
@pytest.mark.parametrize("kind", ("identity", "extra-entry"))
def test_matrix_that_is_not_ad_raises(label, kind):
    ctx = OperContext(label, ScalarTower.get(2))
    with pytest.raises(MalformedOper, match="not the ad"):
        ctx.matrix_to_vec(_not_ad(ctx, kind), ctx.scalars)


_NOT_AD_UNDER_O = """
from cycloper.context import OperContext
from cycloper.errors import MalformedOper
from cycloper.linalg import SparseMat
from cycloper.tower import ScalarTower

ctx = OperContext("A2", ScalarTower.get(1))
alg, K = ctx.alg, ctx.scalars
M = alg.ad_of_vec([K.coerce(i + 1) for i in range(alg.dim)], K)
M.rows[0][alg.dim - 1] = M.rows[0].get(alg.dim - 1, K.zero) + K.one
for bad in (SparseMat.identity(K, alg.dim), M):
    try:
        ctx.matrix_to_vec(bad, K)
        raise SystemExit("no error")
    except MalformedOper:
        pass
"""


def test_matrix_that_is_not_ad_raises_under_python_O():
    """The ad_Y == M verification of matrix_to_vec raises MalformedOper,
    also under python -O."""
    run = run_under_O(_NOT_AD_UNDER_O)
    assert run.returncode == 0, run.stdout + run.stderr
