import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cycloper.automorphisms import DiagramAut
from cycloper.connection import GroupElement
from cycloper.context import OperContext
from cycloper.linalg import SparseMat
from cycloper.miura import build_miura
from cycloper.tower import ScalarTower
from cycloper.weyl import Coweight

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"

# Property tests draw the same examples on every run, so the suite's time
# and outcome repeat; `--hypothesis-profile=default` explores new draws.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def run_under_O(code):
    """Run code in a fresh `python -O` (assert statements stripped); the
    completed process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=300
    )


def sl3_context(T):
    return OperContext("A2", ScalarTower.get(T), DiagramAut.from_cycles(2, [[1, 2]]))


def sl3_miura(T, eta):
    ctx = sl3_context(T)
    return ctx, build_miura(ctx, Coweight((Fraction(eta), Fraction(eta))))


def sl4_context(T, params=("z",)):
    return OperContext("A3", ScalarTower.get(T, params), DiagramAut.from_cycles(3, [[1, 3]]))


def sl4_miura(S, eta, kappa):
    """The two-site example: coweight eta(w1+w3)+kappa w2 at 0, omega_1 at z."""
    ctx = sl4_context(2 * S)
    z = ctx.scalars.coerce(ctx.tower.param("z"))
    lam0 = Coweight((Fraction(eta), Fraction(kappa), Fraction(eta)))
    w1 = Coweight((Fraction(1), Fraction(0), Fraction(0)))
    return ctx, build_miura(ctx, lam0, sites=[(z, w1)])


def sl4_miura_at(S, eta, kappa, zval):
    """Same example with the site location instantiated to a rational."""
    ctx = sl4_context(2 * S, params=())
    lam0 = Coweight((Fraction(eta), Fraction(kappa), Fraction(eta)))
    w1 = Coweight((Fraction(1), Fraction(0), Fraction(0)))
    return ctx, build_miura(ctx, lam0, sites=[(Fraction(zval), w1)])


def fSl3_seed(ctx, mu, a, b, c):
    """Closed-form solutions of the coupled sl3 system, in the eigenbasis
    (E1+E2, E1-E2, [E1,E2])."""
    F = ctx.functions
    t = F.gen
    a, b, c = F.coerce(a), F.coerce(b), F.coerce(c)
    mu = int(mu)
    d1 = (a * b + 2 * c) * t ** (2 * mu) + 4 * mu * a * t ** mu + F.coerce(4 * mu * mu)
    d2 = (a * b - 2 * c) * t ** (2 * mu) + 4 * mu * b * t ** mu + F.coerce(4 * mu * mu)
    ft1 = 2 * mu * t ** (mu - 1) * ((a * b + 2 * c) * t ** mu + 2 * mu * a) / d1
    ft2 = 2 * mu * t ** (mu - 1) * ((a * b - 2 * c) * t ** mu + 2 * mu * b) / d2
    ft3 = (
        4 * mu ** 3
        * t ** (2 * mu - 2)
        * (((a * b + 2 * c) * b - (a * b - 2 * c) * a) * t ** mu + 4 * mu * c)
        / (d1 * d2)
    )
    half = F.coerce(Fraction(1, 2))
    return ((ft1 + ft2) * half, (ft1 - ft2) * half, ft3)


# -- adjoint-matrix oracles -------------------------------------------------

def matrix_log(g):
    """X with exp(ad X) = g for a unipotent GroupElement g, by the log
    series of its matrix."""
    F = g.ctx.functions
    n = g.mat.nrows
    N = g.mat.add(SparseMat.identity(F, n).scale(-F.one))
    total = term = N
    for k in range(2, 2 * n + 2):
        term = term @ N
        if not any(term.rows):
            return g.ctx.matrix_to_vec(total)
        total = total.add(term.scale(F.coerce(Fraction((-1) ** (k + 1), k))))
    raise AssertionError("log series did not terminate; not unipotent")


def fundamental_matrix(ctx, fund):
    """Y = D e^{ad Z} as a GroupElement, from the (torus, Z) of
    solve_fundamental: D is the product of the (1 - t/p)^-mu_p."""
    torus, Z = fund
    Y = GroupElement.exp(ctx, Z)
    for mu, base in torus:
        Y = GroupElement.torus(ctx, Coweight([-c for c in mu.coords]), base=base) @ Y
    return Y


def bminus_columns(g):
    """The columns Ad_g e_j of a GroupElement g for the b_- basis indices j
    (height <= 0), the input of gauss_factorize."""
    alg = g.ctx.alg
    F = g.ctx.functions
    return [
        [F.coerce(row.get(j, F.zero)) for row in g.mat.rows]
        for j in range(alg.dim)
        if alg.height_of[j] <= 0
    ]
