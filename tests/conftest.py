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
from cycloper.errors import LimitUndefined
from cycloper.linalg import SparseMat, kernel_basis, rref
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


def limit_span(ctx, cols):
    """Limit at t -> 0 of the span of the given RatFunc columns, one
    subspace at a time: scale each column to a nonzero value at 0 and fold a
    kernel combination of the values into one column until they are
    independent.  A list of scalar vectors spanning the limit."""
    K = ctx.scalars
    F = ctx.functions
    t = F.gen
    work = [[F.coerce(x) for x in c] for c in cols]
    for _ in range(500):
        scaled = []
        for c in work:
            vals = [x.valuation_at(K.zero) for x in c if x]
            if not vals:
                raise LimitUndefined("zero column in flag limit")
            v = min(vals)
            scaled.append([x * t ** (-v) if x else x for x in c])
        M0 = [[x.eval_at(K.zero) for x in c] for c in scaled]
        if subspace_rank(K, M0) == len(scaled):
            return M0
        # a kernel combination raises valuation; fold it into one column
        rows = [[c[i] for c in M0] for i in range(len(M0[0]))]
        kb = kernel_basis(K, rows, ncols=len(M0))[0]
        j = max(i for i, c in enumerate(kb) if c)
        comb = [F.zero] * len(scaled[0])
        for i, c in enumerate(kb):
            if c:
                comb = [a + x * F.coerce(c) for a, x in zip(comb, scaled[i])]
        work = scaled
        work[j] = comb
    raise LimitUndefined("flag limit did not stabilise")


def subspace_rank(K, vecs):
    return len(rref(K, [list(v) for v in vecs])[1])


def limit_flag_is(ctx, cols, fp):
    """Whether the flag point fp = n w-dot B_- has, at every height prefix
    of the b_- columns, the span that limit_span gives for the same prefix
    of cols."""
    alg = ctx.alg
    K = ctx.scalars
    F = ctx.functions
    g = GroupElement.weyl_representative(ctx, fp.w)
    if fp.coordinates:
        lie = alg.vec_zero(F)
        for r, c in fp.coordinates.items():
            lie[alg.index_E[r]] = F.coerce(c)
        g = GroupElement.exp(ctx, lie) @ g
    point = [[x.eval_at(K.zero) for x in c] for c in bminus_columns(g)]
    acc = 0
    for h in sorted(h for h in alg.blocks if h <= 0):
        acc += len(alg.blocks[h])
        limit = limit_span(ctx, cols[:acc])
        ranks = subspace_rank(K, limit), subspace_rank(K, point[:acc]), subspace_rank(K, limit + point[:acc])
        if ranks != (acc, acc, acc):
            return False
    return True
