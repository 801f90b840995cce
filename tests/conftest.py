import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cycloper.automorphisms import DiagramAut
from cycloper.connection import GroupElement, torus_conjugate_vec
from cycloper.context import OperContext
from cycloper.errors import LimitUndefined, NotInOpenCell
from cycloper.linalg import SparseMat, kernel_basis, rref
from cycloper.miura import build_miura
from cycloper.ratfunc import _common_denominator
from cycloper.solve import _read_log
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
    (height <= 0), the input of gauss_factorize_columns and of
    flags._limit_flag_point."""
    alg = g.ctx.alg
    F = g.ctx.functions
    return [
        [F.coerce(row.get(j, F.zero)) for row in g.mat.rows]
        for j in range(alg.dim)
        if alg.height_of[j] <= 0
    ]


def inverse_action(g):
    """v -> Ad_{g^-1} v by the inverse matrix of a GroupElement g, the
    input of gauss_factorize."""
    return g.inverse().ad_apply


def gauss_factorize_columns(ctx, cols):
    """The b_- column route to the big-cell factor: X in n with M = e^-X b,
    b in B_-, from the columns cols[j] = Ad_M e_j of the b_- basis.

    e^{-ad X} rho = M y for the y in b_- with Ad_b y = rho, and the rows of
    height <= 0 of M y are rho: one |b_-| x |b_-| solve, the read of X, and
    the certificate e^{ad X} M F_i in n_- for every simple i, run on
    polynomials by scaling each root coordinate with a character."""
    alg = ctx.alg
    F = ctx.functions
    m = len(cols)
    rows = [[col[i] for col in cols] + [F.coerce(alg.rho[i])] for i in range(m)]
    red, pivots = rref(F, rows, ncols=m)
    if len(pivots) < m:
        raise NotInOpenCell("Ad_M b_- meets n: M is not in the big cell")
    w = alg.vec_zero(F)
    for row, col in zip(red, cols):
        w = [a + row[m] * c if c else a for a, c in zip(w, col)]
    X = _read_log(alg, w, F)
    # phi scales the coordinate of each root alpha = sum_j m_j alpha_j by
    # prod_j s_j^m_j, an automorphism for any nonzero s_j, and
    # phi(e^{ad X} c) = e^{ad phi(X)} phi(c); the s_j make phi(X)
    # polynomial, and a shift by the largest m_j makes phi(c) so
    rank = alg.rank

    def character(s, exps):
        return math.prod([sj ** e for sj, e in zip(s, exps)])

    exps = [r if kind == "E" else [-e for e in r] if kind == "F" else [0] * rank
            for kind, r in alg.basis]
    s = [F.one] * rank
    for r, x in zip(exps, X):
        d = (character(s, r) * x).den if x else ()
        if len(d) > 1:
            j = next(j for j, e in enumerate(r) if e)
            s[j] = s[j] * F.from_coeffs(d)
    top = [max(r[j] for r in alg.pos_roots) for j in range(rank)]
    Xs = [character(s, r) * x if x else x for r, x in zip(exps, X)]
    shift = [character(s, [e + t for e, t in zip(r, top)]) for r in exps]
    for i in range(rank):
        c = cols[alg.index_F[alg.simple_root(i)]]
        q = _common_denominator(F, c)
        c = [q * x for x in c]
        out = alg.ad_series(Xs, [f * x if x else x for f, x in zip(shift, c)], F)
        if any(v for v, h in zip(out, alg.height_of) if h >= 0):
            raise NotInOpenCell("e^X M is not in B_-: certificate failed")
    return X


def generic_factor_by_columns(ctx, fund, g0):
    """reproduce_generic's factor_n by the b_- column route, from the
    (torus, Z) of its fundamental solution over ctx (the cover when lam0
    is fractional): the columns Ad_{e^Z} Ad_{e^-X0} e_j, the column-route
    factor, conjugated by the torus."""
    alg = ctx.alg
    F = ctx.functions
    torus, Z = fund
    minus_X0 = [-F.coerce(x) for x in g0]
    units = [[F.one if i == j else F.zero for i in range(alg.dim)] for j in range(alg.dim)]
    cols = [alg.ad_series(Z, alg.ad_series(minus_X0, e, F), F)
            for e, h in zip(units, alg.height_of) if h <= 0]
    logn = gauss_factorize_columns(ctx, cols)
    for mu, base in torus:
        logn = torus_conjugate_vec(ctx, logn, mu, base)
    return logn


@pytest.fixture
def column_route(monkeypatch):
    """Checks every reproduce_generic call against the b_- column route:
    records the fundamental solution solved on each working context (the
    oper's context, or its cover); check(res, g0) reads the one of
    res.old's working context, without consuming it, since later calls on
    the same oper reuse that solve, and asserts that res.factor_n equals
    the column-route factor entry by entry."""
    import cycloper.miura as miura_mod

    real = miura_mod.solve_fundamental
    seen = {}

    def recorded(conn, *args, **kw):
        out = real(conn, *args, **kw)
        seen[conn.ctx] = out
        return out

    monkeypatch.setattr(miura_mod, "solve_fundamental", recorded)

    def check(res, g0):
        ctx = res.old.ctx.cover(res.cover_power)
        want = generic_factor_by_columns(ctx, seen[ctx], g0)
        assert len(res.factor_n) == len(want)
        for got, exp in zip(res.factor_n, want):
            assert got == exp

    return check


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
