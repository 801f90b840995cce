import random
from fractions import Fraction

import pytest

from conftest import fundamental_matrix, inverse_action, run_under_O, sl3_context
import cycloper.solve as solve
from cycloper.chevalley import ChevalleyAlgebra
from cycloper.connection import Connection, GroupElement, gauge_transform, regularize
from cycloper.context import OperContext
from cycloper.errors import MalformedOper, MonodromyObstruction, NotInOpenCell
from cycloper.linalg import QQ, rref, solve_linear
from cycloper.solve import gauss_factorize, solve_fundamental
from cycloper.tower import ScalarTower
from cycloper.weyl import Coweight, coweight_to_h


def regularized_sl3(ctx, eta):
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    lam0 = Coweight((Fraction(eta), Fraction(eta)))
    hv = coweight_to_h(alg, lam0, F)
    nabla = Connection(ctx, [F.coerce(a) - b / t for a, b in zip(alg.p_minus1, hv)])
    return regularize(nabla, lam0), nabla, lam0


def test_sl3_fundamental_solution():
    """Y = exp(-(t^mu/mu) p_-1) solves the regularised connection with
    Y(0) = Id."""
    ctx = sl3_context(2)
    F = ctx.functions
    t = F.gen
    for eta in (0, 1, 2):
        mu = eta + 1
        reg, _, _ = regularized_sl3(ctx, eta)
        Y = fundamental_matrix(ctx, solve_fundamental(reg))
        expected = GroupElement.exp(ctx, [(-t ** mu / mu) * F.coerce(c) for c in ctx.alg.p_minus1])
        assert Y == expected


def test_fundamental_with_site_torus_part():
    """b_- connection with h-part having integral residues: solved and
    verified by reassembly."""
    ctx = OperContext("A1", ScalarTower.get(1))
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    acw = coweight_to_h(alg, Coweight((Fraction(2),)), F)
    coeffs = [F.coerce(a) - b / (t - 3) for a, b in zip(alg.p_minus1, acw)]
    conn = Connection(ctx, coeffs)
    fund = solve_fundamental(conn)
    assert not isinstance(fund, MonodromyObstruction)
    assert [base for _, base in fund[0]] == [1 - t / 3]
    Y = fundamental_matrix(ctx, fund)
    # dY Y^-1 = -A verified inside; check initial value
    d = Y.eval_at(0)
    n = alg.dim
    assert all(d[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))


def test_fundamental_monodromy_obstruction():
    """A residue appears while integrating: the obstruction value is
    returned with the offending pole."""
    ctx = OperContext("A1", ScalarTower.get(1))
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    # h-part with residue -1 at 3 makes the conjugated F-part have residue
    acw = coweight_to_h(alg, Coweight((Fraction(-1),)), F)
    coeffs = [F.coerce(a) - b / (t - 3) for a, b in zip(alg.p_minus1, acw)]
    conn = Connection(ctx, coeffs)
    out = solve_fundamental(conn)
    assert isinstance(out, MonodromyObstruction)
    assert out.residues
    assert [p for p, _ in out.residues] == [3]


def test_fundamental_nonintegral_h_residue():
    ctx = OperContext("A1", ScalarTower.get(1))
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    acw = coweight_to_h(alg, Coweight((Fraction(1, 2),)), F)
    conn = Connection(ctx, [F.coerce(a) - b / (t - 1) for a, b in zip(alg.p_minus1, acw)])
    out = solve_fundamental(conn)
    assert isinstance(out, MonodromyObstruction)


def test_gauss_factorize_reassembly():
    ctx = sl3_context(4)
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    rng = random.Random(8)
    for _ in range(4):
        nv = alg.vec_zero(F)
        bv = alg.vec_zero(F)
        for r in alg.pos_roots:
            nv[alg.index_E[r]] = F.coerce(Fraction(rng.randint(-2, 2))) * t
            bv[alg.index_F[r]] = F.coerce(Fraction(rng.randint(-2, 2))) / (t - 1)
        hv = coweight_to_h(alg, Coweight((Fraction(rng.randint(0, 2)), Fraction(rng.randint(0, 2)))), F)
        n0 = GroupElement.exp(ctx, nv)
        b0 = GroupElement.exp(ctx, bv)
        T0 = GroupElement.torus(ctx, Coweight((Fraction(1), Fraction(0))), base=t - 2)
        M = (n0.inverse() @ (T0 @ b0))
        X = gauss_factorize(ctx, inverse_action(M))
        # e^X M is in B_-: no entry raises the height
        nM = (GroupElement.exp(ctx, X) @ M).mat
        assert not any(
            v and alg.height_of[i] > alg.height_of[j]
            for i, row in enumerate(nM.rows)
            for j, v in row.items()
        )
        assert X == nv  # uniqueness picks out the original factor
        assert gauss_factorize(ctx, inverse_action(M)) == X  # determinism


def test_gauss_factorize_reproduces_paper_h_functions():
    """N B_- factorisation of Y g0^-1 carries the closed-form h~ functions."""
    ctx = sl3_context(4)
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    eta = 2
    mu = eta + 1
    reg, nabla, lam0 = regularized_sl3(ctx, eta)
    Y = fundamental_matrix(ctx, solve_fundamental(reg))
    a, b, c = Fraction(1), Fraction(2), Fraction(1, 2)
    E1 = alg.vec_E(alg.simple_root(0), F)
    E2 = alg.vec_E(alg.simple_root(1), F)
    E12 = alg.bracket_vec(E1, E2, F)
    X0 = [a * x + b * y + c * z for x, y, z in zip(E1, E2, E12)]
    logn = gauss_factorize(ctx, inverse_action(Y @ GroupElement.exp(ctx, [-x for x in X0])))

    def dnm(cc, aa):
        return (a * b + 2 * cc) * t ** (2 * mu) + 4 * mu * aa * t ** mu + F.coerce(4 * mu * mu)

    h1 = 2 * mu * ((a * b + 2 * c) * t ** mu + 2 * mu * a) / dnm(c, a)
    h2 = 2 * mu * ((a * b - 2 * c) * t ** mu + 2 * mu * b) / dnm(-c, b)
    h3 = (
        4 * mu ** 3
        * (((a * b + 2 * c) * b - (a * b - 2 * c) * a) * t ** mu + 4 * mu * c)
        / (dnm(c, a) * dnm(-c, b))
    )
    i1 = alg.index_E[alg.simple_root(0)]
    i2 = alg.index_E[alg.simple_root(1)]
    i12 = next(i for i, v in enumerate(E12) if v)
    assert logn[i1] == h1
    assert logn[i2] == h2
    assert logn[i12] / F.coerce(E12[i12]) == h3
    assert GroupElement.exp(ctx, logn).eval_at(0) == GroupElement.exp(ctx, X0).eval_at(0)


def test_gauss_not_in_open_cell():
    """A Weyl representative is not in N B_-."""
    ctx = sl3_context(2)
    wd = GroupElement.weyl_representative(ctx, ctx.weyl.simple(0))
    with pytest.raises(NotInOpenCell):
        gauss_factorize(ctx, inverse_action(wd))


def test_gauss_factorize_lets_a_bug_in_the_log_step_through(monkeypatch):
    """Only a singular solve or a failed certificate means "not in the big
    cell"; any other exception in the vector read of X is a bug and
    propagates unchanged."""
    ctx = sl3_context(2)
    F = ctx.functions
    alg = ctx.alg
    M = GroupElement.exp(ctx, [F.gen * x for x in alg.vec_E(alg.simple_root(0), F)])
    act = inverse_action(M)

    def broken(self, x, v, K=None, shift=0):
        raise TypeError("bug in ad_series")

    monkeypatch.setattr(ChevalleyAlgebra, "ad_series", broken)
    with pytest.raises(TypeError, match="bug in ad_series"):
        gauss_factorize(ctx, act)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_every_weyl_representative_but_one_is_off_the_big_cell(label):
    """The inverse action of w-dot, w != 1, raises NotInOpenCell: either
    the solve for p is singular, or y = Ad_{w-dot^-1}(rho + p) is not in
    rho + n_-; w = 1 factors with X = 0."""
    ctx = OperContext(label, ScalarTower.get(1))
    for w in ctx.weyl.elements:
        act = inverse_action(GroupElement.weyl_representative(ctx, w))
        if w == ctx.weyl.identity:
            assert not any(gauss_factorize(ctx, act))
            continue
        with pytest.raises(NotInOpenCell):
            gauss_factorize(ctx, act)


def test_gauss_certificate_catches_a_wrong_log(monkeypatch):
    """A read of X with the top-height entry moved by t fails the read
    check e^{-ad X} rho = rho + p with NotInOpenCell."""
    ctx = sl3_context(4)
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    nv = alg.vec_zero(F)
    for n, r in enumerate(alg.pos_roots):
        nv[alg.index_E[r]] = F.coerce(n + 1) * t / (t - 2)
    act = inverse_action(GroupElement.exp(ctx, [-x for x in nv]))
    assert gauss_factorize(ctx, act) == nv
    real = solve._read_log
    top = alg.blocks[alg.height_max][0]

    def perturbed(alg, w, F):
        X = real(alg, w, F)
        X[top] = X[top] + F.gen
        return X

    monkeypatch.setattr(solve, "_read_log", perturbed)
    with pytest.raises(NotInOpenCell, match="certificate"):
        gauss_factorize(ctx, act)


def test_gauss_frame_grows_and_reads_the_planted_log(monkeypatch):
    """A planted log whose top entry has a pole at 3 that neither simple
    entry has: the torus frame of w grows s_1 by t - 3, and the read in
    that frame still returns the planted log."""
    ctx = sl3_context(4)
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    nv = alg.vec_zero(F)
    for r, x in (((1, 0), t / (t - 2)), ((0, 1), F.coerce(3)), ((1, 1), 1 / (t - 3))):
        nv[alg.index_E[r]] = x
    frames, real = [], solve.torus_frame

    def recorded(ctx, v):
        frames.append(real(ctx, v))
        return frames[-1]

    monkeypatch.setattr(solve, "torus_frame", recorded)
    assert gauss_factorize(ctx, inverse_action(GroupElement.exp(ctx, [-x for x in nv]))) == nv
    (Y, spow), = frames
    assert spow[alg.index_E[(1, 0)]] == (t - 2) * (t - 3)
    assert all(y.is_polynomial() for y in Y)


@pytest.mark.parametrize(
    "label,T",
    [("A2", 1), ("A2", 2), ("A2", 4), ("B2", 1), ("B2", 2), ("G2", 1)],
    ids=["1", "2", "4", "B2-1", "B2-2", "G2-1"],
)
def test_fundamental_solution_inverse(label, T):
    """Y.inv inverts Y.mat on both sides, and Y^-1 gauges the connection
    to d (the matrix oracle), with a site at 3 with integral residue and
    a non-constant nilpotent part."""
    from cycloper.linalg import SparseMat

    ctx = OperContext(label, ScalarTower.get(T))
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    hv = coweight_to_h(alg, Coweight((Fraction(1), Fraction(0))), F)
    coeffs = [F.coerce(a) - b / (t - 3) for a, b in zip(alg.p_minus1, hv)]
    coeffs[alg.index_F[(1, 1)]] = t
    conn = Connection(ctx, coeffs)
    Y = fundamental_matrix(ctx, solve_fundamental(conn))
    one = SparseMat.identity(F, alg.dim)
    assert Y.mat @ Y.inv == one
    assert Y.inv @ Y.mat == one
    assert not any(gauge_transform(conn, Y.inverse()).coeffs)


def test_fundamental_check_catches_a_wrong_antiderivative(monkeypatch):
    """t^2 added to one entry of Z (so Z(0) = 0 still holds) fails the
    reassembly check e^-Z . B == 0."""
    ctx = sl3_context(2)
    reg, _, _ = regularized_sl3(ctx, 1)
    t = ctx.functions.gen
    antiderivative, calls = solve.rational_antiderivative, []

    def perturbed(f, extra_points=()):
        calls.append(f)
        out = antiderivative(f, extra_points)
        return out + t ** 2 if len(calls) == 1 else out

    monkeypatch.setattr(solve, "rational_antiderivative", perturbed)
    with pytest.raises(MalformedOper, match="fundamental solution verification failed"):
        solve_fundamental(reg)
    assert len(calls) > 1


def test_gauss_certificate_catches_a_wrong_solution(monkeypatch):
    """An entry of p moved by t (here the highest root's, the first
    unknown) still reads a consistent X, but y = Ad_{M^-1}(rho + p) leaves
    rho + n_-: NotInOpenCell from the certificate."""
    ctx = sl3_context(4)
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    nv = alg.vec_zero(F)
    for n, r in enumerate(alg.pos_roots):
        nv[alg.index_E[r]] = F.coerce(n + 1) * t / (t - 2)
    act = inverse_action(GroupElement.exp(ctx, [-x for x in nv]))
    real = solve.solve_linear

    def perturbed(K, A, b):
        x = real(K, A, b)
        x[0] = x[0] + F.gen
        return x

    monkeypatch.setattr(solve, "solve_linear", perturbed)
    with pytest.raises(NotInOpenCell, match="certificate"):
        gauss_factorize(ctx, act)


@pytest.mark.parametrize("T", [1, 3, 4, 12])
def test_square_solve_matches_rref(T):
    """solve_linear gives the last column of rref on pinned nonsingular
    systems over Q(zeta_T)(t): the first needs a row swap in its first
    column, the third one in its second.  Singular systems give None.  A
    tall system of full column rank, over Q(zeta_T)(t) and over Q, gives
    rref's last column when it is consistent and None when it is not; a
    tall system of smaller rank gives None even when it is consistent."""
    tw = ScalarTower.get(T)
    F, t = tw.functions, tw.t
    zeta, one, zero = F.coerce(tw.zeta), F.one, F.zero
    systems = [
        ([[zero, t, one], [t - zeta, one, zero], [one, zeta, t ** 2]], [one, t, zeta]),
        ([[t / (t - 1), zeta, zero], [one, (t + zeta) / t, F.coerce(2)], [zeta * t, zero, one / (t + 2)]],
         [zero, one, t]),
        ([[one, one, t], [one, one, zeta], [zeta, t, one]], [t, one, zero]),
    ]
    for A, b in systems:
        x = solve_linear(F, A, b)
        red, pivots = rref(F, [row + [c] for row, c in zip(A, b)], ncols=len(A))
        assert pivots == list(range(len(A)))
        assert x == [row[-1] for row in red]
        assert [sum((a * y for a, y in zip(row, x)), zero) for row in A] == b
    assert solve_linear(F, [[one, t], [t, t ** 2]], [one, zero]) is None
    assert solve_linear(F, [[zero, one], [zero, zeta]], [one, t]) is None

    q = [Fraction(c) for c in (0, 1, 2, 3, -1, Fraction(1, 2))]
    tall = {
        F: [[zero, t], [one, zeta], [t, one], [zeta, t ** 2]],
        QQ: [[q[0], q[1]], [q[0], q[2]], [q[3], q[4]], [q[5], q[1]]],
    }
    for K, A in tall.items():
        x0 = [A[2][0] + A[1][1], A[3][0] - A[0][1]]
        b = [sum((a * y for a, y in zip(row, x0)), K.zero) for row in A]
        red, pivots = rref(K, [row + [c] for row, c in zip(A, b)], ncols=2)
        assert pivots == [0, 1] and not any(row[-1] for row in red[2:])
        assert solve_linear(K, A, b) == [row[-1] for row in red[:2]] == x0
        assert solve_linear(K, A, b[:-1] + [b[-1] + K.one]) is None
        deficient = [[a, 2 * a] for a, _ in A]
        assert solve_linear(K, deficient, [a for a, _ in A]) is None


_SINGULAR_GAUSS_UNDER_O = """
from cycloper.automorphisms import DiagramAut
from cycloper.context import OperContext
from cycloper.errors import NotInOpenCell
from cycloper.solve import gauss_factorize
from cycloper.tower import ScalarTower

ctx = OperContext("A2", ScalarTower.get(2), DiagramAut.from_cycles(2, [[1, 2]]))
F = ctx.functions
heights = ctx.alg.height_of
try:
    gauss_factorize(ctx, lambda v: [x if h <= 0 else F.zero for x, h in zip(v, heights)])
except NotInOpenCell as e:
    if "singular" not in str(e):
        raise SystemExit(f"wrong failure: {e}")
else:
    raise SystemExit("a singular Gauss solve went through")
"""


def test_singular_gauss_solve_is_not_in_the_open_cell():
    """An inverse action that kills n makes the solve for p singular:
    NotInOpenCell from the solve, in this process and under python -O."""
    ctx = sl3_context(2)
    F = ctx.functions
    heights = ctx.alg.height_of
    with pytest.raises(NotInOpenCell, match="singular"):
        gauss_factorize(ctx, lambda v: [x if h <= 0 else F.zero for x, h in zip(v, heights)])
    run = run_under_O(_SINGULAR_GAUSS_UNDER_O)
    assert run.returncode == 0, run.stdout + run.stderr
