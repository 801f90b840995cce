import random
from fractions import Fraction

import pytest

from conftest import matrix_log, sl3_context, sl4_miura
from cycloper.automorphisms import AlgebraAut, DiagramAut
from cycloper.connection import (
    Connection,
    GroupElement,
    exp_gauge,
    gauge_transform,
    is_equivariant,
    lift_to_cover,
    monodromy_at_origin,
    regularize,
    torus_conjugate_vec,
    torus_frame,
)
from cycloper.context import OperContext
from cycloper.errors import NonIntegralCoweight
from cycloper.linalg import SparseMat
from cycloper.ratfunc import INFINITY, RatFunc
from cycloper.tower import ScalarTower
from cycloper.weyl import Coweight, coweight_to_h


def sl3_nabla(ctx, eta):
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    lam0 = Coweight((Fraction(eta), Fraction(eta)))
    hv = coweight_to_h(alg, lam0, F)
    return Connection(ctx, [F.coerce(a) - b / t for a, b in zip(alg.p_minus1, hv)], "oper"), lam0


def rand_unipotent(ctx, rng):
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    v = alg.vec_zero(F)
    for r in alg.pos_roots:
        v[alg.index_E[r]] = F.coerce(Fraction(rng.randint(-2, 2))) / (t - rng.randint(1, 3))
    return GroupElement.exp(ctx, v)


def rand_function(ctx, rng, point):
    """A small random element of the function field: a cyclotomic constant
    plus a multiple of 1/(t - point)."""
    F = ctx.functions
    K = ctx.scalars
    c0 = K.coerce(rng.randint(-2, 2)) * ctx.omega ** rng.randint(0, 3)
    c1 = K.coerce(Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2)))
    return F.coerce(c0) + F.coerce(c1) / (F.gen - F.coerce(point))


@pytest.mark.parametrize(
    "label,T,params",
    [(lab, T, ()) for lab in ("A1", "A2", "A3", "A4", "D4") for T in (1, 2, 4)]
    + [("A2", 2, ("z",))],
)
def test_exp_gauge_matches_matrix_route(label, T, params):
    """The Lie-series gauge on vectors equals the adjoint-matrix route."""
    ctx = OperContext(label, ScalarTower.get(T, params))
    alg = ctx.alg
    K = ctx.scalars
    rng = random.Random(f"{label}-{T}-{params}")
    points = [K.coerce(1), K.coerce(-2)]
    if params:
        points.append(K.coerce(ctx.tower.param("z")))
    F = ctx.functions
    X = alg.vec_zero(F)
    # one simple root vector with a pole, the others of distinct degrees in t,
    # so that [X, X'] != 0
    for n, i in enumerate(alg.blocks[1]):
        X[i] = rand_function(ctx, rng, points[0]) if n == 0 else F.coerce(n) * F.gen ** n
    for i in range(alg.dim):
        if alg.height_of[i] > 1 and rng.random() < 0.3:
            X[i] = F.coerce(K.coerce(rng.randint(-2, 2)) * ctx.omega ** rng.randint(0, 3))
    A = [
        rand_function(ctx, rng, rng.choice(points)) if rng.random() < 0.4 else F.zero
        for _ in range(alg.dim)
    ]
    want = gauge_transform(Connection(ctx, A), GroupElement.exp(ctx, X)).coeffs
    assert exp_gauge(ctx, X, A) == want


@pytest.mark.parametrize(
    "label,T", [(lab, T) for lab in ("A1", "A2", "A3", "A4", "D4") for T in (1, 2, 4)]
)
def test_group_element_inverse_and_log(label, T):
    """Inverses computed on demand and the log series, against the
    matrices: g.mat @ g.inv is the identity, and the log series of e^X,
    of its inverse and of its torus conjugate gives X, -X and Ad_{t^-lam} X."""
    ctx = OperContext(label, ScalarTower.get(T))
    alg = ctx.alg
    F = ctx.functions
    K = ctx.scalars
    rng = random.Random(f"group-{label}-{T}")

    def rand_nilpotent():
        v = alg.vec_zero(F)
        # distinct degrees in t on the simple roots, so that [X, X'] != 0
        for n, i in enumerate(alg.blocks[1]):
            v[i] = F.coerce(K.coerce(rng.choice((-2, -1, 1, 2))) * ctx.omega ** n) * F.gen ** n
        for i in range(alg.dim):
            if alg.height_of[i] > 1 and rng.random() < 0.3:
                v[i] = F.coerce(K.coerce(rng.randint(-2, 2)) * ctx.omega ** rng.randint(0, 3))
        return v

    X, Y = rand_nilpotent(), rand_nilpotent()
    g, h = GroupElement.exp(ctx, X), GroupElement.exp(ctx, Y)
    lam = Coweight(tuple(Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(alg.rank)))
    W = ctx.weyl
    w = W.mult(W.simple(0), W.simple(alg.rank - 1))
    torus = GroupElement.torus(ctx, lam)
    conj = torus.inverse() @ g @ torus
    wdot = GroupElement.weyl_representative(ctx, w)
    one = GroupElement.identity(ctx).mat
    for el in (g, GroupElement.torus(ctx, lam), g @ h, conj, wdot, g.inverse()):
        assert el.mat @ el.inv == one
    assert matrix_log(g) == X
    assert matrix_log(g.inverse()) == [-x for x in X]
    assert torus_conjugate_vec(ctx, X, lam) == matrix_log(conj)


def test_gauge_identity():
    ctx = sl3_context(2)
    nabla, _ = sl3_nabla(ctx, 2)
    out = gauge_transform(nabla, GroupElement.identity(ctx))
    assert all(a == b for a, b in zip(out.coeffs, nabla.coeffs))


def test_sl3_paper_gauge():
    """The paper's explicit g brings the Miura oper to canonical form with
    coefficient eta(eta+2)/(2 t^2) on E_1, E_2 (order-2 pole)."""
    ctx = sl3_context(2)
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    for eta in (1, 2, 3):
        nabla, _ = sl3_nabla(ctx, eta)
        m = alg.vec_zero(F)
        for i in range(2):
            m[alg.index_E[alg.simple_root(i)]] = F.coerce(eta) / t
        out = gauge_transform(nabla, GroupElement.exp(ctx, m))
        expail = F.coerce(Fraction(eta * (eta + 2), 2)) / t ** 2
        for i, c in enumerate(out.coeffs):
            kind, r = alg.basis[i]
            if kind == "E" and sum(r) == 1:
                assert c == expail
            elif kind == "F" and sum(r) == 1:
                assert c == F.one
            else:
                assert not c


def test_gauge_action_law():
    ctx = sl3_context(2)
    nabla, _ = sl3_nabla(ctx, 1)
    rng = random.Random(4)
    for _ in range(3):
        g1, g2 = rand_unipotent(ctx, rng), rand_unipotent(ctx, rng)
        lhs = gauge_transform(gauge_transform(nabla, g1), g2)
        rhs = gauge_transform(nabla, g2 @ g1)
        assert lhs == rhs


def test_gauge_preserves_oper_form_for_N():
    ctx = sl3_context(2)
    nabla, _ = sl3_nabla(ctx, 1)
    rng = random.Random(5)
    g = rand_unipotent(ctx, rng)
    out = gauge_transform(nabla, g)
    out.with_shape("oper")  # raises if the p_-1 part moved


def test_equivariance_examples():
    ctx = sl3_context(2)
    F = ctx.functions
    alg = ctx.alg
    pm1 = Connection(ctx, [F.coerce(c) for c in alg.p_minus1], "general")
    assert is_equivariant(pm1, ctx.varsigma)
    sig = AlgebraAut(alg, ctx.nu, [ctx.tower.one] * 2, ctx.tower)
    assert not is_equivariant(pm1, sig)
    # h-valued constant nu-invariant coweight times dt/t
    t = F.gen
    hv = coweight_to_h(alg, Coweight((Fraction(2), Fraction(2))), F)
    hconn = Connection(ctx, [c / t for c in hv], "h")
    assert is_equivariant(hconn, ctx.varsigma)
    nabla, _ = sl3_nabla(ctx, 1)
    assert is_equivariant(nabla, ctx.varsigma)


def test_equivariant_gauge_closure():
    """For g in N^varsigma(M) and varsigma-equivariant nabla the transform
    stays equivariant."""
    ctx = sl3_context(2)
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    nabla, _ = sl3_nabla(ctx, 1)
    # g = exp(f E_1 + (omega^-1 f(omega^-1 t)) E_2) is equivariant for any f
    w = ctx.omega
    f = t / (t ** 2 - 1)

    def orbitize(f):
        v = alg.vec_zero(F)
        v[alg.index_E[alg.simple_root(0)]] = f
        v[alg.index_E[alg.simple_root(1)]] = f.subs_scale(1 / w) * (1 / w)
        return v

    g = GroupElement.exp(ctx, orbitize(f))
    assert is_equivariant((ctx, orbitize(f)), ctx.varsigma)
    out = gauge_transform(nabla, g)
    assert is_equivariant(out, ctx.varsigma)


def _matrix_equivariant(g, aut):
    """The adjoint-matrix oracle: U g(omega^-1 t) U^-1 = g(t), with U the
    matrix of aut."""
    ctx = g.ctx
    F = ctx.functions
    n = ctx.alg.dim
    U, Ui = SparseMat(F, n, n), SparseMat(F, n, n)
    for i in range(n):
        U.rows[aut.image[i]][i] = F.coerce(aut.factor[i])
        Ui.rows[i][aut.image[i]] = F.one / F.coerce(aut.factor[i])
    winv = ctx.scalars.one / ctx.omega
    return (U @ g.mat.map_entries(lambda f: f.subs_scale(winv))) @ Ui == g.mat


def test_equivariance_weight_and_group_elements():
    """A connection carries the omega^-1 of dt, a plain vector does not; a
    group element e^X is equivariant exactly when X is, as the matrix
    conjugation says, also when X is read back by the log series."""
    ctx = sl3_context(4)
    F = ctx.functions
    alg = ctx.alg
    aut = ctx.varsigma
    pm1 = [F.coerce(c) for c in alg.p_minus1]
    assert is_equivariant(Connection(ctx, pm1), aut)
    assert not is_equivariant((ctx, pm1), aut)
    rng = random.Random(4)
    winv = ctx.scalars.one / ctx.omega
    for _ in range(3):
        X = matrix_log(rand_unipotent(ctx, rng))
        # the average of X over the cyclic group is equivariant
        avg, cur = list(X), X
        for _ in range(ctx.tower.order - 1):
            cur = aut.apply_vec([c.subs_scale(winv) for c in cur], F)
            avg = [a + b for a, b in zip(avg, cur)]
        for vec, want in ((avg, True), (X, False)):
            g = GroupElement.exp(ctx, vec)
            half = GroupElement.exp(ctx, [v / 2 for v in vec])
            assert is_equivariant((ctx, vec), aut) is want
            assert is_equivariant((ctx, matrix_log(half @ half)), aut) is want
            assert _matrix_equivariant(g, aut) is want


def _scaled_from_scratch(f, c, u):
    """u f(c t) from the scaled coefficient lists, reduced from scratch."""
    return RatFunc(f.field, [u * a * c ** i for i, a in enumerate(f.num)], [a * c ** i for i, a in enumerate(f.den)])


def _equivariant_by_products(ctx, vec, aut, weight):
    """weight aut(X(omega^-1 t)) == X from substitutions reduced from
    scratch, then apply_vec's products with the factors."""
    winv = ctx.scalars.one / ctx.omega
    moved = aut.apply_vec([_scaled_from_scratch(c, winv, 1) for c in vec], ctx.functions)
    return [c * weight for c in moved] == vec


@pytest.mark.parametrize("T, params", [(1, ()), (2, ()), (3, ()), (4, ()), (6, ()), (12, ()), (4, ("z",))])
def test_twisted_scaling_and_equivariance_match_from_scratch(T, params):
    """u f(c t), for roots of unity u and for c a root of unity or not, gives
    the canonical triple of num and den scaled and reduced from scratch.
    is_equivariant then answers as products with the twist factors do, on
    vectors and connections, averaged over the cyclic group (equivariant)
    or not."""
    nu = DiagramAut.from_cycles(2, [[1, 2]] if T % 2 == 0 else [])
    ctx = OperContext("A2", ScalarTower.get(T, params), nu)
    F, K = ctx.functions, ctx.scalars
    rng = random.Random(T)
    zeta = K.coerce(ctx.omega)
    units = [s * zeta ** k for k in range(T) for s in (K.one, -K.one)]
    points = [K.coerce(p) for p in (1, 2, Fraction(-3, 2))] + ([K.coerce(ctx.tower.param("z"))] if params else [])
    for _ in range(8):
        f = rand_function(ctx, rng, rng.choice(points)) * rand_function(ctx, rng, rng.choice(points))
        for c in units + [K.coerce(Fraction(3, 2))]:
            u = rng.choice(units)
            got, want = f.subs_scale(c, u), _scaled_from_scratch(f, c, u)
            assert (got._n, got._c, got._d) == (want._n, want._c, want._d)
    winv = K.one / ctx.omega
    answers = set()
    for weight, wrap in ((K.one, lambda v: (ctx, v)), (winv, lambda v: Connection(ctx, v))):
        for _ in range(2):
            vec = [rand_function(ctx, rng, rng.choice(points)) if i != ctx.alg.index_H[0] else F.zero
                   for i in range(ctx.alg.dim)]
            avg, cur = list(vec), vec
            for _ in range(T - 1):
                cur = [c * weight for c in ctx.varsigma.apply_vec([_scaled_from_scratch(c, winv, 1) for c in cur], F)]
                avg = [a + b for a, b in zip(avg, cur)]
            for v in (avg, vec):
                want = _equivariant_by_products(ctx, v, ctx.varsigma, weight)
                assert is_equivariant(wrap(v), ctx.varsigma) is want
                answers.add(want)
    assert answers == ({True} if T == 1 else {True, False})


def test_torus_frame_grows_by_the_missing_factor():
    """X at alpha_1 + alpha_2 with a pole at 3 that neither simple entry
    has: s_1 grows by t - 3, Phi(X) is a polynomial vector, and
    X_alpha = Phi(X)_alpha / s^alpha."""
    ctx = sl3_context(2)
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    E1, E2, E12 = (alg.index_E[r] for r in ((1, 0), (0, 1), (1, 1)))
    X = alg.vec_zero(F)
    X[E1], X[E2], X[E12] = 1 / (t - 1), t / (t - 2) ** 2, (t + 5) / ((t - 1) * (t - 3))
    Y, spow = torus_frame(ctx, X)
    assert spow[E1] == (t - 1) * (t - 3) and spow[E2] == (t - 2) ** 2
    assert spow[E12] == spow[E1] * spow[E2]
    assert all(y.is_polynomial() for y in Y)
    assert [y / p for y, p in zip(Y, spow)] == X


def test_connection_residues_sl4():
    ctx, m = sl4_miura(2, 1, 2)  # S=2, eta=1, kappa=2
    conn = m.connection()
    S = 2
    assert conn.residue_coweight(0) == Coweight((Fraction(-1), Fraction(-2), Fraction(-1)))
    assert conn.residue_coweight(INFINITY) == Coweight((Fraction(1 + S), Fraction(2), Fraction(1 + S)))
    # regular point
    K = ctx.scalars
    assert all(not c for c in conn.residue_at(K.coerce(7)))


def test_regularize_sl3():
    ctx = sl3_context(2)
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    for eta in (0, 1, 3):
        nabla, lam0 = sl3_nabla(ctx, eta)
        reg = regularize(nabla, lam0)
        for i, c in enumerate(reg.coeffs):
            kind, r = alg.basis[i]
            if kind == "F" and sum(r) == 1:
                assert c == t ** eta
            else:
                assert not c
        # equivariance shift: varsigma-equivariant input, vartheta-equivariant output
        th = ctx.vartheta(lam0)
        assert is_equivariant(reg, th)


def test_regularize_nonintegral_rejected():
    ctx = sl3_context(2)
    nabla, _ = sl3_nabla(ctx, 1)
    with pytest.raises(NonIntegralCoweight):
        regularize(nabla, Coweight((Fraction(1, 2), Fraction(1, 2))))


def test_commuting_square():
    """regularize(gauge(g)) = gauge(g_r)(regularize): the equivariance square."""
    ctx = sl3_context(2)
    rng = random.Random(6)
    nabla, lam0 = sl3_nabla(ctx, 2)
    g = rand_unipotent(ctx, rng)
    lhs = regularize(gauge_transform(nabla, g), lam0)
    torus = GroupElement.torus(ctx, lam0)
    gr = torus.inverse() @ g @ torus
    rhs = gauge_transform(regularize(nabla, lam0), gr)
    assert lhs == rhs


def test_regularize_matches_the_torus_gauge_for_any_base():
    """regularize on algebra vectors against the matrix route: the gauge by
    the torus element base^-lam, also for a base other than t."""
    ctx = sl3_context(2)
    t = ctx.functions.gen
    nabla, _ = sl3_nabla(ctx, 1)
    conn = gauge_transform(nabla, rand_unipotent(ctx, random.Random(11)))
    for lam in (Coweight((Fraction(2), Fraction(2))), Coweight((Fraction(1), Fraction(-2)))):
        for base in (None, t ** 2 - 3, (t + 1) / (2 * t - 5)):
            g = GroupElement.torus(ctx, Coweight([-c for c in lam.coords]), base)
            assert regularize(conn, lam, base) == gauge_transform(conn, g)


def test_lift_to_cover():
    ctx = sl3_context(2)
    F = ctx.functions
    alg = ctx.alg
    pm1 = Connection(ctx, [F.coerce(c) for c in alg.p_minus1], "general")
    lifted, ctx2 = lift_to_cover(pm1, 3)
    u = ctx2.tower.t
    for i, c in enumerate(lifted.coeffs):
        kind, r = alg.basis[i]
        if kind == "F" and sum(r) == 1:
            assert c == 3 * u ** 2
        else:
            assert not c
    # dt/t -> q du/u
    t = F.gen
    hv = coweight_to_h(alg, Coweight((Fraction(1), Fraction(1))), F)
    hconn = Connection(ctx, [c / t for c in hv], "h")
    lifted2, ctx3 = lift_to_cover(hconn, 3)
    assert lifted2.coeffs[alg.index_H[0]] == 3 / ctx3.tower.t
    # q = 1 is the identity
    same, c_same = lift_to_cover(pm1, 1)
    assert c_same is ctx and same.coeffs == pm1.coeffs
    # equivariance survives: rotation by omega^{1/q} paired with the base
    # automorphism (taus omega^-1 = zeta_{qT}^-q)
    nabla, _ = sl3_nabla(ctx, 1)
    lifted3, ctx4 = lift_to_cover(nabla, 2)
    K4 = ctx4.scalars
    base_varsigma = AlgebraAut(ctx4.alg, ctx4.nu, [(K4.one / ctx4.omega) ** 2] * ctx4.alg.rank, ctx4.tower)
    assert is_equivariant(lifted3, base_varsigma)
    assert not is_equivariant(lifted3, ctx4.varsigma)


def test_monodromy_at_origin():
    ctx = OperContext("A1", ScalarTower.get(1))
    alg = ctx.alg
    iE, iF, iH = alg.index_E[(1,)], alg.index_F[(1,)], alg.index_H[0]
    # integral coweight: identity
    m = monodromy_at_origin(ctx, Coweight((Fraction(1),)), 1)
    d = m.eval_at(0)
    assert d[iE][iE] == 1 and d[iF][iF] == 1
    # pairing coordinate 1/2 needs q = 2 and flips the root spaces
    m2 = monodromy_at_origin(ctx, Coweight((Fraction(1, 2),)), 2)
    d2 = m2.eval_at(0, m2.ctx.scalars)
    assert d2[iE][iE] == -1 and d2[iF][iF] == -1 and d2[iH][iH] == 1
    assert monodromy_at_origin(ctx, Coweight.zero(1), 1).eval_at(0)[iE][iE] == 1
