from fractions import Fraction

import pytest

from conftest import bminus_columns, fSl3_seed, limit_flag_is, matrix_log, sl3_miura, sl4_miura_at
from cycloper.automorphisms import DiagramAut, theta_fixed_nilpotent
from cycloper.chevalley import build_algebra
import cycloper.connection as connection
from cycloper.connection import GroupElement
from cycloper.context import OperContext
from cycloper.errors import LimitUndefined, NoRationalSolution, ValidationError
from cycloper.flags import (
    FlagPoint,
    _limit_flag_point,
    _regularised_log,
    fixed_flag_cells,
    flag_position,
    inversion_set,
)
from cycloper.miura import (
    MiuraOper,
    build_miura,
    reproduce_generic,
    reproduce_orbit_A1,
    reproduce_orbit_A2,
    riccati_solve,
    theta_for,
)
from cycloper.solve import gauss_factorize
from cycloper.tower import ScalarTower
from cycloper.weyl import Coweight, WeylGroup


def test_inversion_sets():
    ctx = OperContext("A2", ScalarTower.get(1))
    W = ctx.weyl
    alg = ctx.alg
    assert inversion_set(alg, W.identity) == []
    assert len(inversion_set(alg, W.longest)) == len(alg.pos_roots)
    for w in W.elements:
        assert len(inversion_set(alg, w)) == w.length


def test_full_schubert_for_trivial_twist():
    """nu = id, theta = id: every cell of the full Weyl group appears with
    dimension l(w_o w)."""
    ctx = OperContext("A2", ScalarTower.get(1))
    m = MiuraOper(ctx, [ctx.functions.zero] * 2)
    th = theta_for(m)
    cells = fixed_flag_cells(ctx, th)
    assert len(cells) == ctx.weyl.order()
    wo = ctx.weyl.longest
    for c in cells:
        assert c.dimension == ctx.weyl.mult(wo, c.w).length


@pytest.mark.parametrize(
    "T,eta,big_dim",
    [(2, 1, 1), (2, 0, 1), (4, 0, 1), (4, 1, 1), (8, 0, 0)],
)
def test_a2_folded_cells(T, eta, big_dim):
    """Exactly two cells; the non-identity cell is the single point
    s-nu B_-; the big cell dimension tracks the three cyclotomy windows."""
    ctx, m = sl3_miura(T, eta)
    th = theta_for(m)
    cells = fixed_flag_cells(ctx, th)
    assert len(cells) == 2
    big = next(c for c in cells if c.w.length == 0)
    point = next(c for c in cells if c.w.length > 0)
    assert point.w == ctx.weyl.from_word([0, 1, 0])
    assert point.dimension == 0
    assert big.dimension == big_dim


def test_flag_of_identity():
    ctx, m = sl3_miura(2, 1)
    fp = flag_position(m, ctx.alg.vec_zero(ctx.functions))
    assert fp.w.length == 0 and not fp.coordinates


def test_flag_position_rejects_a_log_outside_n():
    """A gauge log with an h or a negative-root entry is not in n."""
    ctx, m = sl3_miura(2, 1)
    F = ctx.functions
    alg = ctx.alg
    for vec in (alg.vec_F(alg.simple_root(0), F), [F.coerce(x) for x in alg.rho]):
        X = [a + b for a, b in zip(alg.vec_E(alg.simple_root(1), F), vec)]
        with pytest.raises(ValidationError, match="supported on n"):
            flag_position(m, X)


def test_generic_reproduction_lands_in_big_cell_with_g0():
    ctx, m = sl3_miura(2, 1)
    F = ctx.functions
    alg = ctx.alg
    E1 = alg.vec_E(alg.simple_root(0), F)
    E2 = alg.vec_E(alg.simple_root(1), F)
    for aval in (Fraction(1), Fraction(3), Fraction(-1, 2)):
        res = reproduce_generic(m, [aval * (x + y) for x, y in zip(E1, E2)])
        fp = flag_position(m, res.gauge)
        assert fp.w.length == 0
        assert fp.coordinates.get(alg.simple_root(0)) == aval
        assert fp.coordinates.get(alg.simple_root(1)) == aval


def test_singular_reproduction_lands_in_point_cell():
    for T, eta in [(4, 0), (2, 1)]:
        ctx, m = sl3_miura(T, eta)
        F = ctx.functions
        mu = eta + 1
        r = reproduce_orbit_A2(m, (0, 1), 0, seed=(F.coerce(2 * mu) / F.gen, F.zero, F.zero), branch="singular")
        fp = flag_position(m, r.gauge)
        assert fp.w == ctx.weyl.from_word([0, 1, 0])
        assert not fp.coordinates


def test_phi_injective_on_fixed_grid():
    """Distinct g0 map to distinct flag points (big-cell coordinates)."""
    ctx, m = sl3_miura(2, 1)
    F = ctx.functions
    alg = ctx.alg
    E1 = alg.vec_E(alg.simple_root(0), F)
    E2 = alg.vec_E(alg.simple_root(1), F)
    points = set()
    for aval in (Fraction(1), Fraction(2), Fraction(-1)):
        res = reproduce_generic(m, [aval * (x + y) for x, y in zip(E1, E2)])
        fp = flag_position(m, res.gauge)
        points.add((fp.w, tuple(sorted((r, c) for r, c in fp.coordinates.items()))))
    assert len(points) == 3


@pytest.mark.parametrize(
    "label, T, cycles",
    [("A2", 1, None), ("B2", 1, None), ("G2", 1, None), ("D4", 3, [[1, 3, 4]])],
    ids=["A2-T1", "B2-T1", "G2-T1", "D4-T3"],
)
def test_all_cells_recovered_synthetically(label, T, cycles):
    """Non-cyclotomic points n w-dot B_-, n in the cell group of w (the
    alpha > 0 with w^-1 alpha > 0), one per w in W^nu: each is recovered
    with the same w and coordinates (verified by coset membership)."""
    rank = int(label[1:])
    ctx = OperContext(label, ScalarTower.get(T), DiagramAut.from_cycles(rank, cycles) if cycles else None)
    F = ctx.functions
    alg = ctx.alg
    W = ctx.weyl
    for w in W.nu_invariant_elements(ctx.nu):
        rts = inversion_set(alg, W.mult(w, W.longest))
        n = GroupElement.identity(ctx)
        for i, al in enumerate(rts):
            n = n @ GroupElement.exp(ctx, [Fraction(i + 2, 3) * x for x in alg.vec_E(al, F)])
        wd = GroupElement.weyl_representative(ctx, w)
        fp = _limit_flag_point(ctx, bminus_columns(n @ wd))
        assert fp.w == w
        lie = alg.vec_zero(F)
        for al, c in fp.coordinates.items():
            lie[alg.index_E[al]] = F.coerce(c)
        n2 = GroupElement.exp(ctx, lie)
        test = wd.inverse() @ n2.inverse() @ n @ wd
        assert all(
            alg.height_of[i] <= alg.height_of[j] or not v
            for i, row in enumerate(test.mat.rows)
            for j, v in row.items()
        )


def test_limit_point_off_every_prefix_of_a_singular_log():
    """A B2 gauge log with poles of order 1 and 2 at 0, whose limit is
    exp(-10/11 E_alpha1) s2-dot s1-dot s2-dot B_-: the flag of that point
    equals the limit flag of the columns at every height prefix, as the
    prefix-by-prefix limit of the test oracle takes it."""
    ctx = OperContext("B2", ScalarTower.get(1))
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    X = alg.vec_zero(F)
    for root, x in (((0, 1), 2 / t), ((1, 0), F.coerce(-2)), ((1, 1), F.coerce(3)), ((1, 2), -1 / t ** 2)):
        X[alg.index_E[root]] = x
    cols = bminus_columns(GroupElement.exp(ctx, X))
    fp = _limit_flag_point(ctx, cols)
    assert fp.w == ctx.weyl.from_word([1, 0, 1])
    assert fp.coordinates == {(1, 0): Fraction(-10, 11)}
    assert limit_flag_is(ctx, cols, fp)
    moved = FlagPoint(w=fp.w, coordinates={(1, 0): Fraction(1)}, cell_roots=fp.cell_roots)
    assert not limit_flag_is(ctx, cols, moved)


def test_limit_span_not_transversal_to_n_is_typed():
    """A constant span with the pivots of the cell of s1 (the rows of
    F_{alpha1+alpha2}, F_alpha2, H_1, F_alpha1 and E_alpha1) that is no
    point of that cell: moved by Ad_{s1-dot^-1}, F_alpha1 goes to n, so
    the constant solve is singular and the limit raises LimitUndefined."""
    ctx = OperContext("A2", ScalarTower.get(1))
    F = ctx.functions
    alg = ctx.alg
    rows = [alg.index_F[(1, 1)], alg.index_F[(0, 1)], alg.index_F[(1, 0)], alg.index_H[0], alg.index_E[(1, 0)]]
    cols = [[F.one if i == j else F.zero for i in range(alg.dim)] for j in rows]
    with pytest.raises(LimitUndefined, match="meets n"):
        _limit_flag_point(ctx, cols)


def test_flag_of_antisymmetric_regular_case():
    """T=4, eta=1 is the omega^mu = -1 window (a = -b): the reproduction is
    regular and lands in the big cell with coordinates (a, -a)."""
    ctx, m = sl3_miura(4, 1)
    seed = fSl3_seed(ctx, 2, 2, -2, 0)
    r = reproduce_orbit_A2(m, (0, 1), 0, seed=seed, branch="regular")
    fp = flag_position(m, r.gauge)
    assert fp.w.length == 0
    assert fp.coordinates.get(ctx.alg.simple_root(0)) == 2
    assert fp.coordinates.get(ctx.alg.simple_root(1)) == -2


def _inversion_set_by_word(alg, w):
    """R(w) = {alpha > 0 : w^-1 alpha < 0}, with w^-1 applied to alpha one
    simple reflection at a time: s_i beta = beta - <beta, coroot_i> alpha_i."""
    out = []
    for r in alg.pos_roots:
        beta = list(r)
        for i in w.word:  # w^-1 = reversed word; apply its last letter first
            p = alg.root_pairing(tuple(beta), i)
            beta[i] -= p
        if all(c <= 0 for c in beta):
            out.append(r)
    return out


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "A1xA1", "A2xB2"])
def test_inversion_set_read_off_the_weyl_matrix(label):
    alg = build_algebra(label)
    W = WeylGroup(alg.cartan)
    for w in W.elements:
        assert inversion_set(alg, w) == _inversion_set_by_word(alg, w)


@pytest.mark.parametrize("T, cycles", [(2, [[1, 2]]), (1, None)])
def test_flag_position_on_the_cover(T, cycles):
    """lam0 = (1/2, 1/2) is not integral, so flag_position lifts g to the
    2-sheeted cover; g0 = 3 x (the theta-fixed basis vector E_theta) lands
    in the big cell with coordinate 3 on theta."""
    nu = DiagramAut.from_cycles(2, cycles) if cycles else None
    ctx = OperContext("A2", ScalarTower.get(T), nu)
    F = ctx.functions
    m = build_miura(ctx, Coweight((Fraction(1, 2), Fraction(1, 2))))
    assert m.residue_coweight(0) == Coweight((Fraction(-1, 2), Fraction(-1, 2)))
    (basis,), _ = theta_fixed_nilpotent(ctx.alg, theta_for(m, 2))
    theta = ctx.alg.index_E[(1, 1)]
    assert [i for i, x in enumerate(basis) if x] == [theta] and basis[theta] == 1
    res = reproduce_generic(m, [3 * x for x in ctx.alg.vec_E((1, 1), F)])
    fp = flag_position(m, res.gauge)
    assert fp.w == ctx.weyl.identity
    assert fp.coordinates == {(1, 1): 3}


def _gauss_flag_point(m, X):
    """The big-cell point by the constant-matrix route: g_r(0) = e^{X_r}(0)
    over the scalars, factored as e^-Y b by gauss_factorize from the
    inverse matrix g_r^-1(0); the coordinates are -Y."""
    wctx, Xr = _regularised_log(m, X)
    alg = wctx.alg
    K = wctx.scalars
    F = wctx.functions
    M0inv = GroupElement.exp(wctx, Xr).inverse().eval_at(K.zero)

    def act(v):
        return [sum((F.coerce(a) * x for a, x in zip(row, v) if a and x), F.zero) for row in M0inv]

    logn = gauss_factorize(wctx, act)
    coords = {alg.basis[i][1]: (-v).constant_value() for i, v in enumerate(logn) if v}
    W = wctx.weyl
    return FlagPoint(w=W.identity, coordinates=coords, cell_roots=tuple(inversion_set(alg, W.longest)))


@pytest.mark.parametrize(
    "T, cycles, lam, c",
    [(T, [[1, 2]], Fraction(eta), c) for T in (2, 4) for eta in (0, 1, 2) for c in (3, Fraction(-1, 2))]
    + [(2, [[1, 2]], Fraction(1, 2), 3), (1, None, Fraction(1, 2), 3)],
)
def test_log_path_matches_the_limit_path_and_the_gauss_route(T, cycles, lam, c, monkeypatch):
    """A gauge e^X with X_r regular at 0 is placed from its log, with no
    adjoint matrix; the limit of the flag of e^{X_r} and the Gauss
    factorisation of g_r(0) give the same point."""
    nu = DiagramAut.from_cycles(2, cycles) if cycles else None
    ctx = OperContext("A2", ScalarTower.get(T), nu)
    m = build_miura(ctx, Coweight((lam, lam)))
    q = Coweight((lam, lam)).denominator()
    basis, _ = theta_fixed_nilpotent(ctx.alg, theta_for(m, q))
    X = reproduce_generic(m, [c * sum(b[i] for b in basis) for i in range(ctx.alg.dim)]).gauge
    with monkeypatch.context() as mp:
        mp.setattr(connection, "_exp_ad", None)
        fp = flag_position(m, X)
    assert fp.w == ctx.weyl.identity and fp.coordinates
    wctx, Xr = _regularised_log(m, X)
    limit = _limit_flag_point(wctx, bminus_columns(GroupElement.exp(wctx, Xr)))
    gauss = _gauss_flag_point(m, X)
    assert fp == limit == gauss
    assert repr(fp) == repr(limit) == repr(gauss)


@pytest.mark.parametrize(
    "label, T, cycles",
    [
        ("A3", 2, [[1, 3]]),
        ("A3", 4, [[1, 3]]),
        ("B2", 1, []),
        ("A4", 2, [[1, 4], [2, 3]]),
        ("G2", 1, []),
        ("D4", 3, [[1, 3, 4]]),
    ],
    ids=["A3-T2", "A3-T4", "B2-T1", "A4-T2", "G2-T1", "D4-T3"],
)
def test_generic_round_trip_beyond_folded_a2(label, T, cycles, column_route):
    """The generic route off A2 (lam0 pairing 1 with every simple root):
    res_0 is kept and the result is cyclotomic, the flag is the big cell
    at g0, two g0 give two Miura opers, and the vartheta-fixed flag
    variety has one cell per element of the folded Weyl group W^nu.  The
    factor n equals the b_- column route's entry by entry."""
    rank = int(label[1:])
    ctx = OperContext(label, ScalarTower.get(T), DiagramAut.from_cycles(rank, cycles))
    alg = ctx.alg
    K = ctx.scalars
    m = build_miura(ctx, Coweight((Fraction(1),) * rank))
    theta = theta_for(m)
    basis, _ = theta_fixed_nilpotent(alg, theta)
    g0s = ([sum(xs) for xs in zip(*basis)], basis[0])
    news = []
    for g0 in g0s:
        res = reproduce_generic(m, g0)
        column_route(res, g0)
        before, after = res.ledger[K.zero]
        assert res.cyclotomic and before == after
        fp = flag_position(m, res.gauge)
        assert fp.w.length == 0
        assert fp.coordinates == {alg.basis[i][1]: x for i, x in enumerate(g0) if x}
        news.append(res.new.u_coroot)
    assert news[0] != news[1]
    assert len(fixed_flag_cells(ctx, theta)) == WeylGroup(ctx.folded.cartan).order()


@pytest.mark.parametrize(
    "label, T, cycles, lam",
    [
        ("A2", 1, None, (1, 1)),
        ("B2", 1, None, (1, 1)),
        ("G2", 1, None, (1, 1)),
        ("A3", 2, [[1, 3]], (1, 1, 1)),
        ("D4", 3, [[1, 3, 4]], (1, 1, 1, 1)),
    ],
    ids=["A2-T1", "B2-T1", "G2-T1", "A3-T2", "D4-T3"],
)
def test_singular_reproductions_populate_every_cell(label, T, cycles, lam):
    """The population of a Miura oper: breadth-first from build_miura(lam0),
    a singular-at-0 reproduction along each orbit of simple roots.  The
    walk reaches one cell per element of W^nu.  A step along orbit i from
    the cell of w has a rational singular solution exactly when s_i w is
    longer than w (so every step fails at the longest element), and its
    Miura oper is cyclotomic and lies in the cell of s_i w, with -res_0 =
    (s_i w).lam0."""
    rank = int(label[1:])
    ctx = OperContext(label, ScalarTower.get(T), DiagramAut.from_cycles(rank, cycles) if cycles else None)
    W = ctx.weyl
    folded = ctx.folded
    lam0 = Coweight(tuple(Fraction(x) for x in lam))
    base = build_miura(ctx, lam0)
    reached = {W.identity}
    frontier = [(base, W.identity, GroupElement.identity(ctx))]
    while frontier:
        nxt = []
        for m, w, g in frontier:
            for i, orbit in enumerate(folded.orbits):
                k = orbit[0]
                target = W.mult(folded.simple_reflections[i], w)
                if target.length < w.length:
                    with pytest.raises(NoRationalSolution):
                        riccati_solve(m.pairing(k), "singular_at_0", extra_points=m.points)
                    continue
                f = riccati_solve(m.pairing(k), "singular_at_0", extra_points=m.points)
                res = reproduce_orbit_A1(m, orbit, k, f, "singular")
                assert res.cyclotomic and res.new.is_cyclotomic()
                step = GroupElement.exp(ctx, res.gauge) @ g
                fp = flag_position(base, matrix_log(step))
                assert fp.w == target
                assert Coweight([-c for c in res.new.residue_coweight(0).coords]) == target.dot(lam0)
                if target not in reached:
                    reached.add(target)
                    nxt.append((res.new, target, step))
        frontier = nxt
    assert len(reached) == len(W.nu_invariant_elements(ctx.nu)) == WeylGroup(folded.cartan).order()
    assert W.longest in reached


@pytest.mark.parametrize(
    "case",
    [("A3", 1, 0), ("A3", 1, 1), ("A3", 2, 1), ("D4", 3, None)],
    ids=["A3-T2-eta0", "A3-T2-eta1", "A3-T4-eta1", "D4-T3"],
)
def test_regular_orbit_reproduction_is_generic(case):
    """Cyclotomic generation is the action of N^vartheta: the regular branch
    along an A1-type orbit (A3 with nu = (1 3) and a site at 1, D4 with
    triality and lam0 = (2, 0, 2, 2)) lands in the big cell, and
    reproduce_generic at g0 = its big-cell coordinates gives the same gauge,
    the same new Miura oper and the same ledger."""
    label, S, eta = case
    if label == "A3":
        ctx, m = sl4_miura_at(S, eta, 1, 1)
        orbit = (0, 2)
    else:
        ctx = OperContext("D4", ScalarTower.get(3), DiagramAut.from_cycles(4, [[1, 3, 4]]))
        m = build_miura(ctx, Coweight(tuple(Fraction(x) for x in (2, 0, 2, 2))))
        orbit = (0, 2, 3)
    alg = ctx.alg
    f = riccati_solve(m.pairing(0), "general", constant=Fraction(1), extra_points=m.points)
    res = reproduce_orbit_A1(m, orbit, 0, f, "regular")
    fp = flag_position(m, res.gauge)
    assert fp.w.length == 0 and fp.coordinates
    g0 = alg.vec_zero(ctx.scalars)
    for root, x in fp.coordinates.items():
        g0[alg.index_E[root]] = x
    gen = reproduce_generic(m, g0)
    assert gen.gauge == res.gauge
    assert gen.new == res.new and gen.ledger == res.ledger
