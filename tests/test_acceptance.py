"""Acceptance suite: one test per criterion, exact tolerances, one printed
PASS line each.  Run `pytest tests/test_acceptance.py -s` (or
`python scripts/run_acceptance.py`) to see the per-criterion lines."""

import random
from fractions import Fraction

import pytest

from conftest import fSl3_seed, fundamental_matrix, sl3_miura, sl4_miura_at
from cycloper.automorphisms import DiagramAut
from cycloper.bethe import BetheSystemData, bethe_regularity, energy_oper_identity
from cycloper.canonical import canonical_representative, u1_coefficient
from cycloper.chevalley import build_algebra
from cycloper.connection import (
    Connection,
    GroupElement,
    gauge_transform,
    is_equivariant,
    regularize,
)
from cycloper.context import OperContext
from cycloper.errors import CyclotomyObstruction
from cycloper.finite_opers import class_of_coweight
from cycloper.flags import fixed_flag_cells, flag_position
from cycloper.miura import (
    a2_system_residuals,
    build_miura,
    reproduce_generic,
    reproduce_orbit_A1,
    reproduce_orbit_A2,
    riccati_solve,
    theta_for,
)
from cycloper.ratfunc import INFINITY
from cycloper.solve import gauss_factorize, solve_fundamental
from cycloper.tower import ScalarTower
from cycloper.weyl import Coweight, WeylGroup, coweight_to_h, weyl_orbit_shifted


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_sl3_pipeline():
    """build_miura + canonical_representative reproduce u1 = eta(eta+2)/(4t^2),
    u2 = 0, and the expected gauge element, for eta in {0,1,2,3} (exact; the
    coefficient carries an order-2 pole, matching the k+1 pole bound)."""
    ctx = OperContext("A2", ScalarTower.get(2), DiagramAut.from_cycles(2, [[1, 2]]))
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    for eta in (0, 1, 2, 3):
        m = build_miura(ctx, Coweight((Fraction(eta), Fraction(eta))))
        can = canonical_representative(m.connection(), cyclotomic=True)
        assert can.u[0] == F.coerce(Fraction(eta * (eta + 2), 4)) / t ** 2
        assert not can.u[1]
        # exp(m).canonical = input and exp(-m) is the paper's printed g
        paper_g = alg.vec_zero(F)
        for i in range(2):
            paper_g[alg.index_E[alg.simple_root(i)]] = F.coerce(eta) / t
        assert can.gauge_vec == [-x for x in paper_g]
        back = gauge_transform(can.connection(), GroupElement.exp(ctx, can.gauge_vec))
        assert all(a == b for a, b in zip(back.coeffs, m.connection().coeffs))
    report(1, "Sl3 pipeline: u1 = eta(eta+2)/(4 t^2), u2 = 0, gauge matches, exact")


def test_criterion_2_sl4_a1_orbit():
    """riccati_solve matches the closed form on the grid S x eta x z x A;
    the orbit reproduction accepts exactly when eta+1 = 0 mod T/2 on the
    regular branch, always on the singular branch; ledger follows s1 s3."""
    accepted = rejected = 0
    for S in (1, 2):
        for eta in (0, 1, 2):
            for zval in (1, 2):
                ctx, m = sl4_miura_at(S, eta, 1, zval)
                F = ctx.functions
                t = F.gen
                q1 = m.pairing(0)
                for A in (Fraction(0), Fraction(1)):
                    f1 = riccati_solve(q1, "general", constant=A / ((S + eta + 1) * (eta + 1)))
                    denom = (
                        F.coerce(eta + 1) * t ** (S + eta + 1)
                        - F.coerce((S + eta + 1) * zval ** S) * t ** (eta + 1)
                        + F.coerce(A)
                    )
                    expect = (
                        F.coerce((eta + 1) * (S + eta + 1)) * t ** eta
                        * (t ** S - F.coerce(zval ** S)) / denom
                    )
                    assert f1 == expect
                snu = ctx.folded.simple_reflections[ctx.folded.orbit_index(0)]
                f_reg = riccati_solve(q1, "general", constant=Fraction(1))
                if (eta + 1) % S == 0:
                    res = reproduce_orbit_A1(m, (0, 2), 0, f_reg, "regular")
                    assert res.cyclotomic
                    rb, ra = res.ledger[ctx.scalars.zero]
                    assert rb == ra
                    rb, ra = res.ledger[INFINITY]
                    assert ra == snu.dot(rb)
                    accepted += 1
                else:
                    with pytest.raises(CyclotomyObstruction):
                        reproduce_orbit_A1(m, (0, 2), 0, f_reg, "regular")
                    rejected += 1
                res = reproduce_orbit_A1(m, (0, 2), 0, riccati_solve(q1, "singular_at_0"), "singular")
                assert res.cyclotomic
                rb, ra = res.ledger[ctx.scalars.zero]
                assert Coweight([-c for c in ra.coords]) == snu.dot(Coweight([-c for c in rb.coords]))
                rb, ra = res.ledger[INFINITY]
                assert ra == snu.dot(rb)
    assert accepted and rejected
    report(2, f"sl4 A1-orbit: closed form on full grid, {accepted} accepts / {rejected} rejects, s1s3 ledger, exact")


def test_criterion_3_sl3_a2_orbit():
    """Closed-form seeds solve the coupled system exactly; the three
    cyclotomy windows accept, everything else rejects; the singular
    reproduction always passes."""
    # seeds solve the system (grid of a, b, c)
    ctx, m = sl3_miura(4, 1)
    for abc in [(1, 2, 3), (Fraction(1, 2), -1, 2), (-2, 3, Fraction(5, 2))]:
        assert not any(a2_system_residuals(m, 0, 1, *fSl3_seed(ctx, 2, *abc)))
    # omega^mu = 1 (T=2, eta=1, a=b)
    ctx, m = sl3_miura(2, 1)
    assert reproduce_orbit_A2(m, (0, 1), 0, seed=fSl3_seed(ctx, 2, 3, 3, 0), branch="regular").cyclotomic
    # omega^mu = -1 (T=2, eta=0, a=-b)
    ctx, m = sl3_miura(2, 0)
    assert reproduce_orbit_A2(m, (0, 1), 0, seed=fSl3_seed(ctx, 1, 2, -2, 0), branch="regular").cyclotomic
    # omega^{2mu} = -1 (T=4, eta=0, c direction)
    ctx, m = sl3_miura(4, 0)
    assert reproduce_orbit_A2(m, (0, 1), 0, seed=fSl3_seed(ctx, 1, 0, 0, 1), branch="regular").cyclotomic
    # all other windows reject
    ctx, m = sl3_miura(8, 0)
    for abc in [(1, 1, 0), (1, -1, 0), (0, 0, 1)]:
        with pytest.raises(CyclotomyObstruction):
            reproduce_orbit_A2(m, (0, 1), 0, seed=fSl3_seed(ctx, 1, *abc), branch="regular")
    # singular reproduction accepted for all tested (omega, eta)
    for T, eta in [(2, 0), (4, 0), (8, 0), (2, 1), (4, 1), (8, 2)]:
        ctx, m = sl3_miura(T, eta)
        F = ctx.functions
        seed = (F.coerce(2 * (eta + 1)) / F.gen, F.zero, F.zero)
        r = reproduce_orbit_A2(m, (0, 1), 0, seed=seed, branch="singular")
        assert r.cyclotomic
    report(3, "sl3 A2-orbit: seeds exact, 3 windows accepted, others rejected, singular always, exact")


def test_criterion_4_generic_round_trip():
    """solve_fundamental reproduces the displayed solution exactly; for 20
    g0 on the fixed locus the factorisation round-trip holds: g_r(0) = g0,
    output cyclotomic, res0 unchanged, flag in the big cell at g0."""
    count = 0
    for T, eta in [(2, 1), (4, 1), (2, 0)]:
        ctx, m = sl3_miura(T, eta)
        F = ctx.functions
        alg = ctx.alg
        t = F.gen
        mu = eta + 1
        lam0 = Coweight((Fraction(eta), Fraction(eta)))
        reg = regularize(m.connection(), lam0).with_shape("b-")
        Y = fundamental_matrix(ctx, solve_fundamental(reg))
        assert Y == GroupElement.exp(ctx, [(-t ** mu / mu) * F.coerce(c) for c in alg.p_minus1])
        theta = theta_for(m)
        from cycloper.automorphisms import theta_fixed_nilpotent

        basis, _ = theta_fixed_nilpotent(alg, theta)
        assert basis, (T, eta)
        direction = basis[0]
        for aval in (
            Fraction(1), Fraction(2), Fraction(3), Fraction(-1),
            Fraction(1, 2), Fraction(-2, 3), Fraction(5),
        ):
            g0 = [aval * F.coerce(x) for x in direction]
            res = reproduce_generic(m, g0)
            assert res.cyclotomic
            rb, ra = res.ledger[ctx.scalars.zero]
            assert rb == ra
            fp = flag_position(m, res.gauge)
            assert fp.w.length == 0
            lie = alg.vec_zero(ctx.scalars)
            for al, c in fp.coordinates.items():
                lie[alg.index_E[al]] = c
            assert lie == [ctx.scalars.coerce(aval * x) for x in direction]
            count += 1
    assert count >= 20
    report(4, f"generic round-trip on {count} theta-fixed g0 values, flag = big cell at g0, exact")


def test_criterion_5_flag_cells():
    """A2 folded: exactly two cells; the fixed-cell dimensions match the
    three nontrivial windows and the trivial one."""
    for T, eta, big_dim in [(2, 1, 1), (2, 0, 1), (4, 0, 1), (8, 0, 0)]:
        ctx, m = sl3_miura(T, eta)
        cells = fixed_flag_cells(ctx, theta_for(m))
        assert len(cells) == 2
        big = next(c for c in cells if c.w.length == 0)
        point = next(c for c in cells if c.w.length > 0)
        assert point.w == ctx.weyl.from_word([0, 1, 0])
        assert point.dimension == 0
        assert big.dimension == big_dim
    report(5, "A2 folded flag cells: two cells, dimensions match all four windows, exact")


def test_criterion_6_energy_oper_identity():
    """50 random exact configurations across A1 (T=1,2) and A2 (T=2 folded,
    T=3): the three energy routes agree exactly."""
    rng = random.Random(2024)
    # positive rationals only: Gamma-orbits of distinct positive points stay
    # disjoint for every T used here
    pool_z = [1, 2, 3, Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)]
    pool_x = [Fraction(5), Fraction(7, 2), Fraction(9), Fraction(13, 3)]
    combos = [
        ("A1", 1, None),
        ("A1", 2, None),
        ("A2", 2, [[1, 2]]),
        ("A2", 3, None),
    ]
    checked = 0
    trial = 0
    while checked < 50:
        label, T, cycles = combos[trial % len(combos)]
        trial += 1
        nu = DiagramAut.from_cycles(2, cycles) if cycles else None
        ctx = OperContext(label, ScalarTower.get(T), nu)
        rank = ctx.alg.rank
        nsites = rng.randint(1, 2)
        zs = rng.sample(pool_z, nsites)
        sites = [(z, Coweight(tuple(Fraction(rng.randint(0, 3)) for _ in range(rank)))) for z in zs]
        nroots = rng.randint(0, 1)
        xs = rng.sample(pool_x, nroots)
        cols = [rng.randrange(rank) for _ in xs]
        data = BetheSystemData(ctx, ctx.varsigma, sites, cols, xs)
        rows = energy_oper_identity(data)
        assert rows and all(r["equal"] for r in rows), (label, T, sites, xs)
        checked += len(rows)
    report(6, f"energy/oper identity: {checked} energies across A1/A2, T in (1,2,3), exact equality")


def test_criterion_7_bethe_iff_regularity():
    """bethe_residuals vanish iff the dual oper is regular at every root,
    on A1 and A2 instances with simple-reflection poles."""
    ctx = OperContext("A1", ScalarTower.get(1))
    fund = Coweight((Fraction(1),))
    solved = BetheSystemData(ctx, ctx.varsigma, [(1, fund), (-1, fund)], [0], [0])
    res, flags = bethe_regularity(solved)
    assert flags == [True] and not any(res)
    unsolved = BetheSystemData(ctx, ctx.varsigma, [(1, fund), (-1, fund)], [0], [Fraction(1, 2)])
    res, flags = bethe_regularity(unsolved)
    assert flags == [False] and res[0]
    ctx2 = OperContext("A2", ScalarTower.get(1))
    lam = Coweight((Fraction(1), Fraction(0)))
    both = 0
    for x in (Fraction(0), Fraction(2), Fraction(3), Fraction(-2)):
        data = BetheSystemData(ctx2, ctx2.varsigma, [(1, lam), (-1, lam)], [0], [x])
        res, flags = bethe_regularity(data)
        assert (not res[0]) == flags[0]
        both += 1
    # folded A2 cyclotomic instance
    ctx3 = OperContext("A2", ScalarTower.get(2), DiagramAut.from_cycles(2, [[1, 2]]))
    lam2 = Coweight((Fraction(2), Fraction(2)))
    for x in (Fraction(3), Fraction(5)):
        data = BetheSystemData(ctx3, ctx3.varsigma, [(1, lam2)], [0], [x])
        res, flags = bethe_regularity(data)
        assert (not res[0]) == flags[0]
    report(7, "Bethe residual = 0 iff dual oper regular at every root (A1 + A2, incl. folded), exact")


def test_criterion_8_property_suites():
    """Serre relations, grading, graded decomposition, shifted-action group
    law, finite-canonical linkage constancy, canonical idempotence and
    reassembly, and the regularisation commuting square, on A1..A4 + D4."""
    labels = ["A1", "A2", "A3", "A4", "D4"]
    rng = random.Random(99)
    for label in labels:
        g = build_algebra(label)
        n = g.rank
        A = g.cartan.matrix
        E = [g.vec_E(g.simple_root(i)) for i in range(n)]
        Fv = [g.vec_F(g.simple_root(i)) for i in range(n)]
        H = [g.vec_H(i) for i in range(n)]
        # Serre suite
        for i in range(n):
            for j in range(n):
                assert g.bracket_vec(H[i], E[j]) == [A[i][j] * x for x in E[j]]
                assert g.bracket_vec(E[i], Fv[j]) == (H[i] if i == j else g.vec_zero())
                if i != j:
                    cur = E[j]
                    for _ in range(1 - A[i][j]):
                        cur = g.bracket_vec(E[i], cur)
                    assert not any(cur)
        # grading on every structure-constant entry
        for i in range(g.dim):
            for j in range(g.dim):
                for k in g.bracket_basis(i, j):
                    assert g.height_of[k] == g.height_of[i] + g.height_of[j]
        # graded decomposition g_i = [p_-1, g_{i+1}] (+) a_i
        for h in range(0, g.height_max + 1):
            inv, mb, ab, idxs = g.split_data(h)
            assert len(mb) + len(ab) == len(idxs)
            assert len(ab) == sum(1 for k in g.exponents if k == h)
        # shifted action group law
        W = WeylGroup(g.cartan)
        lam = Coweight(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)))
        for _ in range(6):
            w1 = W.elements[rng.randrange(W.order())]
            w2 = W.elements[rng.randrange(W.order())]
            assert W.mult(w1, w2).dot(lam) == w1.dot(w2.dot(lam))
        # finite-canonical constancy on shifted orbits (full enumeration for
        # small ranks, a 20-element sample for A4/D4)
        lam = Coweight(tuple(Fraction(rng.randint(0, 2)) for _ in range(n)))
        orbit = weyl_orbit_shifted(W, lam)
        if len(orbit) > 20:
            orbit = [orbit[0], orbit[-1]] + rng.sample(orbit, 18)
        classes = {class_of_coweight(g, v) for _, v in orbit}
        assert len(classes) == 1
        # canonical idempotence + reassembly on one connection per algebra
        ctx = OperContext(g, ScalarTower.get(1))
        F = ctx.functions
        t = F.gen
        coeffs = [F.coerce(c) for c in g.p_minus1]
        hv = coweight_to_h(g, Coweight(tuple(Fraction(1) for _ in range(n))), F)
        coeffs = [a - b / t for a, b in zip(coeffs, hv)]
        nabla = Connection(ctx, coeffs, "oper")
        can = canonical_representative(nabla)
        assert u1_coefficient(nabla) == can.u[0]
        back = gauge_transform(can.connection(), GroupElement.exp(ctx, can.gauge_vec))
        assert all(a == b for a, b in zip(back.coeffs, nabla.coeffs))
        again = canonical_representative(can.connection())
        assert not any(again.gauge_vec) and again.u == can.u
    # equivariance commuting square (regularisation) on the folded A2
    ctx, m = sl3_miura(2, 2)
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    lam0 = Coweight((Fraction(2), Fraction(2)))
    w = ctx.omega
    f = t / (t ** 2 - 9)
    v = alg.vec_zero(F)
    v[alg.index_E[alg.simple_root(0)]] = f
    v[alg.index_E[alg.simple_root(1)]] = f.subs_scale(1 / w) * (1 / w)
    gel = GroupElement.exp(ctx, v)
    lhs = regularize(gauge_transform(m.connection(), gel), lam0)
    torus = GroupElement.torus(ctx, lam0)
    rhs = gauge_transform(regularize(m.connection(), lam0), torus.inverse() @ gel @ torus)
    assert lhs == rhs
    assert is_equivariant(regularize(m.connection(), lam0), ctx.vartheta(lam0))
    report(8, "property suites (Serre, grading, decomposition, shifted action, linkage constancy, canonical idempotence/reassembly, commuting square) on A1-A4 + D4, exact")
