import random
from fractions import Fraction

import pytest

from cycloper.automorphisms import AlgebraAut, DiagramAut
from cycloper.bethe import (
    BetheSystemData,
    _gaudin_sum,
    _root_weight,
    bethe_regularity,
    bethe_residuals,
    dual_algebra,
    energies,
    energy_oper_identity,
    lambda0_weight,
    lambda_function,
    miura_from_bethe,
    nu_power_weight,
    weight_at_infinity,
    weight_form,
)
from cycloper.cartan import CartanDatum
from cycloper.chevalley import build_algebra
from cycloper.context import OperContext
from cycloper.errors import OrbitCollision
from cycloper.miura import miura_from_orbits
from cycloper.tower import ScalarTower
from cycloper.weyl import Coweight, coroot_to_coweight


def a1(T=1):
    return OperContext("A1", ScalarTower.get(T))


def a2_folded(T):
    return OperContext("A2", ScalarTower.get(T), DiagramAut.from_cycles(2, [[1, 2]]))


def solved_a1():
    ctx = a1()
    fund = Coweight((Fraction(1),))
    return BetheSystemData(ctx, ctx.varsigma, [(1, fund), (-1, fund)], [0], [0])


def unsolved_a1():
    ctx = a1()
    fund = Coweight((Fraction(1),))
    return BetheSystemData(ctx, ctx.varsigma, [(1, fund), (-1, fund)], [0], [Fraction(1, 2)])


# ------------------------------------------------------------------- lambda0

def test_lambda0_trivial_for_T1():
    ctx = a1()
    assert all(not c for c in lambda0_weight(ctx.alg, ctx.varsigma, ctx.tower).coords)


def test_lambda0_a1_T2():
    """sigma = varsigma (sigma E = -E): lam0 = -alpha/2, i.e. value -1 on the
    coroot."""
    ctx = a1(2)
    lam0 = lambda0_weight(ctx.alg, ctx.varsigma, ctx.tower)
    assert lam0.coords[0] == -1


def test_lambda0_nu_invariance():
    for T in (2, 4):
        ctx = a2_folded(T)
        lam0 = lambda0_weight(ctx.alg, ctx.varsigma, ctx.tower)
        assert lam0.coords[0] == lam0.coords[1]
    # general sigma with a tau list
    ctx = a2_folded(4)
    sig = AlgebraAut(ctx.alg, ctx.nu, [ctx.tower.zeta, ctx.tower.zeta], ctx.tower)
    lam0 = lambda0_weight(ctx.alg, sig, ctx.tower)
    assert lam0.coords[0] == lam0.coords[1]


# ------------------------------------------------------------------- residuals

def test_bethe_residual_examples():
    assert not bethe_residuals(solved_a1())[0]
    assert bethe_residuals(unsolved_a1())[0]
    ctx = a1()
    assert bethe_residuals(BetheSystemData(ctx, ctx.varsigma, [(1, Coweight((Fraction(1),)))], [], [])) == []


def test_bethe_iff_regularity_a1():
    r, flags = bethe_regularity(solved_a1())
    assert flags == [True] and not r[0]
    r, flags = bethe_regularity(unsolved_a1())
    assert flags == [False] and r[0]


def test_bethe_iff_regularity_a2():
    """Scan candidate roots on an A2 instance: residual vanishes exactly
    where the dual oper is regular."""
    ctx = OperContext("A2", ScalarTower.get(1))
    lam = Coweight((Fraction(1), Fraction(0)))
    # single site at z=1, one root of colour 1: residual (a1|lam)/(x-1) - 0
    a1w = Coweight((Fraction(2), Fraction(-1)))
    for x in (Fraction(2), Fraction(3), Fraction(-1)):
        data = BetheSystemData(ctx, ctx.varsigma, [(1, lam)], [0], [x])
        res, flags = bethe_regularity(data)
        assert (not res[0]) == flags[0]
    # solvable case: two sites symmetric, root in the middle
    data = BetheSystemData(
        ctx, ctx.varsigma, [(1, lam), (-1, lam)], [0], [0]
    )
    res, flags = bethe_regularity(data)
    assert (not res[0]) == flags[0]
    assert flags[0]


@pytest.mark.parametrize("T", [1, 2])
def test_bethe_regularity_builds_one_canonical_form(T, monkeypatch):
    """Two Bethe roots: one canonical form of the dual oper serves both,
    with the flags of a canonical form per root.  At T = 1 the weights
    45/28 make the first root solve its Bethe equation, not the second."""
    import cycloper.bethe as bethe_mod
    import cycloper.canonical as canonical_mod

    ctx = a1(T)
    weight = Coweight((Fraction(45, 28),))
    data = BetheSystemData(ctx, ctx.varsigma, [(2, weight), (3, weight)], [0, 0], [Fraction(1, 2), Fraction(5, 3)])
    conn = miura_from_bethe(data)[0].connection()
    per_root = [canonical_mod.is_regular_at(conn, x, cyclotomic=True) for x in data.roots]
    built = []
    real = canonical_mod.canonical_representative

    def counted(*args, **kw):
        built.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(canonical_mod, "canonical_representative", counted)
    monkeypatch.setattr(bethe_mod, "canonical_representative", counted)
    residuals, flags = bethe_regularity(data)
    assert len(built) == 1
    assert flags == per_root
    assert flags == [not r for r in residuals]
    assert T != 1 or flags == [True, False]


def test_miura_from_bethe_shape():
    m, Lctx = miura_from_bethe(solved_a1())
    assert m.is_cyclotomic()
    # residue at z_1 = 1 is -lam read in the dual coordinates
    assert m.residue_coweight(1) == Coweight((Fraction(-1),))
    # empty data: d + p-1 dt over the dual
    ctx = a1()
    m0, _ = miura_from_bethe(BetheSystemData(ctx, ctx.varsigma, [], [], []))
    assert all(not c for c in m0.u_coroot)


# ------------------------------------------------------------------- energies

def test_energy_trivial():
    ctx = a1()
    data = BetheSystemData(ctx, ctx.varsigma, [(1, Coweight((Fraction(2),)))], [], [])
    assert energies(data) == [ctx.scalars.zero]


def test_energy_T2_closed_form():
    ctx = a1(2)
    K = ctx.scalars
    lam = Coweight((Fraction(3),))
    data = BetheSystemData(ctx, ctx.varsigma, [(2, lam)], [], [])
    E = energies(data)[0]
    z1 = K.coerce(2)
    expect = weight_form(ctx.alg, lam, lam, K) / (z1 - (-1) * z1) + weight_form(
        ctx.alg, lam, data.lam0, K
    ) / z1
    assert E == expect


def test_energy_a1_two_sites():
    data = solved_a1()
    Es = energies(data)
    K = data.ctx.scalars
    lam = Coweight((Fraction(1),))
    alpha = Coweight((Fraction(2),))
    g = data.ctx.alg
    e1 = weight_form(g, lam, lam, K) / (K.one - K.coerce(-1)) - weight_form(g, lam, alpha, K) / K.one
    assert Es[0] == e1


def test_energy_oper_identity_examples():
    for data in (solved_a1(), unsolved_a1()):
        rows = energy_oper_identity(data)
        assert all(r["equal"] for r in rows)


def test_energy_oper_identity_random():
    """The identity is algebraic in lambda(t): it holds for arbitrary exact
    configurations, Bethe or not."""
    rng = random.Random(31)
    pool_z = [1, 2, 3, -1, -2, Fraction(1, 2), Fraction(3, 2)]
    pool_x = [Fraction(5), Fraction(-3), Fraction(7, 2), Fraction(-7, 3)]
    count = 0
    for trial in range(8):
        ctx = OperContext("A1", ScalarTower.get(2)) if trial % 2 else OperContext("A2", ScalarTower.get(3))
        rank = ctx.alg.rank
        zs = rng.sample(pool_z, 2)
        sites = [
            (z, Coweight(tuple(Fraction(rng.randint(0, 3)) for _ in range(rank))))
            for z in zs
        ]
        m = rng.randint(0, 1)
        xs = rng.sample(pool_x, m)
        cols = [rng.randrange(rank) for _ in xs]
        data = BetheSystemData(ctx, ctx.varsigma, sites, cols, xs)
        rows = energy_oper_identity(data)
        assert all(r["equal"] for r in rows), (trial, rows)
        count += len(rows)
    assert count >= 16


def test_weight_at_infinity():
    ctx = a1()
    data = BetheSystemData(ctx, ctx.varsigma, [(1, Coweight((Fraction(2),)))], [], [])
    lam_inf, w_inf = weight_at_infinity(data)
    assert lam_inf == Coweight((Fraction(2),)) and w_inf.length == 0
    # lam inf consistency: lam0 + sum nu^r lam_i - sum nu^r alpha_c(j) = w_inf . lam_inf
    data2 = solved_a1()
    lam_inf2, w_inf2 = weight_at_infinity(data2)
    total = Coweight((Fraction(1 + 1 - 2),))
    assert w_inf2.dot(lam_inf2) == total


def test_weight_at_infinity_folded_consistency():
    """Eq-lambda-inf bookkeeping on an A2 folded instance: the dominant
    shifted representative matches -res_inf lambda dt, which equals
    lam0 + sum nu^r lam_i - sum nu^r alpha_c(j)."""
    from cycloper.bethe import lambda_function, nu_power_weight, _root_weight
    from cycloper.ratfunc import INFINITY
    from cycloper.weyl import rho_coweight

    ctx = a2_folded(2)
    data = BetheSystemData(
        ctx, ctx.varsigma, [(1, Coweight((Fraction(1), Fraction(1))))], [0, 1],
        [Fraction(2), Fraction(3)],
    )
    lam, m, Lctx = lambda_function(data)
    K = Lctx.scalars
    minus_res = Coweight([-K.coerce(c.residue_at(INFINITY)) for c in lam.coords])
    total = Coweight([K.coerce(c) for c in data.lam0.coords])
    T = ctx.tower.order
    for r in range(T):
        for _, lami in data.sites:
            total = total + Coweight([K.coerce(c) for c in nu_power_weight(ctx.nu, lami, r).coords])
        for j in range(len(data.roots)):
            aw = _root_weight(ctx.alg, data.colours[j])
            total = total - Coweight([K.coerce(c) for c in nu_power_weight(ctx.nu, aw, r).coords])
    assert total == minus_res
    lam_inf, w_inf = weight_at_infinity(data)
    assert w_inf.dot(lam_inf) == minus_res
    assert (lam_inf + rho_coweight(2)).is_dominant()


def test_dual_context_and_weight_basis_are_built_once():
    ctx = OperContext("B2", ScalarTower.get(2))
    assert ctx.dual is ctx.dual
    assert ctx.dual.alg.cartan.matrix == dual_algebra(ctx.alg).cartan.matrix
    assert ctx.dual.tower is ctx.tower and ctx.dual.nu is ctx.nu
    assert ctx.alg.cartan_transpose_inverse is ctx.alg.cartan_transpose_inverse
    data = BetheSystemData(ctx, ctx.varsigma, [(Fraction(1), Coweight((Fraction(1), Fraction(0))))], [], [])
    assert miura_from_bethe(data)[1] is ctx.dual


def test_lambda0_is_computed_once_per_data_object(monkeypatch):
    """lam0 and the dual Miura oper are each built once per data object,
    however many of the Gaudin routines read them."""
    from cycloper import bethe

    calls, builds = [], []

    def counted(*args):
        calls.append(args)
        return lambda0_weight(*args)

    def counted_oper(*args):
        builds.append(args)
        return miura_from_orbits(*args)

    monkeypatch.setattr(bethe, "lambda0_weight", counted)
    monkeypatch.setattr(bethe, "miura_from_orbits", counted_oper)
    data = solved_a1()
    bethe_residuals(data)
    miura_from_bethe(data)
    energies(data)
    assert all(r["equal"] for r in energy_oper_identity(data))
    weight_at_infinity(data)
    bethe_regularity(data)
    assert len(calls) == 1
    assert len(builds) == 1


def test_dual_algebra_double():
    for lbl in ("A2", "B2", "G2", "D4"):
        g = build_algebra(lbl)
        gdd = dual_algebra(dual_algebra(g))
        assert gdd.cartan.matrix == g.cartan.matrix


def test_dual_form_is_induced_form():
    """For B2 the dual (C2-type) algebra must carry the form induced from
    h^*: (alpha_i | alpha_j) computed either way agrees."""
    g = build_algebra("B2")
    gd = dual_algebra(g)
    # simple roots of the dual = coroots of g: induced norm
    # (coroot_i | coroot_i)_h = 4 / (alpha_i, alpha_i)
    for i in range(2):
        want = 4 / g.root_form(g.simple_root(i), g.simple_root(i))
        # root_form excludes the per-factor scales; apply them explicitly
        got = gd.root_form(gd.simple_root(i), gd.simple_root(i)) * gd.form_scales[0]
        assert got == want


def test_orbit_validation():
    ctx = a1(2)
    with pytest.raises(OrbitCollision):
        BetheSystemData(ctx, ctx.varsigma, [(1, Coweight((Fraction(1),))), (-1, Coweight((Fraction(1),)))], [], [])


def test_energies_scale_with_the_form():
    """Unlike u1, the energies scale linearly with the invariant form."""
    from cycloper.chevalley import build_algebra

    base = None
    for scale in (Fraction(1), Fraction(3)):
        g = build_algebra("A1", form_scales=[scale])
        ctx = OperContext(g, ScalarTower.get(1))
        data = BetheSystemData(
            ctx, ctx.varsigma,
            [(1, Coweight((Fraction(1),))), (-1, Coweight((Fraction(1),)))],
            [0], [0],
        )
        E = energies(data)[0]
        if scale == 1:
            base = E
        else:
            # the induced form on weights varies inversely with the scale
            assert E * 3 == base
        rows = energy_oper_identity(data)
        assert all(r["equal"] for r in rows)


def test_lambda0_closed_form_a1():
    """Independent oracle: on A1 with sigma = varsigma the trace weight is
    -(T-1) on the coroot, from sum_r omega^r/(1 - omega^r) = -(T-1)/2."""
    for T in (2, 3, 4, 6):
        ctx = a1(T)
        lam0 = lambda0_weight(ctx.alg, ctx.varsigma, ctx.tower)
        assert lam0.coords[0] == -(T - 1)


def test_lambda0_folded_a2_value():
    """Folded A2, T = 2: only the (nu-fixed) highest root space contributes
    a trace; its varsigma factor is -(sign of nu on that vector), giving
    -1/2 per coroot."""
    ctx = a2_folded(2)
    lam0 = lambda0_weight(ctx.alg, ctx.varsigma, ctx.tower)
    # hand evaluation: tr_n(varsigma^-1 ad_h) = <gamma, h> * (omega^-2 * nu-sign)
    g = ctx.alg
    gamma = (1, 1)
    aut = g.diagram_twist(ctx.nu)
    iG = g.index_E[gamma]
    sign = aut.factor[iG] if aut.image[iG] == iG else None
    assert sign is not None
    expect = Fraction(sign) * g.root_pairing(gamma, 0) / 2
    assert lam0.coords[0] == expect and lam0.coords[1] == expect
    assert expect == Fraction(-1, 2)


# ------------------------------------------------- oracles: the literal sums

def literal_gaudin_sum(data, k, mu):
    """Oracle: sum_r sum_(q, wt) (mu | nu^r wt)/(p - w^r q) over every pole
    w^r q but p itself, plus (mu | lam0)/p, one term per point."""
    alg, K, nu, w = data.ctx.alg, data.ctx.scalars, data.ctx.nu, data.ctx.omega
    p = data.poles[k][0]
    acc = K.zero
    for r in range(data.ctx.tower.order):
        for l, (q, wt) in enumerate(data.poles):
            if r or l != k:
                acc = acc + weight_form(alg, mu, nu_power_weight(nu, wt, r), K) / (p - w ** r * q)
    top = weight_form(alg, mu, data.lam0, K)
    return acc + top / p if top else acc


def literal_lambda0(alg, sigma, tower):
    """Oracle: the trace weight with sigma^-r walked afresh for every r and
    every rank index."""
    T, K, w = tower.order, tower.scalars, tower.zeta
    inv_img = [None] * alg.dim
    inv_fac = [None] * alg.dim
    for i in range(alg.dim):
        inv_img[sigma.image[i]] = i
        inv_fac[sigma.image[i]] = K.one / K.coerce(sigma.factor[i])
    coords = []
    for i in range(alg.rank):
        total = K.zero
        for r in range(1, T):
            tr = K.zero
            for root in alg.pos_roots:
                idx = alg.index_E[root]
                cur, fac = idx, K.one
                for _ in range(r):
                    fac = fac * inv_fac[cur]
                    cur = inv_img[cur]
                if cur == idx and alg.root_pairing(root, i):
                    tr = tr + fac * alg.root_pairing(root, i)
            if tr:
                total = total + tr / (K.one - w ** r)
        coords.append(total)
    return Coweight(coords)


GAUDIN_CONFIGS = (
    [("A1", T, None) for T in (2, 3, 4, 6)]
    + [("A2", T, [[1, 2]]) for T in (2, 4, 6)]
    + [("A3", T, [[1, 3]]) for T in (4, 12)]
    + [("D4", T, [[1, 3, 4]]) for T in (3, 6)]
)


@pytest.mark.parametrize(
    "alg, T, cycles", GAUDIN_CONFIGS, ids=[f"{a}-T{T}" for a, T, _ in GAUDIN_CONFIGS]
)
def test_gaudin_sums_match_the_literal_double_sum(alg, T, cycles):
    """Bethe residuals and energies summed orbit by orbit in closed form
    equal the T-term double sum, for nu of order 1, 2 and 3."""
    rank = int(alg[1:])
    nu = DiagramAut.from_cycles(rank, cycles) if cycles else None
    ctx = OperContext(alg, ScalarTower.get(T), nu)
    rng = random.Random(f"gaudin:{alg}:{T}")
    pts = rng.sample([Fraction(k, q) for k in range(1, 12) for q in (1, 2, 3) if k % q], 4)
    sites = [(z, Coweight(tuple(Fraction(rng.randint(0, 2)) for _ in range(rank)))) for z in pts[:2]]
    colours = [rng.randrange(rank) for _ in pts[2:]]
    data = BetheSystemData(ctx, ctx.varsigma, sites, colours, pts[2:])
    n = len(sites)
    assert bethe_residuals(data) == [
        literal_gaudin_sum(data, n + j, _root_weight(ctx.alg, c)) for j, c in enumerate(colours)
    ]
    assert energies(data) == [literal_gaudin_sum(data, i, lam) for i, (_, lam) in enumerate(sites)]
    assert data.lam0 == literal_lambda0(ctx.alg, ctx.varsigma, ctx.tower)


def test_gaudin_sums_with_a_bethe_root_at_the_origin():
    """T = 1: the root at 0 has no self-term and lam0 = 0, so nothing
    divides by it."""
    for data in (solved_a1(), unsolved_a1()):
        n = len(data.sites)
        assert bethe_residuals(data) == [
            literal_gaudin_sum(data, n + j, _root_weight(data.ctx.alg, c))
            for j, c in enumerate(data.colours)
        ]
        assert energies(data) == [literal_gaudin_sum(data, i, lam) for i, (_, lam) in enumerate(data.sites)]


def test_lambda0_matches_the_walk_per_power():
    """One walk per root gives the trace weight of walking sigma^-r afresh
    for every r, for varsigma and for general tau lists."""
    cases = [(a1(T), None) for T in (2, 3, 4, 6)]
    cases += [(a2_folded(T), None) for T in (2, 4, 6)]
    cases += [(OperContext("D4", ScalarTower.get(T), DiagramAut.from_cycles(4, [[1, 3, 4]])), None)
              for T in (3, 6)]
    ctx = a2_folded(4)
    cases.append((ctx, [ctx.tower.zeta, ctx.tower.zeta]))
    ctx = OperContext("A3", ScalarTower.get(6), DiagramAut.from_cycles(3, [[1, 3]]))
    w = ctx.tower.zeta
    cases.append((ctx, [w, w ** 3, w]))
    for ctx, taus in cases:
        sigma = ctx.varsigma if taus is None else AlgebraAut(ctx.alg, ctx.nu, taus, ctx.tower)
        assert lambda0_weight(ctx.alg, sigma, ctx.tower) == literal_lambda0(ctx.alg, sigma, ctx.tower)


def test_energies_and_lambda_are_computed_once_per_data_object(monkeypatch):
    """energy_oper_identity reuses the energies already computed, and the
    coweight of lambda(t) is read off the dual oper once."""
    from cycloper import bethe

    sums, conversions = [], []

    def counted_sum(*args):
        sums.append(args)
        return _gaudin_sum(*args)

    def counted_conversion(*args):
        conversions.append(args)
        return coroot_to_coweight(*args)

    monkeypatch.setattr(bethe, "_gaudin_sum", counted_sum)
    monkeypatch.setattr(bethe, "coroot_to_coweight", counted_conversion)
    data = solved_a1()
    Es = energies(data)
    rows = energy_oper_identity(data)
    weight_at_infinity(data)
    assert [r["energy"] for r in rows] == Es == energies(data)
    assert len(sums) == len(data.sites)
    assert len(conversions) == 1


# ------------------------------------------- the identity from local expansions

def global_rows(data):
    """The identity's residues read from the global rational functions
    1/2 (lam|lam) - (lam'|rho) and 2 (rho|rho) u_1: the oracle for the
    local Laurent route."""
    from cycloper.canonical import u1_coefficient
    from cycloper.weyl import coweight_to_h, rho_coweight

    lam, m, Lctx = lambda_function(data)
    F, K, alg = Lctx.functions, Lctx.scalars, data.ctx.alg
    rho = rho_coweight(alg.rank)
    lam_d = Coweight([c.derivative() for c in lam.coords])
    integrand = weight_form(alg, lam, lam, F) * F.coerce(Fraction(1, 2)) - weight_form(alg, lam_d, rho, F)
    rho_h = coweight_to_h(Lctx.alg, rho, K)
    u1 = u1_coefficient(m.connection()) * (Lctx.alg.form_vec(rho_h, rho_h, K) * 2)
    out = []
    for (z, _), E in zip(data.sites, energies(data)):
        r1, r2 = K.coerce(integrand.residue_at(z)), K.coerce(u1.residue_at(z))
        out.append({"energy": E, "residue_lambda_squared": r1, "residue_2rr_u1": r2,
                    "equal": E == r1 and r1 == r2})
    return out


def zero_weight_a3_t3():
    """The A3, T = 3 slot of the gaudin benchmark with its one site of
    weight 0, where lambda(t) is regular."""
    ctx = OperContext("A3", ScalarTower.get(3))
    return BetheSystemData(ctx, ctx.varsigma, [(Fraction(2), Coweight((Fraction(0),) * 3))], [], [])


def param_site(alg, cycles):
    """Q(zeta_2)(z)(t): a site at the symbolic z, one at 3, a Bethe root at 5."""
    tw = ScalarTower.get(2, ("z",))
    rank = int(alg[1:])
    ctx = OperContext(alg, tw, DiagramAut.from_cycles(rank, cycles) if cycles else None)
    sites = [(tw.param("z"), Coweight((Fraction(1),) * rank))]
    if rank == 1:
        sites.append((Fraction(3), Coweight((Fraction(2),))))
    return BetheSystemData(ctx, ctx.varsigma, sites, [0], [Fraction(5)])


def test_identity_at_a_zero_weight_site():
    data = zero_weight_a3_t3()
    rows = energy_oper_identity(data)
    assert rows == global_rows(zero_weight_a3_t3())
    assert [[str(r[k]) for k in ("energy", "residue_lambda_squared", "residue_2rr_u1")]
            for r in rows] == [["0", "0", "0"]]
    assert rows[0]["equal"] is True


@pytest.mark.parametrize("alg, cycles", [("A1", None), ("A2", [[1, 2]])], ids=["A1", "A2-folded"])
def test_identity_at_a_symbolic_site(alg, cycles):
    rows = energy_oper_identity(param_site(alg, cycles))
    assert rows == global_rows(param_site(alg, cycles))
    assert all(r["equal"] for r in rows)
    if alg == "A1":
        assert str(rows[0]["residue_2rr_u1"]) == (
            "((-1/4)*z^4 + (-47/2)*z^2 + (-225/4)) / (z^5 + (-34)*z^3 + 225*z)")
        assert str(rows[1]["residue_lambda_squared"]) == "(3/4*z^2 + (-51/4)) / (z^2 + (-9))"


def test_identity_matches_the_global_residues_on_random_configurations():
    rng = random.Random(24)
    for trial in range(6):
        ctx = (OperContext("A2", ScalarTower.get(2), DiagramAut.from_cycles(2, [[1, 2]])) if trial % 3 == 0
               else OperContext("A3", ScalarTower.get(3)) if trial % 3 == 1 else a1(4))
        rank = ctx.alg.rank
        zs = rng.sample([1, 2, 3, Fraction(1, 2), Fraction(5, 3)], 2)
        sites = [(z, Coweight(tuple(Fraction(rng.randint(0, 2)) for _ in range(rank)))) for z in zs]
        xs = rng.sample([Fraction(7), Fraction(7, 2)], rng.randint(0, 2))
        cols = [rng.randrange(rank) for _ in xs]
        rows = energy_oper_identity(BetheSystemData(ctx, ctx.varsigma, sites, cols, xs))
        assert rows == global_rows(BetheSystemData(ctx, ctx.varsigma, sites, cols, xs)), trial
        assert all(r["equal"] for r in rows), trial


def test_identity_catches_a_wrong_constant_term_of_lambda(monkeypatch):
    """Adding 1 to the constant term of the first coordinate of lambda(t),
    expanded at the first site only, moves that site's residue of
    1/2 (lam|lam) - (lam'|rho) and nothing else."""
    from cycloper.ratfunc import RatFunc

    data = solved_a1()
    target, z0 = data.lam.coords[0], data.sites[0][0]
    laurent_at = RatFunc.laurent_at

    def perturbed(f, p, prec):
        out = laurent_at(f, p, prec)
        return out + 1 if f is target and p == z0 else out

    monkeypatch.setattr(RatFunc, "laurent_at", perturbed)
    rows = energy_oper_identity(data)
    assert [r["equal"] for r in rows] == [False, True]
    good = global_rows(solved_a1())
    assert rows[0]["residue_lambda_squared"] != good[0]["residue_lambda_squared"]
    assert rows[0]["residue_2rr_u1"] == good[0]["residue_2rr_u1"]
    assert rows[1] == good[1]


def test_identity_forms_no_global_residue(monkeypatch):
    """The identity reads its residues from local expansions: it neither
    builds u_1 nor asks a rational function for a residue."""
    from cycloper import canonical
    from cycloper.ratfunc import RatFunc

    data = param_site("A1", None)
    data.lam, energies(data)  # built before counting
    calls = []
    u1, residue_at = canonical.u1_coefficient, RatFunc.residue_at
    monkeypatch.setattr(canonical, "u1_coefficient", lambda *a: calls.append("u1") or u1(*a))
    monkeypatch.setattr(RatFunc, "residue_at", lambda *a: calls.append("residue") or residue_at(*a))
    rows = energy_oper_identity(data)
    assert all(r["equal"] for r in rows)
    assert calls == []
