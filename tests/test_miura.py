import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import cycloper
from conftest import fSl3_seed, matrix_log, run_under_O, sl3_context, sl3_miura, sl4_miura, sl4_miura_at
from cycloper.automorphisms import DiagramAut, theta_fixed_nilpotent
from cycloper.connection import GroupElement, gauge_transform, is_equivariant
from cycloper.context import OperContext
from cycloper.errors import (
    CyclotomyObstruction,
    FixedPointViolation,
    MalformedOper,
    NoRationalSolution,
    OrbitCollision,
    RiccatiViolated,
    SeedNotSolution,
    ValidationError,
)
from cycloper.miura import (
    MiuraOper,
    a2_system_residuals,
    _gamma_orbits_disjoint,
    build_miura,
    miura_from_orbits,
    reproduce_generic,
    reproduce_orbit_A1,
    reproduce_orbit_A2,
    reproduce_simple,
    riccati_residual,
    riccati_solve,
    theta_for,
)
from cycloper.ratfunc import INFINITY
from cycloper.tower import ScalarTower
from cycloper.weyl import Coweight, coweight_to_h, rho_coweight


# ---------------------------------------------------------------- build_miura

def test_build_sl3():
    ctx, m = sl3_miura(2, 2)
    F = ctx.functions
    t = F.gen
    # u = -lam0/t: pairings are -eta/t
    assert m.pairing(0) == -F.coerce(2) / t
    assert m.pairing(1) == -F.coerce(2) / t
    assert m.is_cyclotomic()


def test_build_sl4_displayed_coefficients():
    for S, eta, kappa in [(1, 0, 1), (2, 1, 1), (2, 2, 0)]:
        ctx, m = sl4_miura(S, eta, kappa)
        F = ctx.functions
        t = F.gen
        z = F.coerce(ctx.tower.param("z"))
        assert m.pairing(0) == -F.coerce(eta) / t - (S * t ** (S - 1)) / (t ** S - z ** S)
        assert m.pairing(1) == -F.coerce(kappa) / t
        assert m.pairing(2) == -F.coerce(eta) / t - (S * t ** (S - 1)) / (t ** S + z ** S)
        assert m.residue_coweight(0) == Coweight((Fraction(-eta), Fraction(-kappa), Fraction(-eta)))
        assert m.residue_coweight(INFINITY) == Coweight(
            (Fraction(eta + S), Fraction(kappa), Fraction(eta + S))
        )
        assert m.is_cyclotomic()


def test_build_empty():
    ctx = OperContext("A2", ScalarTower.get(1))
    m = build_miura(ctx, Coweight.zero(2))
    assert all(not c for c in m.u_coroot)


def test_orbit_collision():
    ctx = OperContext("A1", ScalarTower.get(2))
    with pytest.raises(OrbitCollision):
        build_miura(
            ctx,
            Coweight((Fraction(1),)),
            sites=[(1, Coweight((Fraction(1),))), (-1, Coweight((Fraction(1),)))],
        )


def literal_miura(ctx, top, poles):
    """Oracle: u(t) = -top/t - sum_r sum_(p, cw) nu^r(cw)/(t - w^r p), one
    term per point w^r p of every orbit; returns (u, points)."""
    alg, K, F, w = ctx.alg, ctx.scalars, ctx.functions, ctx.omega
    u = [F.zero] * alg.rank
    points = []

    def add_pole(cw, at):
        hv = coweight_to_h(alg, cw, K)
        for j in range(alg.rank):
            c = hv[alg.index_H[j]]
            if c:
                u[j] = u[j] - F.coerce(c) / (F.gen - F.coerce(at))
        points.append(at)

    add_pole(top, K.zero)
    for p, cw in poles:
        p = K.coerce(p)
        for r in range(ctx.tower.order):
            add_pole(cw, p * w ** r)
            cw = ctx.nu.apply_coweight(cw)
    return u, tuple(points)


ORBIT_CONFIGS = (
    [("A1", T, None, ()) for T in (1, 2, 3, 4, 6, 12)]
    + [("A2", T, [[1, 2]], ()) for T in (2, 4, 6, 12)]
    + [("D4", T, [[1, 3, 4]], ()) for T in (3, 6, 12)]
    + [("A1", 3, None, ("z",)), ("A2", 6, [[1, 2]], ("z",))]
)


@pytest.mark.parametrize(
    "alg, T, cycles, params", ORBIT_CONFIGS,
    ids=[f"{a}-T{T}" + "".join(f"-{x}" for x in ps) for a, T, _, ps in ORBIT_CONFIGS],
)
def test_miura_from_orbits_matches_the_literal_orbit_sums(alg, T, cycles, params):
    """The closed-form orbit sums give the same u and the same points as
    the T-term sum, for nu of order 1, 2 and 3 (D4 triality), rational
    sites and, over Q(zeta_T)(z), a site at 2z."""
    rank = int(alg[1:])
    nu = DiagramAut.from_cycles(rank, cycles) if cycles else None
    ctx = OperContext(alg, ScalarTower.get(T, params), nu)
    rng = random.Random(f"orbits:{alg}:{T}:{params}")

    def coweight():
        return Coweight(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rank)))

    sites = [Fraction(3, 2), Fraction(-5)]
    if params:
        sites.append(2 * ctx.tower.param("z"))
    top = coweight()
    poles = [(x, coweight()) for x in sites]
    m = miura_from_orbits(ctx, top, poles)
    u, points = literal_miura(ctx, top, poles)
    assert m.u_coroot == u
    assert m.points == points


def test_orbit_collision_names_the_first_earlier_point():
    """Orbits are compared by T-th powers; the message names the first
    earlier point whose orbit meets the new one, as the orbit lists did."""
    ctx = OperContext("A1", ScalarTower.get(3, ("z",)))
    w, z = ctx.omega, ctx.tower.param("z")
    cases = [
        ([5, 2, 2 * w], "2"),
        ([1, 7, w * w, w], "1"),
        ([2 * z, 3, 2 * z * w], str(2 * z)),
        ([z, 2 * z, 3 * z], None),
    ]
    for points, hit in cases:
        if hit is None:
            _gamma_orbits_disjoint(ctx, points)
            continue
        with pytest.raises(OrbitCollision) as err:
            _gamma_orbits_disjoint(ctx, points)
        assert str(err.value) == f"Gamma-orbits collide at {hit}"
    with pytest.raises(OrbitCollision, match="origin"):
        _gamma_orbits_disjoint(ctx, [1, 0], allow_origin=True)
    # T = 1: a Bethe root may sit at the origin, but only once
    one = OperContext("A1", ScalarTower.get(1))
    _gamma_orbits_disjoint(one, [1, 0], allow_origin=True)
    with pytest.raises(OrbitCollision, match="collide at 0"):
        _gamma_orbits_disjoint(one, [0, 1, 0], allow_origin=True)


def test_non_invariant_lam0_rejected():
    ctx, _ = sl3_miura(2, 0)
    with pytest.raises(ValidationError):
        build_miura(ctx, Coweight((Fraction(1), Fraction(0))))


# ---------------------------------------------------------------- riccati

def test_riccati_paper_closed_form_grid():
    """f1 = (eta+1)(S+eta+1) t^eta (t^S - z^S) / ((eta+1)t^{S+eta+1}
    - (S+eta+1) z^S t^{eta+1} + A) over the acceptance grid."""
    for S in (1, 2):
        for eta in (0, 1, 2):
            ctx, m = sl4_miura(S, eta, 1)
            F = ctx.functions
            t = F.gen
            z = F.coerce(ctx.tower.param("z"))
            q1 = m.pairing(0)
            for A in (Fraction(0), Fraction(1)):
                f1 = riccati_solve(q1, "general", constant=A / ((S + eta + 1) * (eta + 1)))
                denom = (
                    F.coerce(eta + 1) * t ** (S + eta + 1)
                    - F.coerce(S + eta + 1) * z ** S * t ** (eta + 1)
                    + F.coerce(A)
                )
                expect = F.coerce((eta + 1) * (S + eta + 1)) * t ** eta * (t ** S - z ** S) / denom
                assert f1 == expect
                assert not riccati_residual(m, 0, f1)


def test_riccati_instantiated_z_grid():
    for S, eta, zval, A in [(1, 0, 1, 1), (2, 1, 2, 0), (2, 2, 1, 1), (1, 2, 2, 0)]:
        T = 2 * S
        ctx = OperContext("A3", ScalarTower.get(T), __import__("cycloper.automorphisms", fromlist=["DiagramAut"]).DiagramAut.from_cycles(3, [[1, 3]]))
        m = build_miura(
            ctx,
            Coweight((Fraction(eta), Fraction(1), Fraction(eta))),
            sites=[(zval, Coweight((Fraction(1), Fraction(0), Fraction(0))))],
        )
        F = ctx.functions
        t = F.gen
        q1 = m.pairing(0)
        f1 = riccati_solve(q1, "general", constant=Fraction(A, (S + eta + 1) * (eta + 1)))
        denom = (
            F.coerce(eta + 1) * t ** (S + eta + 1)
            - F.coerce((S + eta + 1) * zval ** S) * t ** (eta + 1)
            + F.coerce(A)
        )
        assert f1 == F.coerce((eta + 1) * (S + eta + 1)) * t ** eta * (t ** S - zval ** S) / denom


def test_riccati_singular_mode():
    ctx, m = sl4_miura(2, 1, 1)
    q1 = m.pairing(0)
    f = riccati_solve(q1, "singular_at_0")
    pp = f.principal_part_at(ctx.scalars.zero)
    assert len(pp) == 1 and pp[0] == 2  # (eta+1)/t with eta = 1
    assert f == riccati_solve(q1, "general", constant=0)


def test_riccati_rejects_bad_q():
    tw = ScalarTower.get(1)
    t = tw.t
    with pytest.raises(NoRationalSolution):
        riccati_solve(t)  # polynomial part
    with pytest.raises(NoRationalSolution):
        riccati_solve(1 / t ** 2)  # double pole
    with pytest.raises(NoRationalSolution):
        riccati_solve(tw.functions.coerce(Fraction(1, 2)) / t)  # non-integer residue


@pytest.mark.parametrize("make_q", [lambda t: 1 / (t ** 2 + 2), lambda t: 1 / t ** 2, lambda t: 2 / t],
                         ids=["t2+2", "t2", "2_t"])
def test_riccati_checks_the_mode_before_q(make_q):
    """An unknown mode is a ValidationError whatever q is: one q that does
    not split, one with a double pole, one that would solve."""
    q = make_q(ScalarTower.get(1).t)
    with pytest.raises(ValidationError, match="unknown riccati mode 'bogus'"):
        riccati_solve(q, "bogus")


# ---------------------------------------------------------------- simple

def test_reproduce_simple():
    ctx = OperContext("A1", ScalarTower.get(1))
    m = build_miura(ctx, Coweight((Fraction(1),)))
    f = riccati_solve(m.pairing(0), "general", constant=Fraction(1))
    res = reproduce_simple(m, 0, f)
    assert res.new.u_coroot[0] == m.u_coroot[0] + f
    # res_inf rule: <alpha, res_inf + rho> >= 0 and f != 0 => s_k . res_inf
    rb, ra = res.ledger[INFINITY]
    s = ctx.weyl.simple(0)
    assert ra == s.dot(rb)
    with pytest.raises(RiccatiViolated):
        reproduce_simple(m, 0, ctx.functions.gen)


def test_reproduce_simple_zero():
    ctx = OperContext("A1", ScalarTower.get(1))
    m = build_miura(ctx, Coweight((Fraction(1),)))
    res = reproduce_simple(m, 0, ctx.functions.zero)
    assert res.new.u_coroot == m.u_coroot


def test_reproduce_simple_finite_pole_rule():
    """-res -> -s_k.(-res) at a finite pole of f dt."""
    ctx = OperContext("A1", ScalarTower.get(1))
    W = ctx.weyl
    m = build_miura(ctx, Coweight((Fraction(0),)), sites=[(1, Coweight((Fraction(2),)))])
    q = m.pairing(0)
    # with C = -1/3 the solution collapses to f = 3/(t-1): a single pole at
    # the site itself
    f = riccati_solve(q, "general", constant=Fraction(-1, 3))
    t = ctx.functions.gen
    assert f == 3 / (t - 1)
    res = reproduce_simple(m, 0, f)
    s = W.simple(0)
    p = ctx.scalars.one
    before = m.residue_coweight(p)
    after = res.new.residue_coweight(p)
    neg = Coweight([-c for c in before.coords])
    assert Coweight([-c for c in after.coords]) == s.dot(neg)


# ---------------------------------------------------------------- A1 orbits

def test_a1_orbit_acceptance_grid():
    """Regular branch accepted iff eta + 1 = 0 mod T/2 = S; singular always
    (site location instantiated per the acceptance grid)."""
    for S in (1, 2):
        for eta in (0, 1, 2):
            ctx, m = sl4_miura_at(S, eta, 1, 1)
            q1 = m.pairing(0)
            f_reg = riccati_solve(q1, "general", constant=Fraction(1))
            ok = (eta + 1) % S == 0
            if ok:
                res = reproduce_orbit_A1(m, (0, 2), 0, f_reg, "regular")
                assert res.cyclotomic
                rb, ra = res.ledger[ctx.scalars.zero]
                assert rb == ra
            else:
                with pytest.raises(CyclotomyObstruction):
                    reproduce_orbit_A1(m, (0, 2), 0, f_reg, "regular")
            f_sing = riccati_solve(q1, "singular_at_0")
            res = reproduce_orbit_A1(m, (0, 2), 0, f_sing, "singular")
            assert res.cyclotomic
            snu = ctx.folded.simple_reflections[ctx.folded.orbit_index(0)]
            rb, ra = res.ledger[ctx.scalars.zero]
            assert Coweight([-c for c in ra.coords]) == snu.dot(Coweight([-c for c in rb.coords]))
            rb, ra = res.ledger[INFINITY]
            assert ra == snu.dot(rb)


def test_a1_orbit_equivariance_is_the_functional_relation():
    """The closing relation on f_k holds iff the assembled g is equivariant
    (tested for T in {2,4}, eta in {0,1,2})."""
    for S in (1, 2):
        for eta in (0, 1, 2):
            ctx, m = sl4_miura_at(S, eta, 0, 2)
            q1 = m.pairing(0)
            for const in (Fraction(0), Fraction(1)):
                f1 = riccati_solve(q1, "general", constant=const)
                K = ctx.scalars
                w = ctx.omega
                wS = w ** 2
                closes = f1.subs_scale(K.one / wS) * (K.one / wS) == f1
                # assemble g by the recursion and compare
                f3 = f1.subs_scale(K.one / w) * (K.one / w)
                F = ctx.functions
                alg = ctx.alg
                v1 = [f1 * c for c in alg.vec_E(alg.simple_root(0), F)]
                v3 = [f3 * c for c in alg.vec_E(alg.simple_root(2), F)]
                g = GroupElement.exp(ctx, v1) @ GroupElement.exp(ctx, v3)
                assert is_equivariant((ctx, matrix_log(g)), ctx.varsigma) == closes


def test_a1_orbit_gauge_reassembly():
    # symbolic z kept here: one full symbolic-site reproduction
    ctx, m = sl4_miura(2, 1, 1)
    f = riccati_solve(m.pairing(0), "general", constant=Fraction(1))
    res = reproduce_orbit_A1(m, (0, 2), 0, f, "regular")
    out = gauge_transform(m.connection(), GroupElement.exp(ctx, res.gauge))
    assert all(a == b for a, b in zip(out.coeffs, res.new.connection().coeffs))
    assert is_equivariant((ctx, res.gauge), ctx.varsigma)


# ---------------------------------------------------------------- A2 orbits

def test_a2_seed_verification_grid():
    ctx, m = sl3_miura(4, 1)
    for abc in [(1, 2, 3), (Fraction(1, 2), -1, 2), (-2, 3, Fraction(5, 2)), (0, 1, -1)]:
        seed = fSl3_seed(ctx, 2, *abc)
        assert not any(a2_system_residuals(m, 0, 1, *seed))
    bad = list(fSl3_seed(ctx, 2, 1, 1, 0))
    bad[0] = bad[0] + 1
    with pytest.raises(SeedNotSolution):
        reproduce_orbit_A2(m, (0, 1), 0, seed=tuple(bad))


def test_a2_three_cyclotomy_cases():
    # omega^mu = 1: T=2, eta=1, a=b, c=0
    ctx, m = sl3_miura(2, 1)
    r = reproduce_orbit_A2(m, (0, 1), 0, seed=fSl3_seed(ctx, 2, 3, 3, 0), branch="regular")
    assert r.cyclotomic
    rb, ra = r.ledger[ctx.scalars.zero]
    assert rb == ra
    # omega^mu = -1: T=2, eta=0, a=-b, c=0
    ctx, m = sl3_miura(2, 0)
    r = reproduce_orbit_A2(m, (0, 1), 0, seed=fSl3_seed(ctx, 1, 2, -2, 0), branch="regular")
    assert r.cyclotomic
    # omega^{2mu} = -1: T=4, eta=0, a=b=0 (the displayed third-case functions)
    ctx, m = sl3_miura(4, 0)
    seed = fSl3_seed(ctx, 1, 0, 0, 1)
    F = ctx.functions
    t = F.gen
    c = F.one
    D = c * t ** 4 - F.coerce(4)
    assert seed[0] == 2 * t ** 3 / D
    assert seed[1] == -4 * t / D
    assert seed[2] == -4 * c / D
    r = reproduce_orbit_A2(m, (0, 1), 0, seed=seed, branch="regular")
    assert r.cyclotomic


def test_a2_rejects_other_cases():
    ctx, m = sl3_miura(8, 0)
    for abc in [(1, 1, 0), (1, -1, 0), (0, 0, 1)]:
        with pytest.raises(CyclotomyObstruction):
            reproduce_orbit_A2(m, (0, 1), 0, seed=fSl3_seed(ctx, 1, *abc), branch="regular")


def test_a2_singular_always_cyclotomic():
    for T, eta in [(2, 0), (4, 0), (8, 0), (2, 1), (4, 1), (8, 2)]:
        ctx, m = sl3_miura(T, eta)
        F = ctx.functions
        mu = eta + 1
        seed = (F.coerce(2 * mu) / F.gen, F.zero, F.zero)
        r = reproduce_orbit_A2(m, (0, 1), 0, seed=seed, branch="singular")
        assert r.cyclotomic and r.branch == "singular-at-0"
        snu = ctx.folded.simple_reflections[0]
        rb, ra = r.ledger[ctx.scalars.zero]
        assert Coweight([-c for c in ra.coords]) == snu.dot(Coweight([-c for c in rb.coords]))


@pytest.mark.parametrize("eta", [0, 1])
def test_a2_orbit_of_four_nodes_transports_the_seed(eta):
    """A2 x A2 with nu = (1 3 2 4) at T = 4: one A2-type orbit with |I|/2 = 2.
    The singular seed at the pair (1, 2) is transported to (3, 4); every
    coordinate of u gains 2 mu / t and -res_0 moves by the folded reflection."""
    ctx = OperContext("A2xA2", ScalarTower.get(4), DiagramAut.from_cycles(4, [[1, 3, 2, 4]]))
    F = ctx.functions
    m = build_miura(ctx, Coweight((Fraction(eta),) * 4))
    mu = eta + 1
    seed = (F.coerce(2 * mu) / F.gen, F.zero, F.zero)
    r = reproduce_orbit_A2(m, (0, 2, 1, 3), 0, seed=seed, branch="singular")
    assert r.cyclotomic and r.new.is_cyclotomic() and r.branch == "singular-at-0"
    assert [a - b for a, b in zip(r.new.u_coroot, m.u_coroot)] == [F.coerce(2 * mu) / F.gen] * 4
    snu = ctx.folded.simple_reflections[0]
    rb, ra = r.ledger[ctx.scalars.zero]
    assert Coweight([-c for c in ra.coords]) == snu.dot(Coweight([-c for c in rb.coords]))


def test_a2_orbit_must_hold_k():
    """On A2 x A2 with nu = (1 3 2 4) the A2-type reproduction checks the
    orbit it is given, as the A1-type one does: neither (1 2) nor a missing
    orbit is the orbit of node 1."""
    ctx = OperContext("A2xA2", ScalarTower.get(4), DiagramAut.from_cycles(4, [[1, 3, 2, 4]]))
    F = ctx.functions
    m = build_miura(ctx, Coweight((Fraction(0),) * 4))
    seed = (F.coerce(2) / F.gen, F.zero, F.zero)
    for orbit in ((0, 1), None):
        with pytest.raises(ValidationError, match="does not belong to the given orbit"):
            reproduce_orbit_A2(m, orbit, 0, seed=seed, branch="singular")


def test_a2_singular_with_symbolic_lam0_is_typed():
    """The singular class check reads <alpha_k, lam0> as a rational; a
    symbolic lam0 is a ValidationError that says to bind it."""
    ctx = OperContext("A2", ScalarTower.get(2, ("eta",)), DiagramAut.from_cycles(2, [[1, 2]]))
    F = ctx.functions
    eta = ctx.scalars.coerce(ctx.tower.param("eta"))
    m = build_miura(ctx, Coweight((eta, eta)))
    seed = (F.coerce(2 * (eta + 1)) / F.gen, F.zero, F.zero)
    with pytest.raises(ValidationError, match="--instantiate"):
        reproduce_orbit_A2(m, (0, 1), 0, seed=seed, branch="singular")


def test_a2_singular_is_parameter_limit():
    """The singular solution is the a -> infinity limit of case 1; directly:
    its seed solves the system and exp(2mu/t (E1+E2)) is always equivariant."""
    ctx, m = sl3_miura(4, 1)
    F = ctx.functions
    mu = 2
    seed = (F.coerce(2 * mu) / F.gen, F.zero, F.zero)
    assert not any(a2_system_residuals(m, 0, 1, *seed))
    alg = ctx.alg
    v = [seed[0] * (a + b) for a, b in zip(alg.vec_E(alg.simple_root(0), F), alg.vec_E(alg.simple_root(1), F))]
    assert is_equivariant((ctx, v), ctx.varsigma)


# ---------------------------------------------------------------- generic

def test_generic_reproduction_round_trip():
    ctx, m = sl3_miura(2, 1)
    F = ctx.functions
    alg = ctx.alg
    E1 = alg.vec_E(alg.simple_root(0), F)
    E2 = alg.vec_E(alg.simple_root(1), F)
    for aval in (Fraction(1), Fraction(-2), Fraction(1, 3)):
        g0 = [aval * (x + y) for x, y in zip(E1, E2)]
        res = reproduce_generic(m, g0)
        assert res.cyclotomic
        rb, ra = res.ledger[ctx.scalars.zero]
        assert rb == ra
        # matches the A2-orbit closed form with a = b = aval, c = 0
        seed = fSl3_seed(ctx, 2, aval, aval, 0)
        direct = reproduce_orbit_A2(m, (0, 1), 0, seed=seed, branch="regular")
        assert res.new.u_coroot == direct.new.u_coroot


def test_generic_rejects_nonfixed_g0():
    ctx, m = sl3_miura(2, 1)
    F = ctx.functions
    alg = ctx.alg
    with pytest.raises(FixedPointViolation):
        reproduce_generic(m, alg.vec_E(alg.simple_root(0), F))


def test_generic_injectivity_on_grid():
    """Distinct g0 on the fixed locus give distinct Miura opers."""
    ctx, m = sl3_miura(2, 1)
    F = ctx.functions
    alg = ctx.alg
    E1 = alg.vec_E(alg.simple_root(0), F)
    E2 = alg.vec_E(alg.simple_root(1), F)
    seen = []
    for aval in (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)):
        res = reproduce_generic(m, [aval * (x + y) for x, y in zip(E1, E2)])
        key = tuple(res.new.u_coroot)
        assert key not in seen
        seen.append(key)


def test_generic_half_integral_cover():
    """lam0 with pairing 1/2: the q = 2 cover route descends to rational
    data (the omega^{2mu} = -1 window)."""
    ctx = OperContext(
        "A2", ScalarTower.get(2),
        __import__("cycloper.automorphisms", fromlist=["DiagramAut"]).DiagramAut.from_cycles(2, [[1, 2]]),
    )
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    hv = coweight_to_h(alg, Coweight((Fraction(1, 2), Fraction(1, 2))), F)
    m = MiuraOper(ctx, [-hv[alg.index_H[j]] / t for j in range(alg.rank)])
    assert m.is_cyclotomic()
    E1 = alg.vec_E(alg.simple_root(0), F)
    E2 = alg.vec_E(alg.simple_root(1), F)
    E12 = alg.bracket_vec(E1, E2, F)
    res = reproduce_generic(m, [Fraction(1) * x for x in E12])
    assert res.cover_power == 2 and res.cyclotomic
    rb, ra = res.ledger[ctx.scalars.zero]
    assert rb == ra
    # closed form of the third window with mu = 3/2, c = 1: only t^{2mu}
    # appears, so the result is rational in t
    mu = Fraction(3, 2)
    D = t ** 6 - F.coerce(4 * mu ** 4)
    f1 = 2 * mu * t ** 5 / D
    f2 = -F.coerce(4 * mu ** 3) * t ** 2 / D
    assert res.new.u_coroot[0] == m.u_coroot[0] + f1 + f2
    assert res.new.u_coroot[1] == m.u_coroot[1] + f1 - f2


def _half_integral_miura():
    ctx = sl3_context(2)
    F = ctx.functions
    alg = ctx.alg
    hv = coweight_to_h(alg, Coweight((Fraction(1, 2), Fraction(1, 2))), F)
    return ctx, MiuraOper(ctx, [-hv[alg.index_H[j]] / F.gen for j in range(alg.rank)])


@pytest.mark.parametrize(
    "T,eta",
    [(T, eta) for T in (2, 4) for eta in (0, 1, 2)] + [(2, Fraction(1, 2))],
    ids=str,
)
def test_generic_gauge_on_vectors_matches_matrix_route(T, eta):
    """reproduce_generic gauges by g = t^lam n t^-lam on its log; the matrix
    route conjugates n by the torus (and descends from the cover)."""
    if eta == Fraction(1, 2):
        ctx, m = _half_integral_miura()
    else:
        ctx, m = sl3_miura(T, eta)
    F = ctx.functions
    q = 2 if eta == Fraction(1, 2) else 1
    basis, _ = theta_fixed_nilpotent(ctx.alg, theta_for(m))
    res = reproduce_generic(m, [Fraction(-3, 2) * x for x in basis[0]])
    assert res.cover_power == q
    lam0 = Coweight([-c for c in m.residue_coweight(0).coords])
    ctx2 = ctx.cover(q) if q > 1 else ctx
    torus = GroupElement.torus(ctx2, Coweight([-c * q for c in lam0.coords]))
    gtil = torus.inverse() @ GroupElement.exp(ctx2, res.factor_n) @ torus
    want = gtil.mat.map_entries(lambda f: f.descend_power(q, F)) if q > 1 else gtil.mat
    g = GroupElement.exp(ctx, res.gauge)
    assert g.mat == want
    out = gauge_transform(m.connection(), g)
    assert out.coeffs == res.new.connection().coeffs


def _two_site_miura():
    ctx = OperContext("A1", ScalarTower.get(2))
    return ctx, build_miura(ctx, Coweight((Fraction(1),)), sites=[(3, Coweight((Fraction(2),)))])


@pytest.mark.parametrize(
    "case",
    [(T, eta) for T in (2, 4) for eta in (0, 1, 2)] + [(2, Fraction(1, 2)), "sites"],
    ids=lambda c: c if isinstance(c, str) else f"T{c[0]}-eta{c[1]}",
)
def test_generic_factor_matches_the_column_route(case, column_route):
    """The factor n of Y g0^-1, solved from the inverse action with one
    unknown per positive root, equals the b_- column route's entry by
    entry: on the six A2 slots of the reproduce benchmark, the
    half-integral cover and the two-site instance, two g0 each."""
    if case == "sites":
        ctx, m = _two_site_miura()
    elif case[1] == Fraction(1, 2):
        ctx, m = _half_integral_miura()
    else:
        ctx, m = sl3_miura(*case)
    basis, _ = theta_fixed_nilpotent(ctx.alg, theta_for(m))
    for g0 in ([sum(xs) for xs in zip(*basis)], [Fraction(-3, 2) * x for x in basis[-1]]):
        column_route(reproduce_generic(m, g0), g0)


@pytest.mark.parametrize("label", ["A2", "A3"])
def test_generic_reproduction_runs_one_square_solve_per_positive_root(label, monkeypatch):
    """The generic factor is one |n| x |n| solve: no b_- columns."""
    import cycloper.solve as solve_mod

    ctx, m = sl3_miura(2, 1) if label == "A2" else sl4_miura_at(1, 1, 1, 3)
    basis, _ = theta_fixed_nilpotent(ctx.alg, theta_for(m))
    calls = []
    real = solve_mod.solve_square

    def counted(K, A, b):
        calls.append((len(A), {len(r) for r in A}, len(b)))
        return real(K, A, b)

    monkeypatch.setattr(solve_mod, "solve_square", counted)
    reproduce_generic(m, [sum(xs) for xs in zip(*basis)])
    n = len(ctx.alg.pos_roots)
    assert calls == [(n, {n}, n)]


def test_generic_certificate_failure_is_typed(monkeypatch):
    """A factor n whose value at 0 is not g0 fails the initial-value
    certificate with a typed error, not an assert."""
    import cycloper.miura as miura_mod

    real = miura_mod.gauss_factorize

    def broken(ctx, act):
        return [2 * x for x in real(ctx, act)]

    monkeypatch.setattr(miura_mod, "gauss_factorize", broken)
    ctx, m = sl3_miura(2, 1)
    F = ctx.functions
    alg = ctx.alg
    E1 = alg.vec_E(alg.simple_root(0), F)
    E2 = alg.vec_E(alg.simple_root(1), F)
    with pytest.raises(MalformedOper, match="g_r"):
        reproduce_generic(m, [x + y for x, y in zip(E1, E2)])


def _reuse_case(case):
    """(a fresh oper, three vartheta-fixed g0) for the reuse test."""
    if case == "sites":
        ctx, m = _two_site_miura()
    elif case == "cover":
        ctx, m = _half_integral_miura()
    else:
        ctx, m = sl3_miura(2, 1)
    basis, _ = theta_fixed_nilpotent(ctx.alg, theta_for(m))
    return m, [[c * x for x in basis[0]] for c in (Fraction(1), Fraction(-3, 2), Fraction(2))]


@pytest.mark.parametrize("case", ["A2-T2", "cover", "sites"])
def test_generic_half_is_solved_once_per_oper(case, monkeypatch):
    """Three g0 in two orders on one MiuraOper give what a fresh oper per
    g0 gives; the fundamental solution is solved once per oper object,
    while the read check and the reassembly run on every call; an oper
    made by dataclasses.replace solves its own."""
    import dataclasses

    import cycloper.miura as miura_mod
    import cycloper.solve as solve_mod

    def fields(res):
        return res.gauge, res.new.u_coroot, res.ledger, res.factor_n

    m, g0s = _reuse_case(case)
    fresh = [fields(reproduce_generic(_reuse_case(case)[0], g0)) for g0 in g0s]
    calls = {"solve_fundamental": 0, "_checked_log": 0, "_reproduced": 0}
    for mod, name in ((miura_mod, "solve_fundamental"), (solve_mod, "_checked_log"),
                      (miura_mod, "_reproduced")):
        def counted(*args, _real=getattr(mod, name), _name=name, **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(mod, name, counted)
    for order in (range(3), reversed(range(3))):
        for i in order:
            assert fields(reproduce_generic(m, g0s[i])) == fresh[i]
    assert calls == {"solve_fundamental": 1, "_checked_log": 6, "_reproduced": 6}
    copy = dataclasses.replace(m)
    assert fields(reproduce_generic(copy, g0s[1])) == fresh[1]
    assert calls["solve_fundamental"] == 2
    assert copy.generic_half is not m.generic_half


def test_generic_rejects_a_t_dependent_g0_before_solving(monkeypatch):
    """A non-constant entry of g0 is a FixedPointViolation (exit 11) that
    names the entry, raised before the oper's fundamental solution."""
    import cycloper.miura as miura_mod

    def unreachable(*args, **kw):
        raise AssertionError("solve_fundamental ran for a t-dependent g0")

    monkeypatch.setattr(miura_mod, "solve_fundamental", unreachable)
    ctx, m = sl3_miura(2, 1)
    F = ctx.functions
    alg = ctx.alg
    E1 = alg.vec_E(alg.simple_root(0), F)
    E2 = alg.vec_E(alg.simple_root(1), F)
    with pytest.raises(FixedPointViolation, match=r"constant: its E\[0, 1\] entry is t\^2 \+ 1") as info:
        reproduce_generic(m, [(1 + F.gen ** 2) * (x + y) for x, y in zip(E1, E2)])
    assert info.value.exit_code == 11
    assert "generic_half" not in vars(m)


def test_generic_errors_keep_their_order(monkeypatch):
    """lam0 errors, then g0 errors, then the MonodromyObstruction of the
    fundamental solution, which is solved once and raised on every call."""
    import cycloper.miura as miura_mod
    from cycloper.errors import MonodromyObstruction

    real = miura_mod.solve_fundamental
    calls = []

    def counted(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(miura_mod, "solve_fundamental", counted)
    ctx = OperContext("A1", ScalarTower.get(1))
    F = ctx.functions
    E = ctx.alg.vec_E(ctx.alg.simple_root(0), F)
    # the half-integral site residue obstructs the torus part of Y
    m = build_miura(ctx, Coweight((Fraction(1),)), sites=[(3, Coweight((Fraction(1, 2),)))])
    with pytest.raises(FixedPointViolation, match="unipotent"):
        reproduce_generic(m, [F.one] * ctx.alg.dim)
    assert not calls
    for _ in range(2):
        with pytest.raises(MonodromyObstruction, match="res_"):
            reproduce_generic(m, E)
    assert len(calls) == 1
    with pytest.raises(FixedPointViolation, match="constant"):
        reproduce_generic(m, [F.gen * x for x in E])
    bad = build_miura(ctx, Coweight((Fraction(-1),)), sites=[(3, Coweight((Fraction(1, 2),)))])
    with pytest.raises(ValidationError, match="dominant"):
        reproduce_generic(bad, [F.gen * x for x in E])


def test_generic_reproduction_with_sites():
    """The factorisation route on a two-pole instance: the fundamental
    solution picks up a torus factor from the site residues."""
    ctx, m = _two_site_miura()
    K = ctx.scalars
    assert m.is_cyclotomic()
    F = ctx.functions
    alg = ctx.alg
    E = alg.vec_E(alg.simple_root(0), F)
    for c in (Fraction(1), Fraction(-3)):
        res = reproduce_generic(m, [c * x for x in E])
        assert res.cyclotomic
        rb, ra = res.ledger[K.zero]
        assert rb == ra
        out = gauge_transform(m.connection(), GroupElement.exp(ctx, res.gauge))
        assert all(a == b for a, b in zip(out.coeffs, res.new.connection().coeffs))
        # residues at the site orbit move inside the shifted W-orbit of lam_1
        from cycloper.weyl import linkage_equal

        site_res = Coweight([-x for x in res.new.residue_coweight(ctx.scalars.coerce(3)).coords])
        assert linkage_equal(ctx.weyl, Coweight((Fraction(2),)), site_res)


def test_vector_reproductions_build_no_adjoint_matrix(monkeypatch):
    """The simple, A1-orbit and A2-orbit reproductions return their gauge
    as its log and check it by the Lie series, and a big-cell flag
    position is read off that log: none of them builds exp(ad X).  Nor
    does the generic route, which builds no matrix at all: it solves the
    Gauss factor of Y g0^-1 from the inverse action e^{ad X0} e^{-ad Z}
    on Lie vectors."""
    import cycloper.connection as connection
    from cycloper.linalg import SparseMat
    from cycloper.flags import flag_position

    ctx1 = OperContext("A1", ScalarTower.get(1))
    m1 = build_miura(ctx1, Coweight((Fraction(1),)))
    f1 = riccati_solve(m1.pairing(0), "general", constant=Fraction(1))
    _, m4 = sl4_miura_at(1, 0, 1, 1)
    f4 = riccati_solve(m4.pairing(0), "general", constant=Fraction(1))
    ctx3, m3 = sl3_miura(4, 1)
    seed = fSl3_seed(ctx3, 2, 2, -2, 0)
    calls = []
    real = connection._exp_ad

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(connection, "_exp_ad", counted)
    reproduce_simple(m1, 0, f1)
    reproduce_orbit_A1(m4, (0, 2), 0, f4, "regular")
    res = reproduce_orbit_A2(m3, (0, 1), 0, seed=seed, branch="regular")
    fp = flag_position(m3, res.gauge)
    assert fp.w.length == 0 and fp.coordinates
    assert not calls
    basis, _ = theta_fixed_nilpotent(ctx3.alg, theta_for(m3))
    built = []
    real_init = SparseMat.__init__

    def counted_init(self, *args, **kw):
        built.append(args)
        real_init(self, *args, **kw)

    monkeypatch.setattr(SparseMat, "__init__", counted_init)
    reproduce_generic(m3, basis[0])
    assert not calls and not built


def _one_reproduction(route):
    """A reproduction along each route, as a thunk: simple on A1, an A1-type
    orbit of A3 with nu = (1 3) at T = 2, an A2-type orbit of A2 at T = 4,
    and the generic route on A2 at T = 2."""
    if route == "simple":
        ctx = OperContext("A1", ScalarTower.get(1))
        m = build_miura(ctx, Coweight((Fraction(1),)))
        f = riccati_solve(m.pairing(0), "general", constant=Fraction(1))
        return lambda: reproduce_simple(m, 0, f)
    if route == "A1-orbit":
        _, m = sl4_miura_at(1, 0, 1, 1)
        f = riccati_solve(m.pairing(0), "general", constant=Fraction(1))
        return lambda: reproduce_orbit_A1(m, (0, 2), 0, f, "regular")
    if route == "A2-orbit":
        ctx, m = sl3_miura(4, 1)
        seed = fSl3_seed(ctx, 2, 2, -2, 0)
        return lambda: reproduce_orbit_A2(m, (0, 1), 0, seed=seed, branch="regular")
    ctx, m = sl3_miura(2, 1)
    basis, _ = theta_fixed_nilpotent(ctx.alg, theta_for(m))
    return lambda: reproduce_generic(m, basis[0])


@pytest.mark.parametrize("route", ["simple", "A1-orbit", "A2-orbit", "generic"])
def test_gauge_reassembly_failure_is_typed(route, monkeypatch):
    """Every route builds its new Miura oper independently of the series, so
    a gauge action that returns the old connection unchanged fails the
    reassembly check with MalformedOper."""
    import cycloper.miura as miura_mod

    run = _one_reproduction(route)
    run()
    monkeypatch.setattr(miura_mod, "exp_gauge", lambda ctx, X, A, dX=None: A)
    with pytest.raises(MalformedOper, match="reassembly"):
        run()


_FRAME_CHECKS = """
import cycloper.miura as miura
from conftest import sl3_miura
from cycloper.automorphisms import theta_fixed_nilpotent
from cycloper.errors import MalformedOper

ctx, m = sl3_miura(2, 1)
alg, F = ctx.alg, ctx.functions
t = F.gen
basis, _ = theta_fixed_nilpotent(alg, miura.theta_for(m))
X = miura.reproduce_generic(m, basis[0]).gauge
for r in ((1, 0), (1, 1)):
    moved = list(X)
    moved[alg.index_E[r]] = moved[alg.index_E[r]] + 1 / t
    try:
        miura._reproduced(m, moved)
        raise SystemExit(f"X at {r} moved by 1/t: no error")
    except MalformedOper:
        pass
real = miura.torus_frame

def wrong_tau(ctx, v):
    Y, spow = real(ctx, v)
    k = alg.index_E[(1, 0)]
    return Y, spow[:k] + [spow[k] * (t - 5)] + spow[k + 1:]

miura.torus_frame = wrong_tau
try:
    miura._reproduced(m, X)
    raise SystemExit("tau_1 times (t - 5): no error")
except MalformedOper:
    pass
finally:
    miura.torus_frame = real
"""


def test_frame_check_catches_a_moved_log_and_a_wrong_tau():
    """The reassembly check in the torus frame rejects the generic gauge
    with one X_alpha moved by 1/t (a simple root and the highest one), and
    the right gauge proved with tau_1 replaced by tau_1 (t - 5): the frame
    is a proof, not a rewrite that any data pass."""
    exec(_FRAME_CHECKS, {})


def test_frame_check_survives_python_O():
    """The same two rejections raise MalformedOper under python -O."""
    tests = os.path.dirname(os.path.abspath(__file__))
    run = run_under_O(f"import sys; sys.path.insert(0, {tests!r})\n" + _FRAME_CHECKS)
    assert run.returncode == 0, run.stdout + run.stderr


@pytest.mark.parametrize("label, T, cycles", [("G2", 1, []), ("D4", 3, [[1, 3, 4]])], ids=["G2-T1", "D4-T3"])
def test_frame_checks_run_no_t_level_gcd(label, T, cycles, monkeypatch):
    """The reassembly series of _reproduced and the read check of
    gauss_factorize run on polynomials in the torus frame: no gcd of the
    ring in t, and no cached gcd of two non-constant polynomials, inside
    either; the frame's set-up and map back still run them."""
    import cycloper.miura as miura_mod
    import cycloper.solve as solve_mod

    rank = int(label[1:])
    ctx = OperContext(label, ScalarTower.get(T), DiagramAut.from_cycles(rank, cycles))
    m = build_miura(ctx, Coweight((Fraction(1),) * rank))
    basis, _ = theta_fixed_nilpotent(ctx.alg, theta_for(m))
    F = ctx.functions
    R = F.ring
    calls, inside = [], []
    real_gcd, real_cached_gcd = R.gcd, F.cached_gcd

    def gcd(a, b):
        calls.append(bool(inside))
        return real_gcd(a, b)

    def cached_gcd(a, b):
        if len(a) > R.width and len(b) > R.width:
            calls.append(bool(inside))
        return real_cached_gcd(a, b)

    def tracked(real):
        def run(*args, **kw):
            inside.append(True)
            try:
                return real(*args, **kw)
            finally:
                inside.clear()
        return run

    monkeypatch.setattr(R, "gcd", gcd)
    monkeypatch.setattr(F, "cached_gcd", cached_gcd)
    monkeypatch.setattr(miura_mod, "exp_gauge", tracked(miura_mod.exp_gauge))
    monkeypatch.setattr(solve_mod, "_checked_log", tracked(solve_mod._checked_log))
    res = reproduce_generic(m, [sum(xs) for xs in zip(*basis)])
    assert res.cyclotomic and False in calls
    assert True not in calls


_TYPED_CHECKS_UNDER_O = """
from fractions import Fraction
import cycloper.chevalley as chevalley
import cycloper.miura as miura
from cycloper.context import OperContext
from cycloper.errors import MalformedOper
from cycloper.tower import ScalarTower
from cycloper.weyl import Coweight

ctx = OperContext("A1", ScalarTower.get(1))
m = miura.build_miura(ctx, Coweight((Fraction(1),)))
f = miura.riccati_solve(m.pairing(0), "general", constant=Fraction(1))
miura.exp_gauge = lambda ctx, X, A, dX=None: A
try:
    miura.reproduce_simple(m, 0, f)
    raise SystemExit("reproduce_simple: no error")
except MalformedOper:
    pass
alg = chevalley.build_algebra("A2")
chevalley.mat_inverse = lambda K, M: None
try:
    alg.split_data(1)
    raise SystemExit("split_data: no error")
except MalformedOper:
    pass
"""


def test_typed_checks_survive_python_O():
    """The reassembly and graded-splitting checks raise MalformedOper, so
    they still run when python -O strips assert statements."""
    src = os.path.dirname(os.path.dirname(cycloper.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-O", "-c", _TYPED_CHECKS_UNDER_O],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr


_RULE_CHECKS_UNDER_O = """
from fractions import Fraction
import cycloper.miura as miura
from cycloper.context import OperContext
from cycloper.errors import MalformedOper
from cycloper.tower import ScalarTower
from cycloper.weyl import Coweight

ctx = OperContext("A1", ScalarTower.get(1))
m = miura.build_miura(ctx, Coweight((Fraction(1),)))
f = miura.riccati_solve(m.pairing(0), "general", constant=Fraction(1))
# the reproduction moves res_inf by s_1; claiming it stayed must fail
try:
    miura._check_simple_rules(ctx, m, m, 0, f)
    raise SystemExit("res_inf rule: no error")
except MalformedOper:
    pass
r0 = m.residue_coweight(0)
try:
    miura._check_res0_rule(r0, r0 + r0, ctx.weyl.simple(0), False)
    raise SystemExit("res_0 rule: no error")
except MalformedOper:
    pass
"""


def test_residue_rules_survive_python_O():
    """The residue bookkeeping of the reproductions raises MalformedOper,
    also under python -O."""
    run = run_under_O(_RULE_CHECKS_UNDER_O)
    assert run.returncode == 0, run.stdout + run.stderr


def test_zero_miura_oper_pairs_in_its_field(tmp_path):
    """u = 0: pairing(0) is the zero of F (not Fraction(0)), and the CLI
    reproduces along the simple root 1."""
    ctx = OperContext("A1", ScalarTower.get(1))
    F = ctx.functions
    q = MiuraOper(ctx, [F.zero]).pairing(0)
    assert type(q) is type(F.zero) and q == F.zero
    prob = tmp_path / "zero_a1.json"
    prob.write_text('{"algebra": "A1", "T": 1, "lambda0": ["0"]}')
    src = os.path.dirname(os.path.dirname(cycloper.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "cycloper", "--problem", str(prob), "--command", "reproduce", "--orbit", "1"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr


def test_a2_cover_route_answers_are_pinned():
    """A2 at T = 2 with lam0 = (1/2, 1/2) goes through the cover t = u^2,
    where no q = 1 substitution applies: its answers for two g0 stay as
    recorded (new u, the gauge and the flag position)."""
    from cycloper.flags import flag_position

    ctx, m = sl3_miura(2, Fraction(1, 2))
    (b,), _ = theta_fixed_nilpotent(ctx.alg, theta_for(m))
    want = {
        1: (["(5/2*t^3 + 9/4) / (t^4 + (-9/2)*t)", "(5/2*t^3 + (-9/4)) / (t^4 + 9/2*t)"],
            "3*t^2 / (t^3 + 9/2)", "3*t^2 / (t^3 + (-9/2))", "(-81/4)*t / (t^6 + (-81/4))", "1"),
        Fraction(-3, 2): (["(5/2*t^3 + (-3/2)) / (t^4 + 3*t)", "(5/2*t^3 + 3/2) / (t^4 + (-3)*t)"],
                          "3*t^2 / (t^3 + (-3))", "3*t^2 / (t^3 + 3)", "27/2*t / (t^6 + (-9))", "-3/2"),
    }
    for c, (u, *gauge, coord) in want.items():
        res = reproduce_generic(m, [c * x for x in b])
        assert res.cover_power == 2
        assert [str(x) for x in res.new.u_coroot] == u
        assert [str(x) for x in res.gauge] == ["0"] * 5 + gauge
        assert repr(flag_position(m, res.gauge)) == f"FlagPoint(w=W<e>, coords={{(1, 1): '{coord}'}})"
