import random
from fractions import Fraction

import pytest

from conftest import matrix_log, run_under_O, sl3_context, sl4_miura
from cycloper.canonical import (
    canonical_representative,
    classify_general_form,
    is_regular_at,
    oper_residue,
    regularity_condition,
    residue_class_of_coweight,
    u1_coefficient,
)
from cycloper.connection import Connection, GroupElement, gauge_transform, is_equivariant
from cycloper.context import OperContext
from cycloper.errors import MalformedOper, NotOfForm
from cycloper.finite_opers import FiniteOperClass
from cycloper.ratfunc import INFINITY
from cycloper.tower import ScalarTower
from cycloper.weyl import Coweight, coweight_to_h


def sl3_nabla(ctx, eta):
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    lam0 = Coweight((Fraction(eta), Fraction(eta)))
    hv = coweight_to_h(alg, lam0, F)
    return Connection(ctx, [F.coerce(a) - b / t for a, b in zip(alg.p_minus1, hv)]), lam0


def random_oper(ctx, rng, max_deg=6):
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    coeffs = [F.coerce(c) for c in alg.p_minus1]
    for h in range(0, alg.height_max + 1):
        for i in alg.blocks.get(h, []):
            num = [Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))]
            den = [Fraction(1)]
            f = F.from_coeffs(num)
            if rng.random() < 0.5:
                f = f / (t - rng.randint(1, 2))
            coeffs[i] = coeffs[i] + f
    return Connection(ctx, coeffs)


def test_sl3_canonical_grid():
    ctx = sl3_context(2)
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    for eta in (0, 1, 2, 3):
        nabla, _ = sl3_nabla(ctx, eta)
        can = canonical_representative(nabla, cyclotomic=True)
        assert can.u[0] == F.coerce(Fraction(eta * (eta + 2), 4)) / t ** 2
        assert not can.u[1]
        # gauge: exp(m).canonical = input; the paper's g is exp(-m)
        m_expect = alg.vec_zero(F)
        for i in range(2):
            m_expect[alg.index_E[alg.simple_root(i)]] = -F.coerce(eta) / t
        assert can.gauge_vec == m_expect
        back = gauge_transform(can.connection(), GroupElement.exp(ctx, can.gauge_vec))
        assert all(a == b for a, b in zip(back.coeffs, nabla.coeffs))


def test_a1_miura_u1():
    ctx = OperContext("A1", ScalarTower.get(1))
    F = ctx.functions
    t = F.gen
    hv = coweight_to_h(ctx.alg, Coweight((Fraction(2),)), F)
    nabla = Connection(ctx, [F.coerce(a) - b / t for a, b in zip(ctx.alg.p_minus1, hv)])
    can = canonical_representative(nabla)
    assert can.u[0] == 2 / t ** 2
    assert u1_coefficient(nabla) == 2 / t ** 2


def test_trivial_input():
    ctx = sl3_context(2)
    F = ctx.functions
    nabla = Connection(ctx, [F.coerce(c) for c in ctx.alg.p_minus1])
    can = canonical_representative(nabla)
    assert not any(can.gauge_vec) and all(not u for u in can.u)
    assert u1_coefficient(nabla) == F.zero


def test_idempotence_exactness_u1_random():
    """Canonical form of its own output is itself; u1 closed form agrees;
    reassembly exact (50 random b-valued inputs, degrees <= 6)."""
    ctx = OperContext("A2", ScalarTower.get(1))
    rng = random.Random(12)
    for _ in range(50):
        nabla = random_oper(ctx, rng)
        can = canonical_representative(nabla)
        assert u1_coefficient(nabla) == can.u[0]
        again = canonical_representative(can.connection())
        assert not any(again.gauge_vec)
        assert again.u == can.u
        back = gauge_transform(can.connection(), GroupElement.exp(ctx, can.gauge_vec))
        assert all(a == b for a, b in zip(back.coeffs, nabla.coeffs))


def test_cyclotomic_closure():
    """For varsigma-equivariant input the canonical differential and the
    recovered gauge are equivariant at each level."""
    ctx = sl3_context(2)
    nabla, _ = sl3_nabla(ctx, 2)
    can = canonical_representative(nabla, cyclotomic=True)
    assert is_equivariant(can.connection(), ctx.varsigma)
    assert is_equivariant((ctx, can.gauge_vec), ctx.varsigma)


def test_pole_order_bounds():
    """RS-form input at the origin: u_k has pole order <= k+1."""
    ctx = sl3_context(2)
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    rng = random.Random(3)
    for _ in range(5):
        coeffs = [F.coerce(c) for c in alg.p_minus1]
        for h in range(0, alg.height_max + 1):
            for i in alg.blocks.get(h, []):
                c = Fraction(rng.randint(-2, 2))
                coeffs[i] = coeffs[i] + F.coerce(c) / t ** (h + 1)
        nabla = Connection(ctx, coeffs)
        can = canonical_representative(nabla)
        for k, u in zip(can.exponents, can.u):
            if u:
                assert u.valuation_at(ctx.scalars.zero) >= -(k + 1)


def test_injectivity_desk_scale():
    """Two equivariant opers with the same canonical form are gauge related
    by the recovered (equivariant) gauges."""
    ctx = sl3_context(2)
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    nabla, _ = sl3_nabla(ctx, 1)
    # an equivariant unipotent gauge
    w = ctx.omega
    f = t ** 3 / (t ** 4 - 16)
    v = alg.vec_zero(F)
    v[alg.index_E[alg.simple_root(0)]] = f
    v[alg.index_E[alg.simple_root(1)]] = f.subs_scale(1 / w) * (1 / w)
    g = GroupElement.exp(ctx, v)
    assert is_equivariant((ctx, v), ctx.varsigma)
    other = gauge_transform(nabla, g)
    can1 = canonical_representative(nabla, cyclotomic=True)
    can2 = canonical_representative(other, cyclotomic=True)
    assert can1.u == can2.u
    rel = GroupElement.exp(ctx, can2.gauge_vec) @ GroupElement.exp(ctx, can1.gauge_vec).inverse()
    back = gauge_transform(nabla, rel)
    assert all(a == b for a, b in zip(back.coeffs, other.coeffs))
    assert is_equivariant((ctx, matrix_log(rel)), ctx.varsigma)


def test_oper_residue_regular_is_zero_class():
    ctx = sl3_context(2)
    nabla, _ = sl3_nabla(ctx, 1)
    K = ctx.scalars
    cls = oper_residue(nabla, K.coerce(5), cyclotomic=False)
    expect = residue_class_of_coweight(ctx, Coweight.zero(2))
    assert cls == expect


def test_oper_residue_linkage():
    ctx = sl3_context(2)
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    W = ctx.weyl
    lam = Coweight((Fraction(1), Fraction(2)))
    for word in ([], [0], [0, 1]):
        mu = W.from_word(word).dot(lam)
        hv = coweight_to_h(alg, mu, F)
        conn = Connection(ctx, [F.coerce(a) - b / (t - 1) for a, b in zip(alg.p_minus1, hv)])
        assert oper_residue(conn, ctx.scalars.one, cyclotomic=False) == residue_class_of_coweight(ctx, lam)


def test_oper_residue_sl4_origin():
    ctx, m = sl4_miura(1, 1, 2)
    conn = m.connection()
    lam0 = Coweight((Fraction(1), Fraction(2), Fraction(1)))
    cls = oper_residue(conn, 0)
    assert cls.folded
    assert cls == residue_class_of_coweight(ctx, lam0, folded=True)


def test_oper_residue_infinity_negated():
    ctx, m = sl4_miura(1, 0, 0)
    cls = oper_residue(m.connection(), INFINITY)
    assert cls.negated and cls.folded


def test_reg_bethe_simple():
    """d + (p_-1 + coroot/(t-x) + r)dt is regular at x iff <alpha, r(x)> = 0."""
    ctx = OperContext("A1", ScalarTower.get(1))
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    x = 2
    acw = coweight_to_h(alg, Coweight((Fraction(2),)), F)
    for c, regular in [(Fraction(0), True), (Fraction(3), False)]:
        r = [h * F.coerce(c) / (t - 5) for h in acw]
        # <alpha, r(x)> = 2c/(x-5): zero iff c = 0
        coeffs = [F.coerce(a) + b / (t - x) + rr for a, b, rr in zip(alg.p_minus1, acw, r)]
        conn = Connection(ctx, coeffs)
        assert is_regular_at(conn, ctx.scalars.coerce(x), cyclotomic=False) == regular
        s = ctx.weyl.simple(0)
        val = regularity_condition(conn, x, s)
        assert (not val) == regular


def test_regularity_condition_matches_general_sum():
    """For a one-point one-root instance the condition expands to the
    advertised generalised Bethe sum."""
    ctx = OperContext("A1", ScalarTower.get(1))
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    K = ctx.scalars
    z1, lam = K.coerce(3), Coweight((Fraction(2),))
    x = K.coerce(1)
    hl = coweight_to_h(alg, lam, F)
    ha = coweight_to_h(alg, Coweight((Fraction(2),)), F)
    coeffs = [
        F.coerce(a) - b / (t - F.coerce(z1)) + c / (t - F.coerce(x))
        for a, b, c in zip(alg.p_minus1, hl, ha)
    ]
    conn = Connection(ctx, coeffs)
    s = ctx.weyl.simple(0)
    val = regularity_condition(conn, x, s)
    # (s.0 | r(x)) with r = -lam/(t - z1): (-alpha-check | -lam/(x - z1))
    av = coweight_to_h(alg, Coweight((Fraction(2),)), K)
    lv = coweight_to_h(alg, lam, K)
    expect = alg.form_vec(av, lv, K) / (x - z1)
    assert val == expect


def test_classify_general_form():
    ctx, m = sl4_miura(1, 1, 2)
    lam0 = Coweight((Fraction(1), Fraction(2), Fraction(1)))
    z = ctx.scalars.coerce(ctx.tower.param("z"))
    w1 = Coweight((Fraction(1), Fraction(0), Fraction(0)))
    res = classify_general_form(m.connection(), lam0, [(z, w1)])
    assert res["w0"].length == 0
    assert all(w.length == 0 for _, w in res["sites"])
    assert not res["extra"]
    assert res["w_inf"].length == 0
    assert res["lam_inf"] == Coweight((Fraction(2), Fraction(2), Fraction(2)))


def test_classify_detects_extra_pole():
    """A reproduction pole carrying s_k . 0 is classified with y = s_k."""
    from cycloper.miura import build_miura

    ctx = OperContext("A1", ScalarTower.get(1))
    W = ctx.weyl
    m = build_miura(
        ctx,
        Coweight((Fraction(2),)),
        sites=[(3, Coweight((Fraction(1),)))],
        extra=[(1, W.simple(0))],
    )
    res = classify_general_form(m.connection(), Coweight((Fraction(2),)), [(3, Coweight((Fraction(1),)))])
    assert len(res["extra"]) == 1
    (x, y), = res["extra"]
    assert y == W.simple(0) and x == ctx.scalars.one


def test_classify_rejects_bad_residue():
    ctx = sl3_context(2)
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    hv = coweight_to_h(alg, Coweight((Fraction(1), Fraction(1))), F)
    conn = Connection(ctx, [F.coerce(a) - b / t for a, b in zip(alg.p_minus1, hv)])
    with pytest.raises(NotOfForm):
        classify_general_form(conn, Coweight((Fraction(2), Fraction(2))), [])


def test_classify_nontrivial_site_word():
    """A site built with w_i = s_1 is classified with that reflection."""
    from cycloper.miura import build_miura

    ctx = OperContext("A2", ScalarTower.get(1))
    W = ctx.weyl
    lam = Coweight((Fraction(2), Fraction(1)))
    m = build_miura(
        ctx,
        Coweight.zero(2),
        sites=[(3, lam, W.simple(0)), (5, lam, W.from_word([0, 1]))],
    )
    res = classify_general_form(m.connection(), Coweight.zero(2), [(3, lam), (5, lam)])
    got = {str(z): w for z, w in res["sites"]}
    assert got["3"] == W.simple(0)
    assert got["5"] == W.from_word([0, 1])


def test_classify_validates_gamma_orbit_residues():
    """Hand-built non-equivariant data is rejected: the omega-rotated pole
    carries the wrong residue."""
    from cycloper.automorphisms import DiagramAut

    ctx = OperContext("A2", ScalarTower.get(2), DiagramAut.from_cycles(2, [[1, 2]]))
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    lam = Coweight((Fraction(2), Fraction(1)))
    hv = coweight_to_h(alg, lam, F)
    coeffs = [F.coerce(a) for a in alg.p_minus1]
    # put lam at z = 3 and at -3 WITHOUT the nu twist: breaks equivariance
    coeffs = [a - b / (t - 3) - b / (t + 3) for a, b in zip(coeffs, hv)]
    conn = Connection(ctx, coeffs)
    with pytest.raises(NotOfForm):
        classify_general_form(conn, Coweight.zero(2), [(ctx.scalars.coerce(3), lam)])


def test_u1_is_form_scale_invariant():
    """Rescaling the invariant form leaves the first canonical coefficient
    unchanged (numerator and denominator scale together)."""
    from cycloper.chevalley import build_algebra

    for scale in (Fraction(1), Fraction(3), Fraction(1, 5)):
        g = build_algebra("A2", form_scales=[scale])
        ctx = OperContext(g, ScalarTower.get(1))
        F = ctx.functions
        t = F.gen
        hv = coweight_to_h(g, Coweight((Fraction(2), Fraction(1))), F)
        nabla = Connection(ctx, [F.coerce(a) - b / t for a, b in zip(g.p_minus1, hv)])
        u1 = u1_coefficient(nabla)
        can = canonical_representative(nabla)
        assert u1 == can.u[0]
        if scale == 1:
            reference = u1
        else:
            assert u1 == reference


def test_not_regular_singular():
    """A pole above the regular-singularity bound is refused: u_1 with a
    triple pole cannot come from an RS form."""
    from cycloper.errors import NotRegularSingular

    ctx = OperContext("A1", ScalarTower.get(1))
    F = ctx.functions
    alg = ctx.alg
    t = F.gen
    coeffs = [F.coerce(c) for c in alg.p_minus1]
    iE = alg.index_E[alg.simple_root(0)]
    coeffs[iE] = coeffs[iE] + 1 / t ** 3
    conn = Connection(ctx, coeffs)
    with pytest.raises(NotRegularSingular):
        oper_residue(conn, 0)
    # and at infinity: u_1 growing like t is not RS there
    coeffs = [F.coerce(c) for c in alg.p_minus1]
    coeffs[iE] = coeffs[iE] + t
    conn = Connection(ctx, coeffs)
    with pytest.raises(NotRegularSingular):
        oper_residue(conn, INFINITY)


_NON_OPERS = """
from fractions import Fraction
from cycloper.canonical import canonical_representative, u1_coefficient
from cycloper.connection import Connection
from cycloper.context import OperContext
from cycloper.errors import MalformedOper
from cycloper.tower import ScalarTower

ctx = OperContext("A2", ScalarTower.get(1))
alg, F = ctx.alg, ctx.functions
t = F.gen
f1, f2 = (alg.index_F[alg.simple_root(i)] for i in range(2))
f12 = alg.index_F[(1, 1)]
for idx, c in ((f1, 2), (f2, 0), (f12, t), (f12, 1 / t)):
    coeffs = [F.coerce(x) for x in alg.p_minus1]
    coeffs[idx] = F.coerce(c)
    for build in (canonical_representative, u1_coefficient):
        try:
            build(Connection(ctx, coeffs))
            raise SystemExit(f"{build.__name__}: no error at {alg.basis[idx]} = {c}")
        except MalformedOper as e:
            if "not in p_-1 + b" not in str(e):
                raise SystemExit(f"{build.__name__}: another check failed first: {e}")
"""


def test_non_oper_input_raises_malformed_oper():
    """canonical_representative and u1_coefficient refuse a connection
    whose part of negative height is not p_-1 (a simple F scaled or
    dropped, a higher F present) before any other check, with a
    MalformedOper raised, not asserted, so that python -O keeps it."""
    exec(_NON_OPERS, {})
    run = run_under_O(_NON_OPERS)
    assert run.returncode == 0, run.stdout + run.stderr


@pytest.mark.parametrize("where", [0, 2, Fraction(-3, 2), INFINITY])
def test_rs_value_reads_the_leading_laurent_term(where):
    """_rs_value reads the coefficient of (t-x)^-(k+1) in u_k (of t^-(k+1)
    at infinity) without forming u_k (t-x)^(k+1); the product route is the
    oracle.  One more order of pole (less decay) is refused with the same
    messages."""
    from cycloper import canonical as canonical_module
    from cycloper.canonical import CanonicalOper
    from cycloper.errors import NotRegularSingular

    ctx = OperContext("B2", ScalarTower.get(4))
    F, K, alg = ctx.functions, ctx.scalars, ctx.alg
    t = F.gen
    inf = where == INFINITY
    # u_k = c s^n plus terms smaller at x, s = t - x (or t at infinity);
    # the bound is n = -(k+1), and one step inside it has value 0
    s = t if inf else t - F.coerce(where)
    smaller = 1 / (t ** 2 + 1) if inf else s * (t + 3) / (t ** 2 + 7)
    inside = 1 if inf else -1
    rng = random.Random(str(where))
    exps = [k for k, _ in alg.centralizer_basis]

    def u(orders):
        out = []
        for n in orders:
            c = K.coerce(Fraction(rng.randint(1, 9), rng.randint(1, 4))) * K.zeta
            out.append(c * s ** n + s ** n * smaller)
        return CanonicalOper(ctx, tuple(exps), out, alg.vec_zero(F))

    for orders in ([-(k + 1) for k in exps], [-(k + 1) - inside for k in exps],
                   [-(k + 1) - inside * (i % 2) for i, k in enumerate(exps)]):
        can = u(orders)
        want = alg.vec_zero(K)
        for (k, w), uk in zip(alg.centralizer_basis, can.u):
            g = uk * s ** (k + 1)
            c = g.eval_at(where)
            want = [a + c * K.coerce(b) for a, b in zip(want, w)]
        assert canonical_module._rs_value(ctx, can, where) == want
        assert any(want) == (orders[0] == -(exps[0] + 1))

    k = exps[-1]
    can = u([-(j + 1) for j in exps[:-1]] + [-(k + 1) + inside])
    msg = "grows too fast at infinity" if inf else f"pole of order > {k + 1} at {where}"
    with pytest.raises(NotRegularSingular, match=msg):
        canonical_module._rs_value(ctx, can, where)
