import random
from fractions import Fraction

import pytest

from conftest import run_under_O

from cycloper import canonical as canonical_module
from cycloper import finite_opers
from cycloper.automorphisms import DiagramAut
from cycloper.canonical import canonical_representative
from cycloper.chevalley import build_algebra
from cycloper.connection import Connection, exp_gauge
from cycloper.context import OperContext
from cycloper.errors import MalformedOper
from cycloper.finite_opers import (
    class_of_coweight,
    finite_canonical,
    nu_fixed_block_basis,
    slice_gauge,
)
from cycloper.linalg import QQ
from cycloper.miura import build_miura
from cycloper.problems import parse_problem
from cycloper.scalars import CyclotomicField
from cycloper.tower import ScalarTower
from cycloper.weyl import Coweight, WeylGroup, coroot_coweight, coweight_to_h, weyl_orbit_shifted


def test_p_minus1_is_canonical():
    g = build_algebra("A2")
    cls, m = finite_canonical(g, g.p_minus1)
    assert not any(m)
    assert all(not c for c in cls.coefficients)


def test_a1_example():
    """X = p_-1 - coroot: one-step elimination and the scalar closed form
    both give c_1 = 1 (see the decisions ledger on the spec's printed 2)."""
    g = build_algebra("A1")
    X = [a - b for a, b in zip(g.p_minus1, coweight_to_h(g, coroot_coweight(g, 0)))]
    cls, m = finite_canonical(g, X)
    assert cls.coefficients == (Fraction(1),)
    # scalar analog of the closed u1 formula: (1/2 (v0|v0)) / (2 (rho|rho))
    v0 = coweight_to_h(g, coroot_coweight(g, 0))
    num = g.form_vec(v0, v0) / 2
    den = 2 * g.form_vec(g.rho, g.rho)
    assert num / den == Fraction(1)


def test_reassembly_exact():
    g = build_algebra("A3")
    rng = random.Random(2)
    for _ in range(5):
        X = [Fraction(c) for c in g.p_minus1]
        for h in range(0, g.height_max + 1):
            for i in g.blocks.get(h, []):
                X[i] += Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        cls, m = finite_canonical(g, X)
        can = [Fraction(c) for c in g.p_minus1]
        for (k, w), c in zip(g.centralizer_basis, cls.coefficients):
            for j, cw in enumerate(w):
                can[j] += c * cw
        assert g.ad_series(m, can) == X


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_constant_on_shifted_orbits(label):
    """finite_canonical(p_-1 - lam - rho) is constant on shifted Weyl orbits
    (oracle: full Weyl enumeration)."""
    g = build_algebra(label)
    W = WeylGroup(g.cartan)
    rng = random.Random(7)
    for _ in range(3):
        lam = Coweight(tuple(Fraction(rng.randint(-2, 3)) for _ in range(g.rank)))
        classes = {class_of_coweight(g, v) for _, v in weyl_orbit_shifted(W, lam)}
        assert len(classes) == 1


def test_distinct_orbits_give_distinct_classes():
    g = build_algebra("A2")
    a = class_of_coweight(g, Coweight((Fraction(0), Fraction(0))))
    b = class_of_coweight(g, Coweight((Fraction(1), Fraction(0))))
    assert a != b


def test_folded_class_constant_on_wnu_orbits():
    g = build_algebra("A2")
    nu = DiagramAut.from_cycles(2, [[1, 2]])
    W = WeylGroup(g.cartan)
    lam0 = Coweight((Fraction(2), Fraction(2)))
    snu = W.from_word([0, 1, 0])
    a = class_of_coweight(g, lam0, nu=nu)
    b = class_of_coweight(g, snu.dot(lam0), nu=nu)
    assert a == b and a.folded


def test_malformed():
    g = build_algebra("A2")
    X = g.vec_zero()
    with pytest.raises(MalformedOper):
        finite_canonical(g, X)


def test_reassembly_failure_is_typed(monkeypatch):
    """A wrong graded split (centraliser part dropped) fails the reassembly
    check with MalformedOper, which survives python -O.  The failure is
    not kept: every call raises, and the true split then solves X."""
    g = build_algebra("A2")
    split = g.split_graded

    def drop_centraliser(X, height, K, nu=None):
        m, c, a = split(X, height, K, nu)
        return m, g.vec_zero(K), a

    monkeypatch.setattr(g, "split_graded", drop_centraliser)
    X = [Fraction(c) for c in g.p_minus1]
    X[g.index_E[(1, 1)]] = Fraction(1)
    for _ in range(2):
        with pytest.raises(MalformedOper, match="reassembly"):
            finite_canonical(g, X)
    assert not g._finite_classes
    monkeypatch.setattr(g, "split_graded", split)
    cls, _ = finite_canonical(g, X)
    assert cls == finite_opers._finite_canonical(build_algebra("A2"), tuple(X), QQ, None)[0]


_REASSEMBLY_UNDER_O = """
from fractions import Fraction
from cycloper.chevalley import build_algebra
from cycloper.errors import MalformedOper
from cycloper.finite_opers import finite_canonical

g = build_algebra("A2")
split = g.split_graded


def drop_centraliser(X, height, K, nu=None):
    m, c, a = split(X, height, K, nu)
    return m, g.vec_zero(K), a


g.split_graded = drop_centraliser
X = [Fraction(c) for c in g.p_minus1]
X[g.index_E[(1, 1)]] = Fraction(1)
for _ in range(2):
    try:
        finite_canonical(g, X)
    except MalformedOper as e:
        print("MalformedOper", e)
    else:
        print("no error")
"""


def test_reassembly_failure_is_typed_under_O():
    """The first call on a fresh algebra still solves and checks under
    python -O, and so does the second."""
    run = run_under_O(_REASSEMBLY_UNDER_O)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["MalformedOper canonical-form reassembly failed"] * 2


def test_finite_classes_are_kept_per_algebra(monkeypatch):
    """finite_canonical solves once per (K, nu, X) on an algebra: the same
    class and m as the solve on a fresh algebra, a fresh m on every call,
    and one entry per nu and per field."""
    g = build_algebra("A3")
    nu = DiagramAut.from_cycles(3, [[1, 3]])
    K4 = CyclotomicField.get(4)
    X = random_slice_target(g, QQ, nu, random.Random(7))
    want_cls, want_m = finite_opers._finite_canonical(build_algebra("A3"), tuple(X), QQ, nu)
    solves = []
    real = finite_opers.slice_gauge
    monkeypatch.setattr(finite_opers, "slice_gauge", lambda *a, **k: solves.append(1) or real(*a, **k))
    cls, m = finite_canonical(g, X, QQ, nu)
    assert (cls, m) == (want_cls, list(want_m)) and any(m)
    m[0] = Fraction(99)
    m.append(Fraction(1))
    cls2, m2 = finite_canonical(g, [Fraction(x) for x in X], QQ, nu)
    assert cls2 is cls and m2 == list(want_m) and len(solves) == 1
    assert finite_canonical(g, X, QQ, nu)[1] is not m2
    unfolded, _ = finite_canonical(g, X, QQ, None)
    cls4, m4 = finite_canonical(g, X, K4, nu)
    assert len(solves) == 3 and len(g._finite_classes) == 3
    assert not unfolded.folded and cls.folded and cls4 == cls
    assert m4 == [K4.coerce(x) for x in want_m]


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "G2", "D4"])
def test_constant_oper_canonical_form_is_finite_class(label):
    """For a t-independent oper d + X dt the derivative terms vanish, so its
    canonical form is the finite-oper class of X: the same slice
    coefficients u and the same gauge parameter m."""
    ctx = OperContext(label, ScalarTower.get(1))
    g = ctx.alg
    F = ctx.functions
    rng = random.Random(11)
    X = [Fraction(c) for c in g.p_minus1]
    for h in range(0, g.height_max + 1):
        for i in g.blocks.get(h, []):
            X[i] += Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    can = canonical_representative(Connection(ctx, [F.coerce(x) for x in X]))
    cls, m = finite_canonical(g, X)
    assert any(cls.coefficients)
    assert can.u == [F.coerce(c) for c in cls.coefficients]
    assert can.gauge_vec == [F.coerce(x) for x in m]


@pytest.mark.parametrize("label, cycles", [("A2", [[1, 2]]), ("A3", [[1, 3]]), ("D4", [[1, 3]])])
def test_non_nu_fixed_element_is_malformed(label, cycles):
    """An element of p_-1 + b that nu moves has no class in the nu-fixed
    slice."""
    g = build_algebra(label)
    nu = DiagramAut.from_cycles(g.rank, cycles)
    nu.validate(g.cartan)
    X = [Fraction(c) for c in g.p_minus1]
    X[g.index_E[g.simple_root(0)]] = Fraction(1)
    with pytest.raises(MalformedOper):
        finite_canonical(g, X, nu=nu)
    X = [a - b for a, b in zip(g.p_minus1, coweight_to_h(g, coroot_coweight(g, 0)))]
    with pytest.raises(MalformedOper):
        finite_canonical(g, X, nu=nu)


# -- the graded solve against the per-height full-series loop ----------------

def per_height_slice_gauge(alg, target, K, gauge, nu=None):
    """The reference loop: at every height the whole series
    gauge(m, p_-1 + c) is recomputed and only its height-h block is read."""
    base = [K.coerce(c) for c in alg.p_minus1]
    m, cvec, coeffs = alg.vec_zero(K), alg.vec_zero(K), {}
    for h in range(alg.height_max + 1):
        cur = gauge(m, [a + c for a, c in zip(base, cvec)])
        D = alg.vec_zero(K)
        for i in alg.blocks.get(h, []):
            D[i] = target[i] - cur[i]
        mp, ch, coeffs[h] = alg.split_graded(D, h, K, nu)
        m = [a - b for a, b in zip(m, mp)]
        cvec = [a + b for a, b in zip(cvec, ch)]
    return m, coeffs


def random_slice_target(g, K, nu, rng):
    """p_-1 plus a random (nu-fixed, with nu) element of b over K."""
    X = [K.coerce(c) for c in g.p_minus1]
    for h in range(g.height_max + 1):
        if nu is None:
            basis = [[int(i == j) for i in range(g.dim)] for j in g.blocks[h]]
        else:
            basis = nu_fixed_block_basis(g, nu, h)
        for b in basis:
            r = K.coerce(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
            if K is not QQ and rng.random() < 0.5:
                r = r * K.zeta
            X = [x + r * K.coerce(c) for x, c in zip(X, b)]
    return X


SCALAR_CASES = [("A2", None), ("A2", [[1, 2]]), ("A3", None), ("A3", [[1, 3]]),
                ("B2", None), ("G2", None), ("D4", None), ("D4", [[1, 3, 4]])]


@pytest.mark.parametrize("label, cycles", SCALAR_CASES)
@pytest.mark.parametrize("K", [QQ, CyclotomicField.get(4)], ids=["QQ", "Qzeta4"])
def test_graded_solve_matches_per_height_loop_on_scalars(label, cycles, K):
    """Same m and slice coefficients as recomputing the full series at each
    height, with and without nu, over Q and Q(zeta_4)."""
    g = build_algebra(label)
    nu = None if cycles is None else DiagramAut.from_cycles(g.rank, cycles)
    gauge = lambda m, v: g.ad_series(m, v, K)
    rng = random.Random(f"{label}{cycles}")
    for _ in range(3):
        X = random_slice_target(g, K, nu, rng)
        got = slice_gauge(g, X, K, gauge, nu=nu)
        assert got == per_height_slice_gauge(g, X, K, gauge, nu)
        assert any(got[0])


MIURA_CASES = [
    ("A2", 2, [[1, 2]], (1, 0)),
    ("A3", 2, [[1, 3]], (1, 0, 0)),
    ("B2", 1, None, (0, 1)),
    ("G2", 1, None, (1, 0)),
    ("D4", 3, [[1, 3, 4]], (0, 1, 0, 0)),
]


def site_miura_oper(label, T, cycles, site):
    """The oper of the Miura oper with lam0 = (1, ..., 1) and a site at 3/2."""
    nu = None if cycles is None else DiagramAut.from_cycles(len(site), cycles)
    ctx = OperContext(label, ScalarTower.get(T), nu)
    lam0 = Coweight(tuple(Fraction(1) for _ in site))
    miura = build_miura(ctx, lam0, sites=[(Fraction(3, 2), Coweight(tuple(map(Fraction, site))))])
    return ctx, miura.connection()


@pytest.mark.parametrize("label, T, cycles, site", MIURA_CASES)
def test_graded_solve_matches_per_height_loop_on_miura_opers(label, T, cycles, site):
    """Over Q(zeta_T)(t), on the oper of a Miura oper with a site at 3/2:
    the graded solve (with the derivative series) gives the same m and u as
    the per-height loop over exp_gauge, and canonical_representative
    returns them."""
    ctx, conn = site_miura_oper(label, T, cycles, site)
    g, F = ctx.alg, ctx.functions
    gauge = lambda X, A: exp_gauge(ctx, X, A)
    m, coeffs = slice_gauge(g, conn.coeffs, F, gauge, lambda vec, h: [x.derivative() for x in vec])
    assert (m, coeffs) == per_height_slice_gauge(g, conn.coeffs, F, gauge)
    assert any(m)
    can = canonical_representative(conn)
    assert can.gauge_vec == m
    assert can.u == [c for k in sorted(set(g.exponents)) for c in coeffs.get(k, [])]


@pytest.mark.parametrize("label, T, cycles, site", MIURA_CASES)
def test_frame_route_matches_the_t_level_route(label, T, cycles, site, monkeypatch):
    """canonical_representative solves in the frame D Ad_{D^rho}: its graded
    pieces and its reassembly check are polynomials, and mapped back it
    gives the u and the gauge of the per-height loop over exp_gauge in t."""
    ctx, conn = site_miura_oper(label, T, cycles, site)
    g, F = ctx.alg, ctx.functions
    seen = {}
    real_slice_gauge = canonical_module.slice_gauge

    def recorded(alg, target, K, gauge, deriv):
        def check(X, A):
            seen["check"] = gauge(X, A)
            return seen["check"]

        seen["target"] = target
        seen["m"], seen["c"] = out = real_slice_gauge(alg, target, K, check, deriv)
        return out

    monkeypatch.setattr(canonical_module, "slice_gauge", recorded)
    can = canonical_representative(conn)
    assert seen["check"] == seen["target"] and any(seen["m"])
    pieces = [*seen["check"], *seen["m"], *(c for cs in seen["c"].values() for c in cs)]
    assert all(f.is_polynomial() for f in pieces)
    assert any(not f.is_polynomial() for f in conn.coeffs)
    m, coeffs = per_height_slice_gauge(g, conn.coeffs, F, lambda X, A: exp_gauge(ctx, X, A))
    assert can.gauge_vec == m
    assert can.u == [c for k in sorted(set(g.exponents)) for c in coeffs.get(k, [])]


def test_frame_derivation_without_its_height_term_fails_reassembly():
    """In the frame a height-h gauge y has the derivation D y' - h D' y.
    Pieces built with the -h D' y term dropped give an m and c that the
    reassembly check, run with the true derivation, rejects."""
    ctx, conn = site_miura_oper("A3", 2, [[1, 3]], (1, 0, 0))
    g, F = ctx.alg, ctx.functions
    target, delta, Dpow = canonical_module._frame(g, F, conn.coeffs)
    D = Dpow[1]
    assert D.derivative()
    gauge = lambda X, A: exp_gauge(ctx, X, A, [delta(x, h) for x, h in zip(X, g.height_of)])
    assert slice_gauge(g, target, F, gauge, lambda vec, h: [delta(x, h) for x in vec])
    with pytest.raises(MalformedOper, match="reassembly"):
        slice_gauge(g, target, F, gauge, lambda vec, h: [D * x.derivative() for x in vec])


@pytest.mark.parametrize("case", ["A3-T2", "A2-T2-eta"])
def test_frame_solve_runs_no_t_level_gcd(case, monkeypatch):
    """Inside canonical_representative's slice_gauge the polynomial ring in
    t runs no gcd (a PackedRing over Q(zeta_T), a FieldRing over the
    parameter eta), and no cached gcd of two non-constant polynomials in t
    is asked for; the map back to reduced functions still runs them."""
    if case == "A2-T2-eta":
        problem = parse_problem({"algebra": "A2", "T": 2, "nu": [[1, 2]], "parameters": ["eta"],
                                 "lambda0": ["eta", "eta"], "sites": [{"z": "3/2", "coweight": ["1", "0"]}]})
        miura = build_miura(problem.ctx, problem.lam0, sites=problem.sites)
        ctx, conn = problem.ctx, miura.connection()
    else:
        ctx, conn = site_miura_oper("A3", 2, [[1, 3]], (1, 0, 0))
    F = ctx.functions
    R = F.ring
    calls, inside = [], []
    real_gcd, real_cached_gcd = R.gcd, F.cached_gcd

    def gcd(a, b):
        calls.append(("gcd", bool(inside)))
        return real_gcd(a, b)

    def cached_gcd(a, b):
        if len(a) > R.width and len(b) > R.width:
            calls.append(("cached_gcd", bool(inside)))
        return real_cached_gcd(a, b)

    real_slice_gauge = canonical_module.slice_gauge

    def tracked(*a, **k):
        inside.append(True)
        try:
            return real_slice_gauge(*a, **k)
        finally:
            inside.clear()

    monkeypatch.setattr(R, "gcd", gcd)
    monkeypatch.setattr(F, "cached_gcd", cached_gcd)
    monkeypatch.setattr(canonical_module, "slice_gauge", tracked)
    can = canonical_representative(conn, cyclotomic=True)
    assert any(can.gauge_vec)
    assert not [c for c in calls if c[1]]
    assert ("cached_gcd", False) in calls


def test_corrupted_piece_fails_reassembly(monkeypatch):
    """Pieces built from a wrong bracket (doubled) give an m and c that the
    independent full series does not reassemble: MalformedOper."""
    g = build_algebra("A3")
    true_bracket = g.bracket_vec
    checking = []

    def doubled(x, y, K=QQ):
        out = true_bracket(x, y, K)
        return out if checking else [2 * v for v in out]

    def gauge(m, v):
        checking.append(True)
        return g.ad_series(m, v, QQ)

    monkeypatch.setattr(g, "bracket_vec", doubled)
    X = random_slice_target(g, QQ, None, random.Random(3))
    with pytest.raises(MalformedOper, match="reassembly"):
        slice_gauge(g, X, QQ, gauge)
    assert checking


def test_each_solve_runs_one_full_series(monkeypatch):
    """canonical_representative runs exp_gauge once and finite_canonical
    ad_series once: the reassembly checks, nothing per height."""
    calls = []
    real_exp_gauge = canonical_module.exp_gauge
    monkeypatch.setattr(canonical_module, "exp_gauge",
                        lambda *a, **k: calls.append("exp_gauge") or real_exp_gauge(*a, **k))
    ctx = OperContext("A3", ScalarTower.get(2), DiagramAut.from_cycles(3, [[1, 3]]))
    lam0 = Coweight((Fraction(1), Fraction(2), Fraction(1)))
    miura = build_miura(ctx, lam0, sites=[(Fraction(3, 2), Coweight((Fraction(1), Fraction(0), Fraction(0))))])
    can = canonical_representative(miura.connection(), cyclotomic=True)
    assert any(can.gauge_vec) and calls == ["exp_gauge"]

    g = build_algebra("A3")
    real_ad_series = g.ad_series
    monkeypatch.setattr(g, "ad_series", lambda *a, **k: calls.append("ad_series") or real_ad_series(*a, **k))
    cls, m = finite_canonical(g, random_slice_target(g, QQ, None, random.Random(5)))
    assert any(m) and calls == ["exp_gauge", "ad_series"]
