import random
from fractions import Fraction

import pytest

from cycloper.automorphisms import DiagramAut
from cycloper.canonical import canonical_representative
from cycloper.chevalley import build_algebra
from cycloper.connection import Connection
from cycloper.context import OperContext
from cycloper.errors import MalformedOper
from cycloper.finite_opers import class_of_coweight, finite_canonical
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
    check with MalformedOper, which survives python -O."""
    g = build_algebra("A2")
    split = g.split_graded

    def drop_centraliser(X, height, K, nu=None):
        m, c, a = split(X, height, K, nu)
        return m, g.vec_zero(K), a

    monkeypatch.setattr(g, "split_graded", drop_centraliser)
    X = [Fraction(c) for c in g.p_minus1]
    X[g.index_E[(1, 1)]] = Fraction(1)
    with pytest.raises(MalformedOper, match="reassembly"):
        finite_canonical(g, X)


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
    can = canonical_representative(Connection(ctx, [F.coerce(x) for x in X], "oper"))
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
