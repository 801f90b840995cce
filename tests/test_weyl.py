import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cycloper.automorphisms import DiagramAut
from cycloper.cartan import CartanDatum
from cycloper.chevalley import build_algebra
from cycloper.folding import fold
from cycloper.weyl import (
    Coweight,
    WeylGroup,
    coroot_coweight,
    coroot_to_coweight,
    coweight_to_h,
    dominant_shift_representative,
    h_to_coweight,
    linkage_equal,
    rho_coweight,
    weyl_orbit_shifted,
)

ORDERS = {"A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8, "G2": 12, "D4": 192}


@pytest.mark.parametrize("label", sorted(ORDERS))
def test_group_orders(label):
    W = WeylGroup(CartanDatum.from_label(label))
    assert W.order() == ORDERS[label]
    for s in W.generators:
        assert W.mult(s, s) == W.identity


def test_braid_relation_a2():
    W = WeylGroup(CartanDatum.from_label("A2"))
    s1, s2 = W.generators
    assert W.mult(W.mult(s1, s2), s1) == W.mult(W.mult(s2, s1), s2)


coords = st.tuples(*([st.integers(min_value=-4, max_value=4)] * 2))


@settings(max_examples=40, deadline=None)
@given(coords=coords, w1=st.lists(st.integers(0, 1), max_size=4), w2=st.lists(st.integers(0, 1), max_size=4))
def test_shifted_action_group_law(coords, w1, w2):
    W = WeylGroup(CartanDatum.from_label("A2"))
    lam = Coweight(tuple(Fraction(c) for c in coords))
    a, b = W.from_word(w1), W.from_word(w2)
    assert W.mult(a, b).dot(lam) == a.dot(b.dot(lam))


def test_shifted_action_examples():
    g = build_algebra("A2")
    W = WeylGroup(g.cartan)
    zero = Coweight.zero(2)
    for k in range(2):
        assert W.simple(k).dot(zero) == -coroot_coweight(g, k)
    assert W.identity.dot(Coweight((Fraction(3), Fraction(1)))) == Coweight((Fraction(3), Fraction(1)))
    # s1 s2 s1 . (eta(w1+w2)) has both pairings -eta-2
    for eta in (0, 1, 2):
        lam = Coweight((Fraction(eta), Fraction(eta)))
        out = W.from_word([0, 1, 0]).dot(lam)
        assert out == Coweight((Fraction(-eta - 2), Fraction(-eta - 2)))


def test_linkage():
    W1 = WeylGroup(CartanDatum.from_label("A1"))
    assert linkage_equal(W1, Coweight.zero(1), Coweight((Fraction(-2),)))
    assert linkage_equal(W1, Coweight((Fraction(1),)), Coweight((Fraction(1),)))
    assert not linkage_equal(W1, Coweight.zero(1), Coweight((Fraction(1),)))


def test_linkage_nu_restricted():
    """lam0 nu-invariant: s1 . lam0 is W-linked but not W^nu-linked when it
    leaves the invariant locus."""
    W = WeylGroup(CartanDatum.from_label("A2"))
    nu = DiagramAut.from_cycles(2, [[1, 2]])
    lam0 = Coweight((Fraction(1), Fraction(1)))
    moved = W.simple(0).dot(lam0)
    assert linkage_equal(W, lam0, moved)
    assert not linkage_equal(W, lam0, moved, nu)
    snu = W.from_word([0, 1, 0])
    assert linkage_equal(W, lam0, snu.dot(lam0), nu)


def test_orbit_shifted():
    W = WeylGroup(CartanDatum.from_label("A2"))
    lam = Coweight((Fraction(1), Fraction(2)))
    orb = weyl_orbit_shifted(W, lam)
    assert len(orb) == 6  # regular orbit
    vals = {v.coords for _, v in orb}
    assert lam.coords in vals
    nu = DiagramAut.from_cycles(2, [[1, 2]])
    lam0 = Coweight((Fraction(1), Fraction(1)))
    orb_nu = weyl_orbit_shifted(W, lam0, nu)
    assert len(orb_nu) == 2


def test_mop_fin_iso_w_injectivity():
    """For dominant lam the map w -> w(lam + rho) is injective."""
    for label in ("A2", "A3", "B2"):
        W = WeylGroup(CartanDatum.from_label(label))
        lam = Coweight(tuple(Fraction(i + 1) for i in range(W.rank)))
        rho = rho_coweight(W.rank)
        images = {w.apply(lam + rho).coords for w in W.elements}
        assert len(images) == W.order()


def test_dominant_representative():
    W = WeylGroup(CartanDatum.from_label("A2"))
    lam = Coweight((Fraction(2), Fraction(1)))
    w = W.from_word([0, 1])
    mu = w.dot(lam)
    got = dominant_shift_representative(W, mu)
    assert got is not None
    lam2, w2 = got
    assert w2.dot(lam2) == mu and (lam2 + rho_coweight(2)).is_dominant()


def test_coweight_h_roundtrip():
    g = build_algebra("A3")
    lam = Coweight((Fraction(1), Fraction(-2), Fraction(3)))
    assert h_to_coweight(g, coweight_to_h(g, lam)) == lam


# ---- folding -----------------------------------------------------------------

def test_fold_a2():
    g = build_algebra("A2")
    W = WeylGroup(g.cartan)
    nu = DiagramAut.from_cycles(2, [[1, 2]])
    fd = fold(g, nu, W)
    assert fd.ell == (2,)
    assert fd.cartan.matrix == ((2,),)
    assert fd.simple_reflections[0] == W.from_word([0, 1, 0])
    assert W.mult(fd.simple_reflections[0], fd.simple_reflections[0]) == W.identity


def test_fold_a3():
    g = build_algebra("A3")
    nu = DiagramAut.from_cycles(3, [[1, 3]])
    fd = fold(g, nu)
    assert fd.ell == (1, 1)
    assert fd.cartan.matrix == ((2, -2), (-1, 2))  # type B2/C2
    # ell_I sum a_ij = 2
    A = g.cartan.matrix
    for orb, l in zip(fd.orbits, fd.ell):
        j = orb[0]
        assert l * sum(A[i][j] for i in orb) == 2


def test_fold_identity():
    g = build_algebra("A3")
    nu = DiagramAut.identity(3)
    fd = fold(g, nu)
    assert fd.cartan.matrix == g.cartan.matrix
    W = WeylGroup(g.cartan)
    for i, w in enumerate(fd.simple_reflections):
        assert w == W.simple(i)


def test_fold_d4_triality():
    g = build_algebra("D4")
    nu = DiagramAut.from_cycles(4, [[1, 3, 4]])
    fd = fold(g, nu)
    assert sorted(fd.ell) == [1, 1]
    got = fd.cartan.matrix
    assert got in (((2, -3), (-1, 2)), ((2, -1), (-3, 2)))  # G2


def test_folded_generators_bracket():
    """[E^nu_I, F^nu_J] = delta_IJ coroot^nu_I."""
    g = build_algebra("A3")
    nu = DiagramAut.from_cycles(3, [[1, 3]])
    fd = fold(g, nu)
    for I in range(2):
        for J in range(2):
            br = g.bracket_vec(fd.E[I], fd.F[J])
            want = fd.coroots[I] if I == J else g.vec_zero()
            assert br == want


def test_w_nu_a2():
    W = WeylGroup(CartanDatum.from_label("A2"))
    nu = DiagramAut.from_cycles(2, [[1, 2]])
    els = W.nu_invariant_elements(nu)
    assert len(els) == 2
    assert W.from_word([0, 1, 0]) in els


def test_coroot_to_coweight_keeps_the_field_of_its_input():
    """A zero input gives the zero of its own field, not Fraction(0)."""
    from cycloper.tower import ScalarTower

    g = build_algebra("A2")
    tw = ScalarTower.get(4)
    F = tw.t.field
    out = coroot_to_coweight(g, [F.zero, F.zero])
    assert all(type(c) is type(F.zero) and c == F.zero for c in out.coords)
    K = tw.scalars
    out = coroot_to_coweight(g, [K.zero, K.one])
    assert [type(c) for c in out.coords] == [type(K.zero)] * 2
    assert out == Coweight((-K.one, 2 * K.one))


@pytest.mark.parametrize("label, cycles", [
    ("A2", [[1, 2]]), ("A3", [[1, 3]]), ("D4", [[1, 3]]), ("D4", [[1, 3, 4]]),
    ("A4", [[1, 4], [2, 3]]), ("A1xA1", [[1, 2]]),
])
def test_nu_action_is_conjugation_by_the_permutation(label, cycles):
    """nu(w) re-indexes w.matrix; the reference conjugates by the
    permutation matrices P_nu w P_nu^-1."""
    from cycloper.linalg import QQ, mat_mul

    W = WeylGroup(CartanDatum.from_label(label))
    nu = DiagramAut.from_cycles(W.rank, cycles)
    n = W.rank
    P = [[Fraction(int(j == nu.inv_perm[i])) for j in range(n)] for i in range(n)]
    Pi = [[Fraction(int(j == nu.perm[i])) for j in range(n)] for i in range(n)]
    for w in W.elements:
        ref = mat_mul(QQ, P, mat_mul(QQ, w.matrix, Pi))
        assert W.nu_action(nu, w).matrix == tuple(map(tuple, ref))
