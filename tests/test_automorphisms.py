from fractions import Fraction

import pytest

from cycloper.automorphisms import AlgebraAut, DiagramAut, theta_fixed_nilpotent
from cycloper.chevalley import build_algebra
from cycloper.context import OperContext
from cycloper.errors import OrderMismatch, ValidationError
from cycloper.tower import ScalarTower
from cycloper.weyl import Coweight


def test_diagram_aut_validation():
    g = build_algebra("A3")
    DiagramAut.from_cycles(3, [[1, 3]]).validate(g.cartan)
    with pytest.raises(ValidationError):
        DiagramAut.from_cycles(3, [[1, 2]]).validate(g.cartan)


def test_identity_automorphism():
    g = build_algebra("A2")
    aut = g.diagram_twist(DiagramAut.identity(2))
    v = g.vec_E(g.simple_root(0))
    assert aut.apply_vec(v) == v
    assert aut.verify_bracket_preservation()


def test_varsigma_action():
    g = build_algebra("A2")
    nu = DiagramAut.from_cycles(2, [[1, 2]])
    tw = ScalarTower.get(2)
    vs = OperContext(g, tw, nu).varsigma
    K = tw.scalars
    # varsigma(E_i) = omega^-1 E_nu(i)
    v = g.vec_E(g.simple_root(0), K)
    img = vs.apply_vec(v, K)
    iE2 = g.index_E[g.simple_root(1)]
    assert img[iE2] == K.one / tw.zeta and sum(1 for x in img if x) == 1
    # varsigma(p_pm1) = omega^{mp 1} p_pm1; varsigma(rho) = rho
    pm = [K.coerce(c) for c in g.p_minus1]
    assert vs.apply_vec(pm, K) == [tw.zeta * c for c in pm]
    p1 = [K.coerce(c) for c in g.p1]
    assert vs.apply_vec(p1, K) == [c / tw.zeta for c in p1]
    rho = [K.coerce(c) for c in g.rho]
    assert vs.apply_vec(rho, K) == rho
    assert vs.verify_bracket_preservation()
    assert vs._power_is_identity(2) and not vs._power_is_identity(1)


def test_varsigma_preserves_grading_and_centralizer():
    g = build_algebra("A3")
    nu = DiagramAut.from_cycles(3, [[1, 3]])
    tw = ScalarTower.get(4)
    vs = OperContext(g, tw, nu).varsigma
    for i in range(g.dim):
        assert g.height_of[vs.image[i]] == g.height_of[i]
    # each graded centralizer piece is stable
    K = tw.scalars
    for k, w in g.centralizer_basis:
        img = vs.apply_vec([K.coerce(c) for c in w], K)
        # must stay inside span of grade-k centralizer vectors
        idxs = g.blocks[k]
        others = [v for kk, v in g.centralizer_basis if kk == k]
        from cycloper.linalg import solve_linear

        A = [[K.coerce(v[j]) for v in others] for j in idxs]
        assert solve_linear(K, A, [img[j] for j in idxs]) is not None


def test_nu_fixes_principal_sl2():
    g = build_algebra("A3")
    nu = DiagramAut.from_cycles(3, [[1, 3]])
    aut = g.diagram_twist(nu)
    assert aut.apply_vec(g.p_minus1) == g.p_minus1
    assert aut.apply_vec(g.p1) == g.p1
    assert aut.apply_vec(g.rho) == g.rho


def test_order_mismatch():
    g = build_algebra("A2")
    nu = DiagramAut.from_cycles(2, [[1, 2]])
    tw = ScalarTower.get(3)
    with pytest.raises(OrderMismatch):
        AlgebraAut(g, nu, [tw.one / tw.zeta] * 2, tw)
    # over the cover of order qT = 4: (tau_1 tau_2)^2 = -1
    cover = ScalarTower.get(2).cover(2)
    with pytest.raises(OrderMismatch):
        AlgebraAut(g, nu, [cover.zeta, cover.one], cover)


def test_vartheta_needs_a_nu_invariant_lam0():
    ctx = OperContext("A2", ScalarTower.get(2), DiagramAut.from_cycles(2, [[1, 2]]))
    with pytest.raises(ValidationError, match="nu-invariant"):
        ctx.vartheta(Coweight((Fraction(1), Fraction(0))))


def test_vartheta_on_generators():
    """theta(E_1 + E_2) = omega^-(eta+1) (E_2 + E_1) for A2 with
    lam0 = eta(w1 + w2)."""
    g = build_algebra("A2")
    nu = DiagramAut.from_cycles(2, [[1, 2]])
    tw = ScalarTower.get(4)
    ctx = OperContext(g, tw, nu)
    K = tw.scalars
    for eta in (0, 1, 2):
        th = ctx.vartheta(Coweight((Fraction(eta), Fraction(eta))))
        v = [a + b for a, b in zip(g.vec_E(g.simple_root(0), K), g.vec_E(g.simple_root(1), K))]
        img = th.apply_vec(v, K)
        factor = (K.one / tw.zeta) ** (eta + 1)
        assert img == [factor * x for x in v]


THETA_DIMS = [
    # (T, eta, dim n^theta): omega^mu = +-1 -> orbit part; omega^{2mu} = -1 ->
    # bracket part; trivial otherwise (Example dims)
    (2, 0, 1),
    (2, 1, 1),
    (4, 0, 1),
    (4, 1, 1),
    (6, 2, 1),
    (8, 0, 0),
    (8, 1, 1),
]


@pytest.mark.parametrize("T,eta,dim", THETA_DIMS)
def test_theta_fixed_nilpotent_dims(T, eta, dim):
    g = build_algebra("A2")
    nu = DiagramAut.from_cycles(2, [[1, 2]])
    tw = ScalarTower.get(T)
    th = OperContext(g, tw, nu).vartheta(Coweight((Fraction(eta), Fraction(eta))))
    basis, report = theta_fixed_nilpotent(g, th)
    assert len(basis) == dim
    assert report[0]["orbit"] == (1, 2)
    # nontrivial iff omega^{4(eta+1)} = 1 (the flag example criterion)
    K = tw.scalars
    nontrivial = tw.zeta ** (4 * (eta + 1)) == K.one
    assert (len(basis) > 0) == nontrivial


def test_theta_identity_full_n():
    g = build_algebra("A2")
    th = OperContext(g, ScalarTower.get(1)).vartheta(Coweight.zero(2))
    basis, _ = theta_fixed_nilpotent(g, th)
    assert len(basis) == len(g.pos_roots)


def test_nu_stabilizes_graded_centralizer():
    """nu maps each graded transversal piece into itself."""
    from cycloper.linalg import QQ, solve_linear

    g = build_algebra("A3")
    nu = DiagramAut.from_cycles(3, [[1, 3]])
    aut = g.diagram_twist(nu)
    for k, w in g.centralizer_basis:
        img = aut.apply_vec(w, QQ)
        others = [v for kk, v in g.centralizer_basis if kk == k]
        idxs = g.blocks[k]
        A = [[v[j] for v in others] for j in idxs]
        assert solve_linear(QQ, A, [img[j] for j in idxs]) is not None


@pytest.mark.parametrize(
    "label, T, cycles",
    [("A2", 2, [[1, 2]]), ("A3", 4, [[1, 3]]), ("D4", 3, [[1, 3, 4]])],
    ids=["A2-T2", "A3-T4", "D4-T3"],
)
def test_every_twist_preserves_brackets(label, T, cycles):
    """The diagram twist, varsigma, and vartheta for an integral and a
    half-integral lam0 (the latter over the 2-sheeted cover) are Lie
    algebra automorphisms."""
    rank = int(label[1:])
    ctx = OperContext(label, ScalarTower.get(T), DiagramAut.from_cycles(rank, cycles))
    twists = [ctx.alg.diagram_twist(ctx.nu), ctx.varsigma]
    twists += [ctx.vartheta(Coweight((c,) * rank)) for c in (Fraction(1), Fraction(1, 2))]
    assert twists[-1].K is ctx.cover(2).scalars
    for aut in twists:
        assert aut.verify_bracket_preservation()


def test_theta_basis_is_built_once_per_twist(monkeypatch):
    """theta_fixed_nilpotent runs fixed_subspace once for n and once per
    nu-orbit on its first call for a twist, and never again for it; what
    it returns is the caller's own, so changing it leaves the next call's
    result unchanged.  A second twist builds its own."""
    g = build_algebra("A3")
    nu = DiagramAut.from_cycles(3, [[1, 3]])
    ctx = OperContext(g, ScalarTower.get(4), nu)
    th = ctx.vartheta(Coweight((Fraction(1),) * 3))
    calls = []
    real = AlgebraAut.fixed_subspace

    def counted(self, indices, K=None):
        calls.append(self)
        return real(self, indices, K)

    monkeypatch.setattr(AlgebraAut, "fixed_subspace", counted)
    basis, report = theta_fixed_nilpotent(g, th)
    assert calls == [th] * (1 + len(nu.orbits()))
    want = ([list(v) for v in basis], [dict(r, fixed_basis=[list(v) for v in r["fixed_basis"]]) for r in report])
    assert basis and any(r["fixed_basis"] for r in report)
    basis[0][0] = th.K.one
    basis.append(basis[0])
    next(r for r in report if r["fixed_basis"])["fixed_basis"][0].clear()
    report[0]["orbit"] = ()
    report.pop()
    assert theta_fixed_nilpotent(g, th) == want
    assert theta_fixed_nilpotent(g, th) == want
    assert len(calls) == 1 + len(nu.orbits())
    other = ctx.vartheta(Coweight((Fraction(2),) * 3))
    theta_fixed_nilpotent(g, other)
    assert calls[1 + len(nu.orbits()):] == [other] * (1 + len(nu.orbits()))
