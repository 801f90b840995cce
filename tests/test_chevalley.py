import itertools
import random
from fractions import Fraction

import pytest

from conftest import run_under_O

from cycloper.cartan import CartanDatum
from cycloper.chevalley import build_algebra
from cycloper.errors import MalformedOper, NotFiniteType

# dimensions and exponents from the classical tables: the independent oracle
TABLE = {
    "A1": (3, [1]),
    "A2": (8, [1, 2]),
    "A3": (15, [1, 2, 3]),
    "A4": (24, [1, 2, 3, 4]),
    "B2": (10, [1, 3]),
    "B3": (21, [1, 3, 5]),
    "C3": (21, [1, 3, 5]),
    "G2": (14, [1, 5]),
    "D4": (28, [1, 3, 3, 5]),
    "A1xA1": (6, [1, 1]),
    # exceptional types build through the same generic machinery
    "F4": (52, [1, 5, 7, 11]),
    "E6": (78, [1, 4, 5, 7, 8, 11]),
    # dim = 2 |Phi+| + rank: |Phi+| = 16, 16, 20, 63
    "B4": (36, [1, 3, 5, 7]),
    "C4": (36, [1, 3, 5, 7]),
    "D5": (45, [1, 3, 4, 5, 7]),
    "E7": (133, [1, 5, 7, 9, 11, 13, 17]),
}


@pytest.mark.parametrize("label", sorted(TABLE))
def test_dimensions_and_exponents(label):
    g = build_algebra(label)
    dim, exps = TABLE[label]
    assert g.dim == dim
    assert g.exponents == exps
    assert len([w for k, w in g.centralizer_basis]) == g.rank


def _basis_vec(g, i):
    v = g.vec_zero()
    v[i] = Fraction(1)
    return v


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "D4"])
def test_serre_relations(label):
    g = build_algebra(label)
    n = g.rank
    A = g.cartan.matrix
    E = [g.vec_E(g.simple_root(i)) for i in range(n)]
    Fv = [g.vec_F(g.simple_root(i)) for i in range(n)]
    H = [g.vec_H(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            assert not any(g.bracket_vec(H[i], H[j]))
            assert g.bracket_vec(H[i], E[j]) == [A[i][j] * x for x in E[j]]
            assert g.bracket_vec(H[i], Fv[j]) == [-A[i][j] * x for x in Fv[j]]
            br = g.bracket_vec(E[i], Fv[j])
            assert br == (H[i] if i == j else g.vec_zero())
            # ad_{E_i}^{1-a_ij} E_j = 0
            if i != j:
                cur = E[j]
                for _ in range(1 - A[i][j]):
                    cur = g.bracket_vec(E[i], cur)
                assert not any(cur)
                cur = Fv[j]
                for _ in range(1 - A[i][j]):
                    cur = g.bracket_vec(Fv[i], cur)
                assert not any(cur)


@pytest.mark.parametrize("label", ["A2", "A3", "B2", "G2"])
def test_jacobi_full(label):
    g = build_algebra(label)
    for i, j, k in itertools.combinations(range(g.dim), 3):
        ei, ej, ek = _basis_vec(g, i), _basis_vec(g, j), _basis_vec(g, k)
        s1 = g.bracket_vec(ei, g.bracket_vec(ej, ek))
        s2 = g.bracket_vec(ej, g.bracket_vec(ek, ei))
        s3 = g.bracket_vec(ek, g.bracket_vec(ei, ej))
        assert not any(a + b + c for a, b, c in zip(s1, s2, s3))


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "D4"])
def test_grading(label):
    g = build_algebra(label)
    for i in range(g.dim):
        for j in range(g.dim):
            br = g.bracket_basis(i, j)
            for k in br:
                assert g.height_of[k] == g.height_of[i] + g.height_of[j]


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "D4"])
def test_principal_triple(label):
    g = build_algebra(label)
    two_rho = [2 * c for c in g.rho]
    assert g.bracket_vec(g.p1, g.p_minus1) == two_rho
    assert g.bracket_vec(g.rho, g.p1) == g.p1
    assert g.bracket_vec(g.rho, g.p_minus1) == [-c for c in g.p_minus1]
    # ad_{p1} annihilates every centralizer vector
    for k, w in g.centralizer_basis:
        assert not any(g.bracket_vec(g.p1, w))


def test_principal_triple_coefficients():
    # p1 = sum c_i E_i with 2 rho = sum c_i coroot_i
    assert build_algebra("A2").two_rho_coeffs == [2, 2]
    assert build_algebra("A3").two_rho_coeffs == [3, 4, 3]


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "D4"])
def test_graded_decomposition(label):
    """g_i = [p_-1, g_{i+1}] (+) a cap g_i: checked by dimension and
    independence via the precomputed splitting inverse."""
    g = build_algebra(label)
    for h in range(0, g.height_max + 1):
        inv, m_basis, a_basis, idxs = g.split_data(h)
        assert len(m_basis) + len(a_basis) == len(idxs)
        if idxs:
            assert inv is not None
        mult = sum(1 for k in g.exponents if k == h)
        assert len(a_basis) == mult


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "D4"])
def test_form_invariance(label):
    g = build_algebra(label)
    rng = random.Random(3)
    for _ in range(60):
        i, j, k = (rng.randrange(g.dim) for _ in range(3))
        ei, ej, ek = _basis_vec(g, i), _basis_vec(g, j), _basis_vec(g, k)
        assert g.form_vec(g.bracket_vec(ei, ej), ek) == g.form_vec(ei, g.bracket_vec(ej, ek))


@pytest.mark.parametrize("label", ["A3", "B2", "G2", "D4"])
def test_structure_constants_are_pm_p_plus_one(label):
    g = build_algebra(label)
    for (a, b), N in g._N.items():
        p = g._string_down(a, b)
        assert abs(N) == p + 1


def test_long_roots_have_squared_length_two():
    for label in ("A2", "B2", "G2"):
        g = build_algebra(label)
        lengths = {g.root_form(r, r) for r in g.pos_roots}
        assert max(lengths) == 2


def test_type_a_matrix_realization():
    """Cross-check the abstract structure constants against gl_{n+1}: map the
    generators to elementary matrices and verify every bracket."""
    for n in (2, 3):
        g = build_algebra(f"A{n}")
        size = n + 1

        def emat(i, j):
            m = [[Fraction(0)] * size for _ in range(size)]
            m[i][j] = Fraction(1)
            return m

        def lie(a, b):
            out = [[Fraction(0)] * size for _ in range(size)]
            for i in range(size):
                for j in range(size):
                    acc = Fraction(0)
                    for k in range(size):
                        acc += a[i][k] * b[k][j] - b[i][k] * a[k][j]
                    out[i][j] = acc
            return out

        # build the image of each basis vector via the extraspecial recipe
        img = {}
        for i in range(n):
            r = g.simple_root(i)
            img[g.index_E[r]] = emat(i, i + 1)
            img[g.index_F[r]] = emat(i + 1, i)
            h = [[Fraction(0)] * size for _ in range(size)]
            h[i][i], h[i + 1][i + 1] = Fraction(1), Fraction(-1)
            img[g.index_H[i]] = h
        for r in g.pos_roots:
            if sum(r) == 1:
                continue
            a, b = g._espair[r]
            N = g._N[(a, b)]
            m = lie(img[g.index_E[a]], img[g.index_E[b]])
            img[g.index_E[r]] = [[x / N for x in row] for row in m]
            m = lie(img[g.index_F[a]], img[g.index_F[b]])
            img[g.index_F[r]] = [[-x / N for x in row] for row in m]
        # verify every bracket
        for i in range(g.dim):
            for j in range(g.dim):
                br = g.bracket_basis(i, j)
                want = lie(img[i], img[j])
                got = [[Fraction(0)] * size for _ in range(size)]
                for k, c in br.items():
                    for p in range(size):
                        for q in range(size):
                            got[p][q] += c * img[k][p][q]
                assert got == want, (g.basis[i], g.basis[j])


def _leading_minors(A):
    minors = [A[0][0], A[0][0] * A[1][1] - A[0][1] * A[1][0]]
    if len(A) == 3:
        minors.append(sum(A[0][p[0]] * A[1][p[1]] * A[2][p[2]] * s for p, s in
                          (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                           ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1))))
    return minors


def _generalized_cartan_matrices(n):
    """Every n x n matrix with diagonal 2, off-diagonal entries in
    {0, -1, -2, -3} and a_ij = 0 exactly when a_ji = 0."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    links = [(0, 0)] + list(itertools.product((-1, -2, -3), repeat=2))
    for choice in itertools.product(links, repeat=len(pairs)):
        A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), (a, b) in zip(pairs, choice):
            A[i][j], A[j][i] = a, b
        yield A


def test_not_finite_type():
    with pytest.raises(NotFiniteType):
        CartanDatum.from_rows([[2, -2], [-2, 2]])  # affine A1
    with pytest.raises(NotFiniteType):
        CartanDatum.from_rows([[2, -1], [0, 2]])   # asymmetric zero pattern
    for rows in ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],  # affine A2
                 [[2, -3], [-3, 2]], [[2, -1], [-4, 2]]):
        with pytest.raises(NotFiniteType, match="not positive definite"):
            CartanDatum.from_rows(rows)
    # the leading minors of diag(d) A are those of A times positive d's: a
    # matrix is rejected exactly when one of A's own is <= 0
    for n in (2, 3):
        for A in _generalized_cartan_matrices(n):
            finite = all(m > 0 for m in _leading_minors(A))
            try:
                CartanDatum.from_rows(A)
            except NotFiniteType as e:
                assert not finite and "not positive definite" in str(e), A
            else:
                assert finite, A


def test_fundamental_rep_attached_for_type_a():
    """Type A algebras carry the (n+1)-dimensional realization; the paper
    conventions put p_-1 on the subdiagonal."""
    from cycloper.chevalley import fundamental_matrix, fundamental_rep

    g = build_algebra("A2")
    rep = fundamental_rep(g)
    assert rep is not None and len(rep) == g.dim
    M = fundamental_matrix(g, g.p_minus1)
    assert M == [
        [Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
    ]
    # rho-check = diag(1, 0, -1)
    R = fundamental_matrix(g, g.rho)
    assert R == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(-1)],
    ]
    assert fundamental_rep(build_algebra("B2")) is None


def test_fundamental_rep_over_functions():
    """The realization renders connections as matrices over the functions,
    matching the displayed one-pole example."""
    from cycloper.chevalley import fundamental_matrix
    from cycloper.context import OperContext
    from cycloper.tower import ScalarTower
    from cycloper.weyl import Coweight, coweight_to_h
    from cycloper.automorphisms import DiagramAut

    eta = 2
    ctx = OperContext("A2", ScalarTower.get(2), DiagramAut.from_cycles(2, [[1, 2]]))
    F = ctx.functions
    t = F.gen
    hv = coweight_to_h(ctx.alg, Coweight((Fraction(eta), Fraction(eta))), F)
    vec = [F.coerce(a) - b / t for a, b in zip(ctx.alg.p_minus1, hv)]
    M = fundamental_matrix(ctx.alg, vec)
    assert M[0][0] == -F.coerce(eta) / t
    assert M[1][1] == F.zero
    assert M[2][2] == F.coerce(eta) / t
    assert M[1][0] == F.one and M[2][1] == F.one


def test_split_data_failure_is_typed(monkeypatch):
    """A height whose graded splitting matrix is singular raises
    MalformedOper instead of an assertion."""
    import cycloper.chevalley as chevalley

    g = build_algebra("A2")
    monkeypatch.setattr(chevalley, "mat_inverse", lambda K, M: None)
    with pytest.raises(MalformedOper, match="graded splitting failed"):
        g.split_data(1)


_CENTRALIZER_CHECK_UNDER_O = """
import cycloper.chevalley as chevalley
from cycloper.errors import MalformedOper

chevalley.kernel_basis = lambda K, rows, ncols=None: []
try:
    chevalley.build_algebra("A2")
    raise SystemExit("no error")
except MalformedOper:
    pass
"""


def test_centralizer_check_survives_python_O():
    """A centralizer of p1 whose dimension is not the rank raises
    MalformedOper, also under python -O."""
    run = run_under_O(_CENTRALIZER_CHECK_UNDER_O)
    assert run.returncode == 0, run.stdout + run.stderr


SPLIT_LABELS = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "A1xA1", "A2xB2"]


@pytest.mark.parametrize("label", SPLIT_LABELS)
def test_identity_nu_split_is_the_plain_split(label):
    """With the identity nu the nu-fixed bases are the plain ones, so the
    folded and the plain split share their data."""
    from cycloper.automorphisms import DiagramAut

    g = build_algebra(label)
    nu = DiagramAut.from_cycles(g.rank, [])
    for h in range(g.height_max + 1):
        assert g.split_data(h, nu) == g.split_data(h)


@pytest.mark.parametrize("label, cycles", [("A2", [[1, 2]]), ("A3", [[1, 3]]), ("D4", [[1, 3, 4]])])
def test_nu_split_left_inverse(label, cycles):
    """inv is a left inverse of [ad_{p_-1} m_basis | a_basis]: a random
    nu-fixed [p_-1, m] + c splits back into m and c; where g_h^nu is a
    proper subspace of g_h, moving one coordinate raises MalformedOper."""
    from cycloper.automorphisms import DiagramAut
    from cycloper.linalg import QQ

    g = build_algebra(label)
    nu = DiagramAut.from_cycles(g.rank, cycles)
    rng = random.Random(5)
    for h in range(g.height_max + 1):
        inv, m_basis, a_basis, idxs = g.split_data(h, nu)
        mc = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in m_basis]
        ac = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in a_basis]
        m = g.span_vec(mc, m_basis)
        c = g.span_vec(ac, a_basis)
        X = [a + b for a, b in zip(g.bracket_vec(g.p_minus1, m), c)]
        assert g.split_graded(X, h, QQ, nu) == (m, c, ac)
        if len(m_basis) + len(a_basis) < len(idxs):
            X[idxs[0]] += 1
            with pytest.raises(MalformedOper):
                g.split_graded(X, h, QQ, nu)


def test_nu_split_of_an_empty_fixed_block():
    """A2, nu = (1 2): g_2^nu = 0, so A has no columns, inv is empty and
    only X = 0 splits at height 2."""
    from cycloper.automorphisms import DiagramAut

    g = build_algebra("A2")
    nu = DiagramAut.from_cycles(2, [[1, 2]])
    inv, m_basis, a_basis, idxs = g.split_data(2, nu)
    assert inv == [] and m_basis == [] and a_basis == [] and len(idxs) == 1
    assert g.split_graded(g.vec_zero(), 2, nu=nu) == (g.vec_zero(), g.vec_zero(), [])
    X = g.vec_zero()
    X[idxs[0]] = Fraction(1)
    with pytest.raises(MalformedOper, match="nu-fixed"):
        g.split_graded(X, 2, nu=nu)


def _weight_form_by_solving(alg, c, d):
    """(lam|mu) = sum l_i m_j d_i a_ij / scale_i with A^T l = c, A^T m = d."""
    A = alg.cartan.matrix
    l = alg.solve_cartan_transpose(c)
    m = alg.solve_cartan_transpose(d)
    scale = {i: alg.form_scales[ci] for ci, comp in enumerate(alg.components) for i in comp}
    return sum((l[i] * m[j] * alg.d[i] * A[i][j] / scale[i]
                for i in range(alg.rank) for j in range(alg.rank)), Fraction(0))


@pytest.mark.parametrize("label", SPLIT_LABELS)
def test_weight_gram_is_the_induced_form(label):
    """weight_gram = A^-1 B (A^T)^-1 gives the form of two solves, on
    random rational coweights, for the algebra and its Langlands dual."""
    from cycloper.bethe import weight_form
    from cycloper.chevalley import dual_algebra
    from cycloper.weyl import Coweight

    rng = random.Random(11)
    g = build_algebra(label)
    for alg in (g, dual_algebra(g)):
        G = alg.weight_gram
        assert all(G[i][j] == G[j][i] for i in range(alg.rank) for j in range(alg.rank))
        for _ in range(10):
            c = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(alg.rank)]
            d = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(alg.rank)]
            assert weight_form(alg, Coweight(c), Coweight(d)) == _weight_form_by_solving(alg, c, d)
