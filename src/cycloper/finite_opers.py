"""Finite opers: canonical (Slodowy slice) representatives of elements of
p_-1 + b under the unipotent adjoint action, in g or in the nu-fixed
subalgebra, and linkage-class helpers."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import MalformedOper
from .linalg import QQ, kernel_basis
from .weyl import Coweight, coweight_to_h, rho_coweight


@dataclass(frozen=True)
class FiniteOperClass:
    """Slodowy coefficients of the canonical representative
    p_-1 + sum c_k p_k (p_k the recorded centralizer basis; for folded
    classes the nu-fixed echelon basis of a^nu)."""

    exponents: tuple
    coefficients: tuple
    folded: bool = False
    negated: bool = False

    def __str__(self):
        body = ", ".join(f"c_{k}={c}" for k, c in zip(self.exponents, self.coefficients))
        pre = "-" if self.negated else ""
        return f"{pre}[{body}]" + ("^nu" if self.folded else "")


def nu_fixed_block_basis(alg, nu, height):
    """Echelon basis of the nu-fixed subspace of g_height (full-dim rational
    vectors)."""
    idxs = alg.blocks.get(height, [])
    if not idxs:
        return []
    return alg.diagram_twist(nu).fixed_subspace(idxs, QQ)


def nu_fixed_centralizer_basis(alg, nu, height):
    """Echelon basis of a^nu cap g_height."""
    vecs = [w for k, w in alg.centralizer_basis if k == height]
    if not vecs:
        return []
    aut = alg.diagram_twist(nu)
    idxs = alg.blocks.get(height, [])
    cols = []
    for w in vecs:
        img = aut.apply_vec(w, QQ)
        cols.append([img[idx] - w[idx] for idx in idxs])
    mat = [[cols[j][i] for j in range(len(vecs))] for i in range(len(idxs))]
    return [alg.span_vec(x, vecs) for x in kernel_basis(QQ, mat, ncols=len(vecs))]


def slice_gauge(alg, target, K, gauge, deriv=None, nu=None):
    """Drinfeld-Sokolov gauge fixing of target in p_-1 + b (in the nu-fixed
    subalgebra with nu), height by height, each graded piece made once.

    e^m . (p_-1 + c) is the sum of the pieces of Q_k = ad_m^k (p_-1 + c) / k!
    and, when K has a derivation, of V_k = -ad_m^k m' / (k+1)!, with m' the
    vector deriv(m_h, h) on each height h.  The
    unknowns m_{h+1}, c_h enter height h only through [m_{h+1}, p_-1] + c_h,
    so every other height-h piece is a bracket of m_<=h with stored pieces
    of lower height.  alg.split_graded writes their mismatch D against
    target as [p_-1, x] + c_h with c_h in the slice, and m_{h+1} = -x.
    Returns (m, {height: slice coefficients}); gauge(m, v), the
    full action, checks the result once, and a mismatch raises
    MalformedOper."""
    top = alg.height_max + 1
    base = [K.coerce(c) for c in alg.p_minus1]
    m, cvec = alg.vec_zero(K), list(base)
    Q = [{-1: base}] + [{} for _ in range(top)]  # Q[k][j], V[k][j]: on g_j
    V = [{} for _ in range(top + 1)]
    m_at, coeffs = {}, {}  # m_at[i]: the height-i part of m
    for h in range(top):
        idxs = alg.blocks.get(h, [])
        D = alg.vec_zero(K)
        for j in idxs:
            D[j] = target[j]
        for S, shift in ((Q, 0), (V, 1)):
            for k in range(1, h + 2):
                piece = None
                for i, x in m_at.items():
                    if h - i in S[k - 1]:
                        b = alg.bracket_vec(x, S[k - 1][h - i], K)
                        if piece is None:
                            piece = b
                        else:
                            for j in idxs:
                                piece[j] = piece[j] + b[j]
                if piece is not None and any(piece[j] for j in idxs):
                    if k + shift > 1:
                        inv = K.coerce(Fraction(1, k + shift))
                        for j in idxs:
                            piece[j] = piece[j] * inv
                    S[k][h] = piece
            for k in range(h + 2):
                for j in idxs if h in S[k] else ():
                    D[j] = D[j] - S[k][h][j]
        mp, ch, coeffs[h] = alg.split_graded(D, h, K, nu)
        if any(mp):
            m_at[h + 1] = mh = [-x for x in mp]
            for j in alg.blocks[h + 1]:
                m[j] = mh[j]
            if deriv is not None:
                V[0][h + 1] = deriv(mp, h + 1)
        if any(ch):
            Q[0][h] = ch
            for j in idxs:
                cvec[j] = ch[j]
        # [m_{h+1}, p_-1] = D - c_h, the split being exact, completes Q_1 on g_h
        lin = [D[j] - ch[j] for j in idxs]
        if any(lin):
            piece = Q[1].setdefault(h, alg.vec_zero(K))
            for j, x in zip(idxs, lin):
                piece[j] = piece[j] + x
    if gauge(m, cvec) != list(target):
        raise MalformedOper("canonical-form reassembly failed")
    return m, coeffs


def _check_oper_shape(alg, X, K):
    for idx in range(alg.dim):
        h = alg.height_of[idx]
        if h < 0:
            kind, r = alg.basis[idx]
            want = K.one if sum(r) == 1 else K.zero
            if X[idx] != want:
                raise MalformedOper(
                    f"element is not in p_-1 + b: F-coefficient at {r} is {X[idx]}"
                )


def finite_canonical(alg, X, K=QQ, nu=None):
    """Unique representative of X in p_-1 + a (or p_-1 + a^nu) under N
    (resp. N^nu), plus the gauge parameter m with exp(ad_m)(canonical) = X.

    The scalar case of slice_gauge: the gauge is exp(ad_m), with no
    derivative term."""
    X = [K.coerce(x) for x in X]
    _check_oper_shape(alg, X, K)
    m, coeff_log = slice_gauge(alg, X, K, lambda m, v: alg.ad_series(m, v, K), nu=nu)
    if nu is None:
        coeffs = []
        for k in sorted(set(alg.exponents)):
            coeffs.extend(coeff_log.get(k, []))
        return FiniteOperClass(tuple(alg.exponents), tuple(coeffs)), m
    exps, coeffs = [], []
    for h in range(1, alg.height_max + 1):
        exps.extend([h] * len(coeff_log[h]))
        coeffs.extend(coeff_log[h])
    return FiniteOperClass(tuple(exps), tuple(coeffs), folded=True), m


def class_of_coweight(alg, lam: Coweight, K=QQ, nu=None):
    """Finite-oper class of the linkage class [lam]: canonical form of
    p_-1 - lam - rho."""
    rho = rho_coweight(alg.rank)
    hvec = coweight_to_h(alg, lam + rho, K)
    X = [K.coerce(c) for c in alg.p_minus1]
    X = [a - b for a, b in zip(X, hvec)]
    cls, _ = finite_canonical(alg, X, K, nu)
    return cls
