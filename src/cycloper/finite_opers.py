"""Finite opers: canonical (Slodowy slice) representatives of elements of
p_-1 + b under the unipotent adjoint action, in g or in the nu-fixed
subalgebra, and linkage-class helpers."""

from __future__ import annotations

from dataclasses import dataclass

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


def _diagram_aut(alg, nu):
    """The honest diagram automorphism as an AlgebraAut (it carries the +-1
    factors on non-simple root vectors)."""
    from .automorphisms import make_automorphism

    cache = alg.__dict__.setdefault("_diag_aut_cache", {})
    key = nu.perm
    if key not in cache:
        cache[key] = make_automorphism(alg, nu, "diagram", order_divides=nu.order)
    return cache[key]


def nu_fixed_block_basis(alg, nu, height):
    """Echelon basis of the nu-fixed subspace of g_height (full-dim rational
    vectors)."""
    idxs = alg.blocks.get(height, [])
    if not idxs:
        return []
    return _diagram_aut(alg, nu).fixed_subspace(idxs, QQ)


def nu_fixed_centralizer_basis(alg, nu, height):
    """Echelon basis of a^nu cap g_height."""
    vecs = [w for k, w in alg.centralizer_basis if k == height]
    if not vecs:
        return []
    aut = _diagram_aut(alg, nu)
    idxs = alg.blocks.get(height, [])
    cols = []
    for w in vecs:
        img = aut.apply_vec(w, QQ)
        cols.append([img[idx] - w[idx] for idx in idxs])
    mat = [[cols[j][i] for j in range(len(vecs))] for i in range(len(idxs))]
    return [alg.span_vec(x, vecs) for x in kernel_basis(QQ, mat, ncols=len(vecs))]


def slice_gauge(alg, target, K, gauge, nu=None):
    """Drinfeld-Sokolov gauge fixing of target in p_-1 + b (in the nu-fixed
    subalgebra with nu), height by height.

    gauge(m, v, K) is the action of e^m on v, and alg.split_graded writes a
    vector D on g_h as [p_-1, m'] + c with c in the slice, returning
    (m', c, slice coefficients).  At each height the mismatch between
    target and the current candidate gauge(m, p_-1 + c) is split, and m and
    c absorb its two parts.  Returns (m, {height: slice coefficients}); a
    candidate that does not reassemble to target raises MalformedOper."""
    base = [K.coerce(c) for c in alg.p_minus1]
    m = alg.vec_zero(K)
    cvec = alg.vec_zero(K)
    coeffs = {}
    for h in range(alg.height_max + 1):
        cur = gauge(m, [a + c for a, c in zip(base, cvec)], K)
        D = alg.vec_zero(K)
        for i in alg.blocks.get(h, []):
            D[i] = target[i] - cur[i]
        mp, ch, coeffs[h] = alg.split_graded(D, h, K, nu)
        m = [a - b for a, b in zip(m, mp)]
        cvec = [a + b for a, b in zip(cvec, ch)]
    final = gauge(m, [a + c for a, c in zip(base, cvec)], K)
    if not all(a == b for a, b in zip(final, target)):
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
    m, coeff_log = slice_gauge(alg, X, K, alg.ad_series, nu)
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
