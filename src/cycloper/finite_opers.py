"""Finite opers: canonical (Slodowy slice) representatives of elements of
p_-1 + b under the unipotent adjoint action, in g or in the nu-fixed
subalgebra, and linkage-class helpers."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedOper
from .linalg import QQ, kernel_basis, solve_linear
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

    cache = getattr(alg, "_diag_aut_cache", None)
    if cache is None:
        cache = alg._diag_aut_cache = {}
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
    kb = kernel_basis(QQ, mat, ncols=len(vecs))
    out = []
    for x in kb:
        w = alg.vec_zero()
        for c, v in zip(x, vecs):
            if c:
                for idx in idxs:
                    w[idx] += c * v[idx]
        out.append(w)
    return out


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

    Degree-by-degree scalar specialisation of the canonical-form algorithm:
    all derivative terms absent."""
    X = [K.coerce(x) for x in X]
    _check_oper_shape(alg, X, K)
    target = X
    m = alg.vec_zero(K)
    base = [K.coerce(c) for c in alg.p_minus1]
    cvec = alg.vec_zero(K)
    coeff_log = {}
    if nu is not None:
        fixed = {
            h: (
                nu_fixed_block_basis(alg, nu, h + 1),
                nu_fixed_centralizer_basis(alg, nu, h),
            )
            for h in range(0, alg.height_max + 1)
        }
    for h in range(0, alg.height_max + 1):
        cur = alg.ad_series(m, [b + c for b, c in zip(base, cvec)], K)
        diff = [t - c for t, c in zip(target, cur)]
        Dh = alg.vec_zero(K)
        nonzero = False
        for idx in alg.blocks.get(h, []):
            if diff[idx]:
                Dh[idx] = diff[idx]
                nonzero = True
        if not nonzero:
            if nu is None:
                _, _, acoeffs = alg.split_graded(alg.vec_zero(K), h, K)
                coeff_log[h] = acoeffs
            else:
                coeff_log[h] = [K.zero] * len(fixed[h][1])
            continue
        if nu is None:
            mp, ch, acoeffs = alg.split_graded(Dh, h, K)
            m_new = [-x for x in mp]
        else:
            m_basis, a_basis = fixed[h]
            idxs = alg.blocks.get(h, [])
            cols = []
            for v in m_basis:
                img = alg.bracket_vec([K.coerce(c) for c in alg.p_minus1], [K.coerce(c) for c in v], K)
                cols.append([img[j] for j in idxs])
            for v in a_basis:
                cols.append([K.coerce(v[j]) for j in idxs])
            A = [[cols[c][r] for c in range(len(cols))] for r in range(len(idxs))]
            b = [Dh[j] for j in idxs]
            sol = solve_linear(K, A, b) if A and A[0] else []
            if sol is None:
                raise MalformedOper("graded splitting failed in the nu-fixed subalgebra")
            mp = alg.vec_zero(K)
            for u, bv in zip(sol[: len(m_basis)], m_basis):
                if u:
                    for j, c in enumerate(bv):
                        if c:
                            mp[j] = mp[j] + u * K.coerce(c)
            acoeffs = sol[len(m_basis):]
            ch = alg.vec_zero(K)
            for u, bv in zip(acoeffs, a_basis):
                if u:
                    for j, c in enumerate(bv):
                        if c:
                            ch[j] = ch[j] + u * K.coerce(c)
            m_new = [-x for x in mp]
        m = [a + b2 for a, b2 in zip(m, m_new)]
        cvec = [a + b2 for a, b2 in zip(cvec, ch)]
        coeff_log[h] = acoeffs
    # exactness check
    final = alg.ad_series(m, [b + c for b, c in zip(base, cvec)], K)
    if final != target:
        raise MalformedOper("canonical form reassembly failed")
    if nu is None:
        exponents = tuple(alg.exponents)
        coeffs = []
        for k in sorted(set(alg.exponents)):
            coeffs.extend(coeff_log.get(k, []))
        cls = FiniteOperClass(exponents, tuple(coeffs))
    else:
        exps, coeffs = [], []
        for h in range(1, alg.height_max + 1):
            a_basis = fixed[h][1]
            got = coeff_log.get(h, [K.zero] * len(a_basis))
            for q, _ in enumerate(a_basis):
                exps.append(h)
                coeffs.append(got[q] if q < len(got) else K.zero)
        cls = FiniteOperClass(tuple(exps), tuple(coeffs), folded=True)
    return cls, m


def class_of_coweight(alg, lam: Coweight, K=QQ, nu=None):
    """Finite-oper class of the linkage class [lam]: canonical form of
    p_-1 - lam - rho."""
    rho = rho_coweight(alg.rank)
    hvec = coweight_to_h(alg, lam + rho, K)
    X = [K.coerce(c) for c in alg.p_minus1]
    X = [a - b for a, b in zip(X, hvec)]
    cls, _ = finite_canonical(alg, X, K, nu)
    return cls
