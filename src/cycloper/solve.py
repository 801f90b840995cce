"""Fundamental solutions of Borel-valued connections as a torus factor
times e^Z, Z integrated height by height on Lie-algebra vectors, and the
N B_- (big cell) factorisation by block elimination in the adjoint
representation."""

from __future__ import annotations

from .connection import Connection, GroupElement, exp_gauge, torus_conjugate_vec
from .errors import MalformedOper, MonodromyObstruction, NotInOpenCell, ValidationError
from .linalg import SparseMat, mat_inverse, mat_mul
from .ratfunc import poles_of, rational_antiderivative
from .weyl import Coweight, h_to_coweight


def solve_fundamental(conn: Connection, extra_points=()):
    """Y with dY Y^-1 = -A and Y(0) = Id, for b_- valued A regular at 0
    whose h-part is a sum of simple poles with integral coweight residues.

    Y = D e^Z on B_- = H N_-: D = prod_p (1 - t/p)^-mu_p carries the h-part
    (mu_p its residue at p), and Z in n_- solves (d e^Z) e^-Z = -B with
    B = Ad_{D^-1} of the lower part, one height at a time, Z(0) = 0.
    Returns the MonodromyObstruction value if some entry of Z' has a
    nonzero residue.  extra_points are tried first as roots of the
    denominators."""
    ctx = conn.ctx
    alg = ctx.alg
    F = ctx.functions
    K = ctx.scalars
    for i, c in enumerate(conn.coeffs):
        if alg.height_of[i] > 0 and c:
            raise MalformedOper("solve_fundamental needs a b_- valued connection")
        if c and not c.is_regular_at(K.zero):
            raise MalformedOper("connection must be regular at the base point 0")

    # --- torus part ---------------------------------------------------------
    h_vec = conn.h_part()
    poles = []
    leftover = list(h_vec)
    for c in h_vec:
        if not c:
            continue
        for p, m in poles_of(c, extra_points):
            if m > 1:
                return MonodromyObstruction(
                    [(p, c.principal_part_at(p)[-1])], level=0
                )
            if all(p != q for q in poles):
                poles.append(p)
    D = GroupElement.identity(ctx)
    B = [c if alg.height_of[i] < 0 else F.zero for i, c in enumerate(conn.coeffs)]
    for p in poles:
        res_vec = [c.residue_at(p) for c in h_vec]
        full = alg.vec_zero(K)
        for i, r in enumerate(res_vec):
            full[i] = K.coerce(r)
        mu = h_to_coweight(alg, full)
        if not mu.is_integral():
            return MonodromyObstruction([(p, mu)], level=0)
        # p != 0 since A is regular at 0, and 1 - t/p is 1 there
        base = F.one - F.gen / F.coerce(p)
        minus_mu = Coweight([-c for c in mu.coords])
        D = D @ GroupElement.torus(ctx, minus_mu, base=base)
        B = torus_conjugate_vec(ctx, B, minus_mu, base)
        lin = F.gen - F.coerce(p)
        for i in range(alg.dim):
            if alg.height_of[i] == 0 and leftover[i]:
                leftover[i] = leftover[i] - F.coerce(full[i]) / lin
    if any(leftover[i] for i in range(alg.dim) if alg.height_of[i] == 0):
        bad = [
            (str(alg.basis[i][1] + 1), str(leftover[i]))
            for i in range(alg.dim)
            if alg.height_of[i] == 0 and leftover[i]
        ]
        return MonodromyObstruction([], unresolved=[f"non-exponentiable h-part: {bad}"], level=0)

    # --- unipotent part: Z' = -B - (the brackets of the lower heights) --------
    Z = alg.vec_zero(F)
    dZ = alg.vec_zero(F)
    for k in range(1, alg.height_max + 1):
        S = alg.ad_series(Z, dZ, F, shift=1)
        for i in alg.blocks.get(-k, []):
            dZ[i] = -B[i] - S[i]
            anti = rational_antiderivative(dZ[i], extra_points)
            if isinstance(anti, MonodromyObstruction):
                anti.level = k
                return anti
            Z[i] = anti - F.coerce(anti.eval_at(K.zero))

    if any(exp_gauge(ctx, [-z for z in Z], B)):
        raise MalformedOper("fundamental solution verification failed")
    return D @ GroupElement.exp(ctx, Z)


def gauss_factorize(M: GroupElement):
    """X in n(M) with M = e^-X b for some b in B_-(M): the log of the
    unipotent factor, by exact block elimination along the principal
    grading.  Raises NotInOpenCell (with the singular grading level) when
    M is not in the big cell, or when the log of the eliminating factor
    does not exponentiate back to it."""
    ctx = M.ctx
    alg = ctx.alg
    F = ctx.functions
    cur = M.mat.clone()
    N_acc = SparseMat.identity(F, alg.dim)
    heights = sorted(alg.blocks)

    # classic block LU sweep along the principal filtration: for each pivot
    # block (ascending height) eliminate every raising block below it; the
    # accumulated row operations form the unit-raising factor n with
    # n M in B_- (non-raising)
    for hc in heights:
        cols = alg.blocks[hc]
        pivot = [[cur.rows[i].get(j, F.zero) for j in cols] for i in cols]
        pinv = mat_inverse(F, pivot)
        if pinv is None:
            raise NotInOpenCell(hc)
        for hr in heights:
            if hr <= hc:
                continue
            rows = alg.blocks[hr]
            blk = [[cur.rows[i].get(j, F.zero) for j in cols] for i in rows]
            if not any(any(r) for r in blk):
                continue
            mult = mat_mul(F, blk, pinv)
            for a, i in enumerate(rows):
                for b2, j in enumerate(cols):
                    m_ab = mult[a][b2]
                    if not m_ab:
                        continue
                    for mat in (cur, N_acc):
                        src = mat.rows[j]
                        dst = mat.rows[i]
                        for col, v in src.items():
                            nv = dst.get(col, F.zero) - m_ab * v
                            if nv:
                                dst[col] = nv
                            else:
                                dst.pop(col, None)
    # cur must now be non-raising
    for i in range(alg.dim):
        for j, v in cur.rows[i].items():
            if v and alg.height_of[i] > alg.height_of[j]:
                raise NotInOpenCell(alg.height_of[j], "elimination left a raising defect")
    try:
        X = GroupElement(ctx, N_acc, None).log_vec()
    except (ValidationError, MalformedOper) as e:
        raise NotInOpenCell(None, f"unipotent factor is not in N: {e}")
    if not (GroupElement.exp(ctx, X).mat == N_acc):
        raise NotInOpenCell(None, "unipotent factor reassembly failed")
    return X
