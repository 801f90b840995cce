"""Fundamental solutions of Borel-valued connections by height-graded
iterated integration, and the N B_- (big cell) factorisation by block
elimination in the adjoint representation."""

from __future__ import annotations

from .connection import Connection, GroupElement
from .errors import MalformedOper, MonodromyObstruction, NotInOpenCell, ValidationError
from .linalg import SparseMat, mat_inverse, mat_mul
from .ratfunc import poles_of, rational_antiderivative
from .weyl import Coweight, h_to_coweight


def solve_fundamental(conn: Connection, extra_points=()):
    """Y with dY Y^-1 = -A and Y(0) = Id, for b_- valued A regular at 0
    whose h-part is a sum of simple poles with integral coweight residues.
    Returns the MonodromyObstruction value if some integrand has a nonzero
    residue.  extra_points are tried first as roots of the denominators."""
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
    Yh = GroupElement.identity(ctx)
    for p in poles:
        res_vec = [c.residue_at(p) for c in h_vec]
        full = alg.vec_zero(K)
        for i, r in enumerate(res_vec):
            full[i] = K.coerce(r)
        mu = h_to_coweight(alg, full)
        if not mu.is_integral():
            return MonodromyObstruction([(p, mu)], level=0)
        lin = F.gen - F.coerce(p)
        T = GroupElement.torus(ctx, Coweight([-c for c in mu.coords]), base=lin)
        Yh = Yh @ T
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

    # --- strictly lower part, conjugated by the torus solution -----------------
    lower = [
        c if alg.height_of[i] < 0 else F.zero for i, c in enumerate(conn.coeffs)
    ]
    B = Yh.inv.apply(lower)
    adB = alg.ad_of_vec(B, F)
    graded = {}
    for i, row in enumerate(adB.rows):
        for j, v in row.items():
            drop = alg.height_of[j] - alg.height_of[i]
            if drop <= 0:
                raise MalformedOper("conjugated lower part is not height-decreasing")
            graded.setdefault(drop, SparseMat(F, alg.dim, alg.dim)).rows[i][j] = v

    hspan = 2 * alg.height_max
    Z_parts = {0: SparseMat.identity(F, alg.dim)}
    for k in range(1, hspan + 1):
        Mk = SparseMat(F, alg.dim, alg.dim)
        for j, gj in graded.items():
            if j <= k and (k - j) in Z_parts:
                Mk = Mk.add(gj @ Z_parts[k - j])
        Mk = Mk.scale(-F.one)
        Zk = SparseMat(F, alg.dim, alg.dim)
        nonzero = False
        for i, row in enumerate(Mk.rows):
            for j, v in row.items():
                anti = rational_antiderivative(v, extra_points)
                if isinstance(anti, MonodromyObstruction):
                    anti.level = k
                    return anti
                anti = anti - F.coerce(anti.eval_at(K.zero))
                if anti:
                    Zk.rows[i][j] = anti
                    nonzero = True
        if nonzero:
            Z_parts[k] = Zk
    Z = SparseMat.identity(F, alg.dim)
    for k, Zk in Z_parts.items():
        if k:
            Z = Z.add(Zk)

    def yhat_inv():
        # inverse of Z: Neumann series of the nilpotent part
        Nmat = Z.add(SparseMat.identity(F, alg.dim).scale(-F.one))
        Zi = SparseMat.identity(F, alg.dim)
        term = SparseMat.identity(F, alg.dim)
        while True:
            term = (term @ Nmat).scale(-F.one)
            if not any(term.rows[i] for i in range(alg.dim)):
                break
            Zi = Zi.add(term)
        return Zi @ Yh.inv

    Yhat = GroupElement(ctx, Yh.mat @ Z, yhat_inv)

    # --- fix the initial value ---------------------------------------------------
    C0 = Yhat.eval_at(K.zero)
    C0inv = mat_inverse(K, C0)
    if C0inv is None:
        raise MalformedOper("fundamental solution singular at the base point")
    Cel = GroupElement.from_constant(ctx, C0inv, C0)
    Y = GroupElement(ctx, Yhat.mat @ Cel.mat, lambda: Cel.inv @ Yhat.inv)

    # --- exactness: dY + ad_A Y = 0 ----------------------------------------------
    adA = alg.ad_of_vec(conn.coeffs, F)
    check = Y.derivative_matrix().add(adA @ Y.mat)
    if any(check.rows[i] for i in range(alg.dim)):
        raise MalformedOper("fundamental solution verification failed")
    return Y


def gauss_factorize(M: GroupElement):
    """(X, b) with M = e^-X b, X in n(M) the log of the unipotent factor
    and b in B_-(M) a GroupElement; exact block elimination along the
    principal grading.  Raises NotInOpenCell (with the singular grading
    level) when M is not in the big cell, or when the log of the
    eliminating factor does not exponentiate back to it."""
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
    n = GroupElement.exp(ctx, X)
    if not (n.mat == N_acc):
        raise NotInOpenCell(None, "unipotent factor reassembly failed")
    return X, GroupElement(ctx, cur, lambda: M.inv @ n.inv)
