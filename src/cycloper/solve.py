"""Fundamental solutions of Borel-valued connections as a torus factor
times e^Z, Z integrated height by height on Lie-algebra vectors, and the
N B_- (big cell) factor solved from the inverse action on Lie vectors."""

from __future__ import annotations

from fractions import Fraction

from .connection import Connection, exp_gauge, torus_conjugate_vec, torus_frame
from .errors import MalformedOper, MonodromyObstruction, NotInOpenCell
from .linalg import solve_linear
from .ratfunc import clear, poles_of, rational_antiderivative
from .weyl import h_to_coweight


def solve_fundamental(conn: Connection, extra_points=()):
    """Y with dY Y^-1 = -A and Y(0) = Id, for b_- valued A regular at 0
    whose h-part is a sum of simple poles with integral coweight residues.

    Y = D e^Z on B_- = H N_-: D = prod_p (1 - t/p)^-mu_p carries the h-part
    (mu_p its residue at p), and Z in n_- solves (d e^Z) e^-Z = -B with
    B = Ad_{D^-1} of the lower part, one height at a time, Z(0) = 0.
    Returns (torus, Z) with torus the list of (mu_p, 1 - t/p), so that
    Ad_D = prod_p torus_conjugate_vec(., mu_p, 1 - t/p); or the
    MonodromyObstruction value if some entry of Z' has a nonzero residue.
    extra_points are tried first as roots of the denominators."""
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
    torus = []
    B = [c if alg.height_of[i] < 0 else F.zero for i, c in enumerate(conn.coeffs)]
    for p in poles:
        full = [K.coerce(c.residue_at(p)) for c in h_vec]
        mu = h_to_coweight(alg, full)
        if not mu.is_integral():
            return MonodromyObstruction([(p, mu)], level=0)
        # p != 0 since A is regular at 0, and 1 - t/p is 1 there
        base = F.one - F.gen / F.coerce(p)
        torus.append((mu, base))
        B = torus_conjugate_vec(ctx, B, -mu, base)
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
    return torus, Z


def gauss_factorize(ctx, act):
    """X in n with M = e^-X b for some b in B_-, given the inverse action
    act(v) = Ad_{M^-1} v on Lie vectors over ctx.functions, which is
    called on rho and on the e_alpha of n only (v in h + n).

    Ad_{b^-1} rho = Ad_{M^-1} e^{-ad X} rho lies in rho + n_-, and
    e^{-ad X} rho = rho + p with p in n.  So the positive part of
    y = act(rho) + sum_a p_a act(e_a) vanishes: one unknown and one
    equation per positive root, ordered from the highest root down, one
    linear solve, after which X is read height by height.

    Certificate: the read gives e^{-ad X} rho = rho + p, and y lies in
    rho + n_-.  Then the regular rho lies in the Borel Ad_{e^X M} b_-,
    which so contains h and is Ad_w b_- for a Weyl w; the h-part of
    y = Ad_{(e^X M)^-1} rho is then w^-1 rho = rho, so w = 1 and e^X M is
    in B_-.  Raises NotInOpenCell when the solve is singular or the
    certificate fails."""
    alg = ctx.alg
    F = ctx.functions
    pos = [alg.index_E[r] for r in reversed(alg.pos_roots)]
    rho = [F.coerce(x) for x in alg.rho]
    r = act(rho)
    cols = [act([F.one if j == i else F.zero for j in range(alg.dim)]) for i in pos]
    ps = solve_linear(F, [[c[i] for c in cols] for i in pos], [-r[i] for i in pos])
    if ps is None:
        raise NotInOpenCell("the solve for p is singular: M is not in the big cell")
    w = list(rho)
    for x, i in zip(ps, pos):
        w[i] = x
    # read and checked on polynomials in the torus frame of w, which fixes
    # rho; the certificate as L y = L rho on h + n, L = s^theta, which
    # every s^alpha divides
    Pw, spow = torus_frame(ctx, w)
    X = [x / p for x, p in zip(_checked_log(alg, Pw, F), spow)]
    L = spow[pos[0]]
    Lp = [(clear(w[i], L), c) for i, c in zip(pos, cols) if w[i]]
    for k, h in enumerate(alg.height_of):
        if h >= 0 and sum((q * c[k] for q, c in Lp if c[k]), L * (r[k] - rho[k])):
            raise NotInOpenCell("e^X M is not in B_-: certificate failed")
    return X


def _checked_log(alg, w, K):
    """X in n with e^{-ad X} rho = w, for w in rho + n: the read of
    _read_log, checked by the series (NotInOpenCell when it fails)."""
    X = _read_log(alg, w, K)
    if alg.ad_series([-x for x in X], [K.coerce(x) for x in alg.rho], K) != w:
        raise NotInOpenCell("e^{-ad X} rho != rho + p: certificate failed")
    return X


def _read_log(alg, w, F):
    """X in n from w = e^{-ad X} rho: the height-k part of w is
    k X_k + (the height-k part of e^{-ad X_<k} rho)."""
    rho = [F.coerce(x) for x in alg.rho]
    X = alg.vec_zero(F)
    for k in range(1, alg.height_max + 1):
        S = alg.ad_series([-x for x in X], rho, F) if k > 1 else rho
        inv = F.coerce(Fraction(1, k))
        for i in alg.blocks.get(k, []):
            X[i] = (w[i] - S[i]) * inv
    return X
