"""Fundamental solutions of Borel-valued connections as a torus factor
times e^Z, Z integrated height by height on Lie-algebra vectors, and the
N B_- (big cell) factor read from the columns of b_- on Lie vectors."""

from __future__ import annotations

import math
from fractions import Fraction

from .connection import Connection, exp_gauge, torus_conjugate_vec
from .errors import MalformedOper, MonodromyObstruction, NotInOpenCell
from .linalg import rref
from .ratfunc import _common_denominator, poles_of, rational_antiderivative
from .weyl import Coweight, h_to_coweight


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
        B = torus_conjugate_vec(ctx, B, Coweight([-c for c in mu.coords]), base)
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


def gauss_factorize(ctx, cols):
    """X in n with M = e^-X b for some b in B_-, given the columns
    cols[j] = Ad_M e_j of the b_- basis vectors (the indices j of height
    <= 0 come first in the basis).

    e^{-ad X} rho = M y for the y in b_- with Ad_b y = rho, and the rows of
    height <= 0 of M y are rho: one linear solve, after which X is read
    height by height.  The certificate e^{ad X} M F_i in n_- for every
    simple i proves e^X M in B_-, since n_- is generated by the F_i and
    its normaliser is B_-.  Raises NotInOpenCell when the solve is
    singular or the certificate fails."""
    alg = ctx.alg
    F = ctx.functions
    m = len(cols)
    rows = [[col[i] for col in cols] + [F.coerce(alg.rho[i])] for i in range(m)]
    red, pivots = rref(F, rows, ncols=m)
    if len(pivots) < m:
        raise NotInOpenCell("Ad_M b_- meets n: M is not in the big cell")
    w = alg.vec_zero(F)
    for row, col in zip(red, cols):
        w = [a + row[m] * c if c else a for a, c in zip(w, col)]
    X = _read_log(alg, w, F)
    # the certificate on polynomials: phi scales the coordinate of each
    # root alpha = sum_j m_j alpha_j by prod_j s_j^m_j, an automorphism for
    # any nonzero s_j, and phi(e^{ad X} c) = e^{ad phi(X)} phi(c); the s_j
    # make phi(X) polynomial, and a shift by the largest m_j makes phi(c) so
    rank = alg.rank
    exps = [r if kind == "E" else [-e for e in r] if kind == "F" else [0] * rank
            for kind, r in alg.basis]
    s = [F.one] * rank
    for r, x in zip(exps, X):
        d = (_character(s, r) * x).den if x else ()
        if len(d) > 1:
            j = next(j for j, e in enumerate(r) if e)
            s[j] = s[j] * F.from_coeffs(d)
    top = [max(r[j] for r in alg.pos_roots) for j in range(rank)]
    Xs = [_character(s, r) * x if x else x for r, x in zip(exps, X)]
    shift = [_character(s, [e + t for e, t in zip(r, top)]) for r in exps]
    for i in range(rank):
        c = cols[alg.index_F[alg.simple_root(i)]]
        q = _common_denominator(F, c)
        c = [q * x for x in c]
        out = alg.ad_series(Xs, [f * x if x else x for f, x in zip(shift, c)], F)
        if any(v for v, h in zip(out, alg.height_of) if h >= 0):
            raise NotInOpenCell("e^X M is not in B_-: certificate failed")
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


def _character(s, exps):
    """prod_j s_j^e_j for exponents e_j >= 0."""
    return math.prod([sj ** e for sj, e in zip(s, exps)])
