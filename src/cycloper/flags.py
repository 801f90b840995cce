"""The flag-variety side: position of a Miura oper in G/B_- as the limit of
the regularised gauge parameter, and the cell decomposition of the
twist-fixed subvariety."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .connection import GroupElement, torus_conjugate_vec
from .context import OperContext
from .errors import LimitUndefined, ValidationError
from .linalg import kernel_basis, mat_inverse, mat_mul, mat_vec, rref, solve_linear
from .miura import MiuraOper
from .weyl import Coweight


def inversion_set(alg, w):
    """R(w) = {alpha > 0 : w^-1 alpha < 0}.  w.matrix acts on the pairing
    coordinates <alpha_i, lam>, so w.matrix^T gives w^-1 on simple-root
    coordinates: <alpha, w lam> = <w^-1 alpha, lam>."""
    n = alg.rank
    cols = list(zip(*w.matrix))
    return [r for r in alg.pos_roots
            if all(sum(c[j] * r[j] for j in range(n)) <= 0 for c in cols)]


@dataclass
class FlagCell:
    w: object                 # WeylElement in W^nu
    roots: tuple              # R(w_o w), the coordinates of the cell
    fixed_basis: list         # basis of Lie(U_{w_o w})^theta (algebra vectors)

    @property
    def dimension(self):
        return len(self.fixed_basis)


def fixed_flag_cells(ctx: OperContext, theta) -> list:
    """Cells of the theta-fixed flag subvariety: one per w in W^nu, with the
    theta-fixed part of Lie(U_{w_o w})."""
    alg = ctx.alg
    W = ctx.weyl
    cells = []
    wo = W.longest
    for w in W.nu_invariant_elements(ctx.nu):
        wow = W.mult(wo, w)
        roots = inversion_set(alg, wow)
        idxs = [alg.index_E[r] for r in roots]
        fixed = theta.fixed_subspace(idxs) if idxs else []
        cells.append(FlagCell(w=w, roots=tuple(roots), fixed_basis=fixed))
    cells.sort(key=lambda c: c.w.length)
    return cells


@dataclass
class FlagPoint:
    w: object
    coordinates: dict          # positive root -> scalar, the exp-coordinates of n
    cell_roots: tuple

    def __repr__(self):
        coords = {r: str(c) for r, c in self.coordinates.items()}
        return f"FlagPoint(w={self.w!r}, coords={coords})"


def _limit_span(ctx, cols):
    """Limit at t -> 0 of the span of the given RatFunc columns: a list of
    scalar vectors spanning the limit subspace."""
    K = ctx.scalars
    F = ctx.functions
    t = F.gen
    work = [[F.coerce(x) for x in c] for c in cols]
    for _ in range(500):
        scaled = []
        for c in work:
            vals = [x.valuation_at(K.zero) for x in c if x]
            if not vals:
                raise LimitUndefined("zero column in flag limit")
            v = min(vals)
            scaled.append([x * t ** (-v) if x else x for x in c])
        M0 = [[x.eval_at(K.zero) for x in c] for c in scaled]
        if _subspace_rank(K, M0) == len(scaled):
            return M0
        # a kernel combination raises valuation; fold it into one column
        kb = _kernel_of_columns(K, M0)
        j = max(i for i, c in enumerate(kb) if c)
        comb = [F.zero] * len(scaled[0])
        for i, c in enumerate(kb):
            if c:
                for r in range(len(comb)):
                    comb[r] = comb[r] + scaled[i][r] * F.coerce(c)
        work[j] = comb
        for i in range(len(work)):
            if i != j:
                work[i] = scaled[i]
    raise LimitUndefined("flag limit did not stabilise")


def _kernel_of_columns(K, cols):
    m = len(cols)
    n = len(cols[0])
    rows = [[cols[c][i] for c in range(m)] for i in range(n)]
    kb = kernel_basis(K, rows, ncols=m)
    if not kb:
        raise LimitUndefined("no kernel though rank deficient")
    return kb[0]


def _subspace_rank(K, vecs):
    return len(rref(K, [list(v) for v in vecs])[1])


def _regularised_log(base: MiuraOper, X):
    """X_r = Ad_{t^-lam0} X with lam0 = -(residue coweight of base at 0),
    over the working context: the q-sheeted cover when lam0 has
    denominator q > 1.  Returns (working context, X_r)."""
    lam0 = Coweight([-c for c in base.residue_coweight(0).coords])
    q = lam0.denominator()
    if q is None:
        raise ValidationError("lam0 must be rational")
    ctx = base.ctx
    wctx = ctx.cover(q) if q > 1 else ctx
    lifted = [ctx.functions.coerce(x).subs_power(q, wctx.functions) for x in X] if q > 1 else X
    return wctx, torus_conjugate_vec(wctx, lifted, lam0.scale(Fraction(q)))


def flag_position(base: MiuraOper, X) -> FlagPoint:
    """Position Phi(e^X . base) = lim_{t->0} g_r(t) B_- in the flag variety
    of the gauge e^X, X in n given as its log: the Bruhat cell w in W^nu
    and the unipotent coordinates of the point in the cell.  g_r is e^{X_r}
    with X_r = Ad_{t^-lam0} X, on the cover when lam0 is fractional.  When
    X_r is regular at 0 the point is e^{X_r(0)} B_- in the big cell, with
    coordinates X_r(0); otherwise it is the limit of the flag spanned by
    the columns of exp(ad X_r)."""
    alg = base.ctx.alg
    if any(x for (kind, _), x in zip(alg.basis, X) if kind != "E"):
        raise ValidationError("flag_position needs the log of a unipotent gauge (supported on n)")
    wctx, Xr = _regularised_log(base, X)
    K = wctx.scalars
    if all(x.is_regular_at(K.zero) for x in Xr):
        coords = {}
        for (_, r), x in zip(alg.basis, Xr):
            v = x.eval_at(K.zero)
            if v:
                coords[r] = v
        W = wctx.weyl
        return FlagPoint(w=W.identity, coordinates=coords, cell_roots=tuple(inversion_set(alg, W.longest)))
    return _limit_flag_point(wctx, GroupElement.exp(wctx, Xr).mat)


def _limit_flag_point(ctx, mat):
    """The flag point lim_{t->0} g B_- of the adjoint matrix g = mat over
    ctx.functions: the limit of the flag spanned by its columns, taken in
    ascending height, matched to a Bruhat cell of W^nu (all of W when nu
    is trivial)."""
    alg = ctx.alg
    F = ctx.functions
    heights = sorted(alg.blocks)
    order = []
    for h in heights:
        order.extend(alg.blocks[h])
    cols = [[mat.rows[r].get(idx, F.zero) for r in range(alg.dim)] for idx in order]
    flags = []
    acc = 0
    for h in heights:
        acc += len(alg.blocks[h])
        flags.append((h, _limit_span(ctx, cols[:acc])))
    return _match_cell(ctx, flags)


def _match_cell(ctx, flags):
    """Identify the Bruhat cell of the limit flag by its intersection
    pattern with the reference flag, then solve for the unipotent
    coordinates."""
    alg = ctx.alg
    K = ctx.scalars
    W = ctx.weyl
    heights = sorted(alg.blocks)
    # the cells are B-orbits, so the relative-position invariant is taken
    # against the B-stable ascending flag F+_h = sum of heights >= h
    ref_plus = {}
    acc = []
    for h in sorted(heights, reverse=True):
        acc = acc + alg.blocks[h]
        ref_plus[h] = list(acc)
    lower_ref = {}
    acc = []
    for h in heights:
        acc = acc + alg.blocks[h]
        lower_ref[h] = list(acc)

    def plus_vecs(h):
        out = []
        for i in ref_plus[h]:
            v = [K.zero] * alg.dim
            v[i] = K.one
            out.append(v)
        return out

    for w in sorted(W.nu_invariant_elements(ctx.nu), key=lambda x: (x.length, x.word)):
        wdot = GroupElement.weyl_representative(ctx, w)
        Wd = wdot.eval_at(K.zero, K)
        ok = True
        for (h1, Vbasis) in flags:
            for h2 in heights:
                pv = plus_vecs(h2)
                vr = _subspace_rank(K, [list(v) for v in Vbasis] + pv)
                wv = [[Wd[r][i] for r in range(alg.dim)] for i in lower_ref[h1]]
                wr = _subspace_rank(K, wv + pv)
                if vr != wr:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            # the block-level dimension pattern rules this cell out
            continue
        # the pattern is only a prefilter at block resolution; membership is
        # decided by the coordinate solve itself (cells are disjoint, so at
        # most one candidate survives)
        try:
            coords = _cell_coordinates(ctx, w, Wd, flags)
        except LimitUndefined:
            continue
        wo = W.longest
        return FlagPoint(w=w, coordinates=coords, cell_roots=tuple(inversion_set(alg, W.mult(wo, w))))
    raise LimitUndefined("no Bruhat cell matched the limit flag")


def _cell_coordinates(ctx, w, Wd, flags):
    """Unipotent coordinates of a point in the cell of w: translate by
    w-dot^-1 into the big cell (w^-1 R(w_o w) is positive, so the translate
    of the coordinate group lies in N), solve there, conjugate back."""
    alg = ctx.alg
    K = ctx.scalars
    W = ctx.weyl
    roots = inversion_set(alg, W.mult(W.longest, w))
    if not roots:
        return {}
    Winv = mat_inverse(K, Wd)
    chosen = []
    col_height = []
    for h, Vbasis in flags:
        for v in Vbasis:
            cand = chosen + [list(v)]
            if _subspace_rank(K, cand) > len(chosen):
                chosen.append(list(v))
                col_height.append(h)
    # big-cell translate: columns of Wd^-1 P
    Pp = mat_mul(K, Winv, list(zip(*chosen)))
    Pcols = list(zip(*Pp))

    def defects(xvec, level=None):
        negx = [-c for c in xvec]
        Q = [alg.ad_series(negx, col, K) for col in Pcols]  # Ad_{e^-x} of each column
        out = []
        for i in range(alg.dim):
            for c in range(len(chosen)):
                d = alg.height_of[i] - col_height[c]
                if d > 0 and (level is None or d == level):
                    out.append(Q[c][i])
        return out

    x = alg.vec_zero(K)
    for k in range(1, alg.height_max + 1):
        base = defects(x, k)
        if not any(base):
            continue
        gens = [
            r for r in alg.pos_roots if sum(r) == k
        ]
        cols = []
        for r in gens:
            xe = list(x)
            xe[alg.index_E[r]] = xe[alg.index_E[r]] + K.one
            d = defects(xe, k)
            cols.append([a - b for a, b in zip(d, base)])
        A = [[cols[c][i] for c in range(len(cols))] for i in range(len(base))]
        sol = solve_linear(K, A, [-b for b in base])
        if sol is None:
            raise LimitUndefined(f"level-{k} defect not solvable in the big-cell translate")
        for r, c in zip(gens, sol):
            x[alg.index_E[r]] = x[alg.index_E[r]] + c
    if any(defects(x)):
        raise LimitUndefined("cell coordinates did not close up")
    # conjugate back: log n = Ad_wdot (log n')
    nvec = mat_vec(K, Wd, x)
    out = {}
    rootset = set(roots)
    for i, v in enumerate(nvec):
        if v:
            kind, r = alg.basis[i]
            if kind != "E" or r not in rootset:
                raise LimitUndefined("conjugated coordinates left the cell group")
            out[r] = v
    return out
