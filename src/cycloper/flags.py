"""The flag-variety side: position of a Miura oper in G/B_- as the limit of
the regularised gauge parameter, and the cell decomposition of the
twist-fixed subvariety."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .connection import torus_conjugate_vec
from .context import OperContext
from .errors import LimitUndefined, NotInOpenCell, ValidationError
from .linalg import solve_linear
from .miura import MiuraOper
from .solve import _checked_log


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
        fixed = theta.fixed_subspace([alg.unit(alg.index_E[r], theta.K) for r in roots])
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


def _regularised_log(base: MiuraOper, X):
    """X_r = Ad_{t^-lam0} X with lam0 = -(residue coweight of base at 0),
    over the working context: the q-sheeted cover when lam0 has
    denominator q > 1.  Returns (working context, X_r)."""
    lam0 = base.lam0
    q = lam0.denominator()
    if q is None:
        raise ValidationError("lam0 must be rational")
    wctx = base.ctx.cover(q)
    lifted = [base.ctx.functions.coerce(x).subs_power(q, wctx.functions) for x in X]
    return wctx, torus_conjugate_vec(wctx, lifted, lam0.scale(Fraction(q)))


def flag_position(base: MiuraOper, X) -> FlagPoint:
    """Position Phi(e^X . base) = lim_{t->0} g_r(t) B_- in the flag variety
    of the gauge e^X, X in n given as its log: the Bruhat cell w in W^nu
    and the unipotent coordinates of the point in the cell.  g_r is e^{X_r}
    with X_r = Ad_{t^-lam0} X, on the cover when lam0 is fractional.  When
    X_r is regular at 0 the point is e^{X_r(0)} B_- in the big cell, with
    coordinates X_r(0); otherwise it is the limit of the flag spanned by
    the columns Ad_{e^{X_r}} e_j of b_-, built on Lie vectors."""
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
        # the big cell's roots R(w_o) are all the positive roots
        return FlagPoint(w=W.identity, coordinates=coords, cell_roots=tuple(alg.pos_roots))
    F = wctx.functions
    units = [[F.one if i == j else F.zero for i in range(alg.dim)] for j in range(alg.dim)]
    cols = [alg.ad_series(Xr, e, F) for e, h in zip(units, alg.height_of) if h <= 0]
    return _limit_flag_point(wctx, cols)


def _limit_flag_point(ctx, cols):
    """The flag point lim_{t->0} g B_- from the columns cols[j] = Ad_g e_j
    of the b_- basis vectors over ctx.functions, in basis order.

    One t-adic column echelon: each column, divided by its lowest t-power,
    is reduced at 0 against the earlier pivots by the same constant
    combination of t-columns, and divided by t again while its value at 0
    vanishes.  The values at 0 of the reduced columns span the limit of
    every prefix.  The limit is n w-dot B_- with Ad_n adding only higher
    rows, so the pivots (earliest nonzero rows) are the rows of h and the
    e_{w beta}, beta < 0: the positive roots among them are R(w).  The
    coordinates of n come from one constant solve on the limit moved by
    Ad_{w-dot^-1} into the big cell, and the checked read of solve."""
    alg = ctx.alg
    K = ctx.scalars
    F = ctx.functions
    t = F.gen
    limit, echelon = [], {}
    for col in cols:
        col = [F.coerce(x) for x in col]
        for _ in range(500):
            vals = [x.valuation_at(K.zero) for x in col if x]
            if not vals:
                raise LimitUndefined("zero column in flag limit")
            v = min(vals)
            if v:
                col = [x * t ** (-v) if x else x for x in col]
            val = [x.eval_at(K.zero) if x else K.zero for x in col]
            # in ascending pivot row: lim is zero above its pivot p
            for p in sorted(echelon):
                lim, red = echelon[p]
                if val[p]:
                    c = val[p] / lim[p]
                    val = [a - c * b if b else a for a, b in zip(val, lim)]
                    col = [a - F.coerce(c) * b if b else a for a, b in zip(col, red)]
            if any(val):
                break
        else:
            raise LimitUndefined("flag limit did not stabilise")
        limit.append(val)
        echelon[next(i for i, x in enumerate(val) if x)] = (val, col)
    R = {alg.basis[p][1] for p in echelon if alg.basis[p][0] == "E"}
    W = ctx.weyl
    w = next((w for w in W.nu_invariant_elements(ctx.nu) if set(inversion_set(alg, w)) == R), None)
    if w is None:
        raise LimitUndefined("no Bruhat cell matched the limit flag")
    # w-dot^-1 n w-dot = e^-X is in N: the limit moved by Ad_{w-dot^-1} is
    # a Borel V, and V = Ad_{e^-X} b_- once V cap n = 0 (a singular solve
    # otherwise) and V contains e^{-ad X} rho, its point of rho + n
    for i in w.word:
        limit = [_ad_simple_reflection(alg, i, v, K, -1) for v in limit]
    low = [i for i, h in enumerate(alg.height_of) if h <= 0]
    x = solve_linear(K, [[v[i] for v in limit] for i in low], [K.coerce(alg.rho[i]) for i in low])
    if x is None:
        raise LimitUndefined("the limit moved by w-dot^-1 meets n: not in the big cell")
    point = [sum((c * v[i] for c, v in zip(x, limit) if v[i]), K.zero) for i in range(alg.dim)]
    try:
        X = _checked_log(alg, point, K)
    except NotInOpenCell as e:
        raise LimitUndefined(f"the limit moved by w-dot^-1 is not in the big cell: {e}") from e
    X = [-x for x in X]
    for i in reversed(w.word):
        X = _ad_simple_reflection(alg, i, X, K, 1)
    # the cell group N cap w-dot N w-dot^-1: the alpha > 0 with w^-1 alpha
    # > 0, which is R(w w_o) (R(w_o w) only where -w_o fixes the roots)
    roots = inversion_set(alg, W.mult(w, W.longest))
    rootset = set(roots)
    coords = {}
    for (kind, r), v in zip(alg.basis, X):
        if v:
            if kind != "E" or r not in rootset:
                raise LimitUndefined("conjugated coordinates left the cell group")
            coords[r] = v
    return FlagPoint(w=w, coordinates=coords, cell_roots=tuple(roots))


def _ad_simple_reflection(alg, i, v, K, sign):
    """Ad of s_i-dot = e^{E_i} e^{-F_i} e^{E_i} (sign 1), or of its inverse
    e^{-E_i} e^{F_i} e^{-E_i} (sign -1), on the vector v over K."""
    E = [sign * x for x in alg.vec_E(alg.simple_root(i), K)]
    F = [-sign * x for x in alg.vec_F(alg.simple_root(i), K)]
    return alg.ad_series(E, alg.ad_series(F, alg.ad_series(E, v, K), K), K)
