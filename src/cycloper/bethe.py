"""Cyclotomic Gaudin spectra: the trace weight at the origin, Bethe
residuals, energies, the associated Miura oper over the Langlands dual, and
the energy/oper-residue consistency identity."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .automorphisms import AlgebraAut, DiagramAut
from .chevalley import ChevalleyAlgebra, dual_algebra
from .canonical import canonical_representative, is_regular_at, u1_numerator
from .context import OperContext
from .errors import NoDominantRepresentative, ValidationError
from .linalg import QQ
from .miura import MiuraOper, _gamma_orbits_disjoint, miura_from_orbits
from .ratfunc import INFINITY, LaurentRing
from .weyl import Coweight, coroot_to_coweight, dominant_shift_representative, rho_coweight


def weight_form(alg: ChevalleyAlgebra, lam: Coweight, mu: Coweight, K=None):
    """(lam | mu) on h^* for weights given by their values on the coroots:
    sum_i lam_i (G mu)_i with G mu = gram_row(alg, mu), coerced into K once
    (rational sums stay Fraction)."""
    return _pair(K or QQ, lam, gram_row(alg, mu))


def gram_row(alg: ChevalleyAlgebra, mu: Coweight) -> tuple:
    """G mu for G = alg.weight_gram."""
    return tuple(sum(g * y for g, y in zip(row, mu.coords) if g and y) for row in alg.weight_gram)


def _pair(K, lam: Coweight, row):
    """(lam | mu) in K from row = gram_row(alg, mu)."""
    out = 0
    for x, s in zip(lam.coords, row):
        if x and s:
            out = out + x * s
    return K.coerce(out)


def nu_power_weight(nu: DiagramAut, lam: Coweight, r: int) -> Coweight:
    out = lam
    for _ in range(r % nu.order if nu.order else 0):
        out = nu.apply_coweight(out)
    return out


@dataclass
class BetheSystemData:
    ctx: OperContext                 # context of g
    sigma: AlgebraAut                # sigma with diagram part nu, sigma^T = Id
    sites: list                     # (z_i, lam_i) with lam_i a weight Coweight
    colours: list                   # 0-based simple indices c(j)
    roots: list                     # Bethe roots x_j (scalars)

    def __post_init__(self):
        K = self.ctx.scalars
        self.sites = [(K.coerce(z), lam) for z, lam in self.sites]
        self.roots = [K.coerce(x) for x in self.roots]
        if len(self.colours) != len(self.roots):
            raise ValidationError("need one colour per Bethe root")
        _gamma_orbits_disjoint(self.ctx, [z for z, _ in self.sites])
        # a Bethe root at the origin is admissible in the trivial-twist case
        # (lam0 = 0, Gamma = 1), which the worked examples use
        _gamma_orbits_disjoint(
            self.ctx, [z for z, _ in self.sites] + list(self.roots), allow_origin=True
        )

    @cached_property
    def lam0(self) -> Coweight:
        return lambda0_weight(self.ctx.alg, self.sigma, self.ctx.tower)

    @cached_property
    def poles(self) -> list:
        """The Gamma-orbit representatives of the poles of lambda(t) away
        from 0 with their weights: (z_i, lam_i), then (x_j, -alpha_c(j))."""
        alg = self.ctx.alg
        return self.sites + [(x, -_root_weight(alg, c)) for x, c in zip(self.roots, self.colours)]

    @cached_property
    def dual_oper(self) -> MiuraOper:
        """The Miura oper over the Langlands dual with u = -lambda(t)."""
        return miura_from_orbits(self.ctx.dual, self.lam0, self.poles)

    @cached_property
    def lam(self) -> Coweight:
        """lambda(t) as a Coweight of rational functions (values on coroots)."""
        u = self.dual_oper.u_coroot
        return -coroot_to_coweight(self.ctx.alg, u)

    @cached_property
    def orbits(self) -> tuple:
        """(m, e, rows, top) for the orbit sums of _gaudin_sum: m = T/ord nu,
        e[s] = w^(s m) for s < ord nu, a row (q^m, [G nu^s wt]) per pole and
        top = G lam0, with G nu^s wt the Gram row of weight_form, so that
        (mu | nu^s wt) = sum_i mu_i (G nu^s wt)_i."""
        alg, nu = self.ctx.alg, self.ctx.nu
        o = nu.order
        m = self.ctx.tower.order // o
        e = [self.ctx.tower.zeta_power(s * m) for s in range(o)]
        rows = [(q ** m, [gram_row(alg, nu_power_weight(nu, wt, s)) for s in range(o)]) for q, wt in self.poles]
        return m, e, rows, gram_row(alg, self.lam0)

    @cached_property
    def site_energies(self) -> list:
        """The energies, one per site; see energies."""
        return [_gaudin_sum(self, i, lam) for i, (_, lam) in enumerate(self.sites)]


def lambda0_weight(alg, sigma: AlgebraAut, tower) -> Coweight:
    """The trace weight lam0(h) = sum_{r=1}^{T-1} tr_n(sigma^-r ad_h)/(1-w^r),
    for sigma a twist of alg: computed once per tower and kept on sigma."""
    if tower not in sigma._trace_weights:
        sigma._trace_weights[tower] = _trace_weight(alg, sigma, tower)
    return sigma._trace_weights[tower]


def _trace_weight(alg, sigma, tower):
    """lambda0_weight's sum.  sigma^-r maps the line of E_root to itself
    when the walk of E_root along sigma^-1 is back after r steps: one walk
    per root serves every r."""
    T = tower.order
    K = tower.scalars
    # sigma^-1 as (image, factor) data
    inv_img = [None] * alg.dim
    inv_fac = [None] * alg.dim
    for i in range(alg.dim):
        inv_img[sigma.image[i]] = i
        inv_fac[sigma.image[i]] = K.one / K.coerce(sigma.factor[i])
    inv = [None] + [K.one / (K.one - tower.zeta_power(r)) for r in range(1, T)]
    coords = [K.zero] * alg.rank
    for root in alg.pos_roots:
        idx = alg.index_E[root]
        cur, fac = idx, K.one
        for r in range(1, T):
            fac = fac * inv_fac[cur]
            cur = inv_img[cur]
            if cur == idx:
                c = fac * inv[r]
                for i in range(alg.rank):
                    pairing = alg.root_pairing(root, i)
                    if pairing:
                        coords[i] = coords[i] + c * pairing
    return Coweight(coords)


def _gaudin_sum(data: BetheSystemData, k, mu: Coweight):
    """(mu | lambda(t) less its pole at p), at t = p for p the k-th point of
    data.poles: sum_r sum_(q, wt) (mu | nu^r wt)/(p - w^r q) over every
    pole w^r q but p itself, plus (mu | lam0)/p.

    Orbits sum in closed form as in miura_from_orbits, with (m, e) of
    data.orbits: the orbit of q != p gives
    sum_(s<o) (mu | nu^s wt) m p^(m-1)/(p^m - e[s] q^m).  That of p gives
    (mu | wt)(m-1)/(2p) at s = 0, as sum_(0<j<m) 1/(1 - w^(o j)) = (m-1)/2,
    and (mu | nu^s wt) m/(p(1 - e[s])) at 0 < s < o.  A T = 1 Bethe root at
    p = 0 has m = 1 and lam0 = 0: no term divides by p."""
    K = data.ctx.scalars
    m, e, rows, lam0_row = data.orbits
    p = data.poles[k][0]
    pm = rows[k][0]
    lead = p ** (m - 1) * m
    acc = K.zero
    for l, (qm, wts) in enumerate(rows):
        for s, row in enumerate(wts):
            c = _pair(K, mu, row)
            if not c:
                continue
            if l != k:
                acc = acc + c * lead / (pm - e[s] * qm)
            elif s:
                acc = acc + c * m / (p * (K.one - e[s]))
            elif m > 1:
                acc = acc + c * Fraction(m - 1, 2) / p
    top = _pair(K, mu, lam0_row)
    if top:
        acc = acc + top / p
    return acc


def bethe_residuals(data: BetheSystemData):
    """Right sides of the cyclotomic Bethe equations, one exact scalar per
    Bethe root x_j: (alpha_c(j) | lambda(t) less its pole at x_j) at x_j."""
    alg, n = data.ctx.alg, len(data.sites)
    return [_gaudin_sum(data, n + j, _root_weight(alg, c)) for j, c in enumerate(data.colours)]


def _root_weight(alg, k) -> Coweight:
    """alpha_k as a weight: values <alpha_k, coroot_j> = a_jk."""
    A = alg.cartan.matrix
    return Coweight(tuple(Fraction(A[j][k]) for j in range(alg.rank)))


def miura_from_bethe(data: BetheSystemData):
    """The cyclotomic Miura oper over the Langlands dual built from the
    rational weight function lambda(t), once per data; returns (MiuraOper,
    dual context)."""
    return data.dual_oper, data.ctx.dual


def lambda_function(data: BetheSystemData):
    """lambda(t) as a Coweight of rational functions (values on coroots)."""
    return (data.lam, *miura_from_bethe(data))


def energies(data: BetheSystemData):
    """Eigenvalues of the quadratic Hamiltonians on the Bethe vector: at
    each site z_i, (lam_i | lambda(t) less its pole at z_i) at z_i, once per data."""
    return list(data.site_energies)


def energy_oper_identity(data: BetheSystemData):
    """Three exact routes to each energy: the spectral formula, the residue
    of 1/2 (lam|lam) - (lam'|rho), and the residue of 2 (rho|rho) u_1 of the
    dual Miura oper.  Both residues are read at the site from Laurent
    expansions of the coordinates of lambda and of the dual oper's
    coefficients; neither rational function is formed.  Returns a list of
    dicts."""
    lam, m, Lctx = lambda_function(data)
    L = LaurentRing(Lctx.scalars)
    alg = data.ctx.alg
    rho = rho_coweight(alg.rank)
    half = Fraction(1, 2)
    coeffs = m.connection().coeffs
    out = []
    for (zi, _), Ei in zip(data.sites, energies(data)):
        lam_z, coeffs_z = _expand_at(L, zi, lam.coords, coeffs)
        lam_z = Coweight(lam_z)
        lam_d = Coweight([c.derivative() for c in lam_z.coords])
        r1 = (weight_form(alg, lam_z, lam_z, L) * half - weight_form(alg, lam_d, rho, L)).coeff(-1)
        r2 = u1_numerator(Lctx.alg, coeffs_z, L).coeff(-1)
        out.append(
            {
                "energy": Ei,
                "residue_lambda_squared": r1,
                "residue_2rr_u1": r2,
                "equal": Ei == r1 and r1 == r2,
            }
        )
    return out


def _expand_at(L, z, *groups):
    """The rational functions of each group as Laurent series at z over the
    facade L, constants exact, the others to O(s^P): P the highest pole
    order there, at least 1, so that coefficient -1 of a product of two
    of them, and of a derivative, is known."""
    prec = 1
    while True:
        out = [[L.coerce(f.constant_value()) if f.is_constant() else f.laurent_at(z, prec)
                for f in fs] for fs in groups]
        k = max([-x.val for xs in out for x in xs if x], default=0)
        if k <= prec:
            return out
        prec = k


def bethe_regularity(data: BetheSystemData):
    """(residuals, regular flags): Bethe residual j vanishes iff the dual
    oper is regular at x_j (simple-reflection poles).  One canonical form
    serves every root."""
    residuals = bethe_residuals(data)
    m, Lctx = miura_from_bethe(data)
    can = canonical_representative(m.connection())
    flags = [is_regular_at(can, xj, cyclotomic=True) for xj in data.roots]
    return residuals, flags


def weight_at_infinity(data: BetheSystemData):
    """The dominant nu-invariant representative of -res_inf lambda dt in the
    shifted W^nu-orbit, with the matching w_inf."""
    lam, m, Lctx = lambda_function(data)
    K = Lctx.scalars
    minus_res = Coweight([-K.coerce(c.residue_at(INFINITY)) for c in lam.coords])
    rep = dominant_shift_representative(Lctx.weyl, minus_res, data.ctx.nu)
    if rep is None:
        raise NoDominantRepresentative(f"{minus_res} has no dominant shifted representative")
    lam_inf, w_inf = rep
    return lam_inf, w_inf
