"""Cyclotomic Gaudin spectra: the trace weight at the origin, Bethe
residuals, energies, the associated Miura oper over the Langlands dual, and
the energy/oper-residue consistency identity."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .automorphisms import AlgebraAut, DiagramAut
from .chevalley import ChevalleyAlgebra, dual_algebra
from .canonical import u1_coefficient, is_regular_at
from .context import OperContext
from .errors import NoDominantRepresentative, ValidationError
from .linalg import QQ
from .miura import MiuraOper, _gamma_orbits_disjoint, miura_from_orbits
from .ratfunc import INFINITY
from .weyl import Coweight, coroot_to_coweight, coweight_to_h, dominant_shift_representative, rho_coweight


def weight_form(alg: ChevalleyAlgebra, lam: Coweight, mu: Coweight, K=None):
    """(lam | mu) on h^* for weights given by their values on the coroots:
    lam^T G mu with G = alg.weight_gram."""
    if K is None:
        K = QQ
    out = K.zero
    for row, x in zip(alg.weight_gram, lam.coords):
        if x:
            for g, y in zip(row, mu.coords):
                if g and y:
                    out = out + K.coerce(g * x * y)
    return out


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


def lambda0_weight(alg, sigma: AlgebraAut, tower) -> Coweight:
    """The trace weight lam0(h) = sum_{r=1}^{T-1} tr_n(sigma^-r ad_h)/(1-w^r)."""
    T = tower.order
    K = tower.scalars
    w = tower.zeta
    # sigma^-1 as (image, factor) data
    inv_img = [None] * alg.dim
    inv_fac = [None] * alg.dim
    for i in range(alg.dim):
        inv_img[sigma.image[i]] = i
        inv_fac[sigma.image[i]] = K.one / K.coerce(sigma.factor[i])
    coords = []
    for i in range(alg.rank):
        total = K.zero
        for r in range(1, T):
            tr = K.zero
            for root in alg.pos_roots:
                idx = alg.index_E[root]
                cur, fac = idx, K.one
                for _ in range(r):
                    fac = fac * inv_fac[cur]
                    cur = inv_img[cur]
                if cur == idx:
                    pairing = alg.root_pairing(root, i)
                    if pairing:
                        tr = tr + fac * pairing
            if tr:
                total = total + tr / (K.one - w ** r)
        coords.append(total)
    return Coweight(coords)


def _gaudin_sum(data: BetheSystemData, k, mu: Coweight):
    """(mu | lambda(t) less its pole at p), at t = p for p the k-th point of
    data.poles: sum_r sum_(q, wt) (mu | nu^r wt)/(p - w^r q) over every
    pole w^r q but p itself, plus (mu | lam0)/p."""
    alg = data.ctx.alg
    K = data.ctx.scalars
    nu = data.ctx.nu
    w = data.ctx.omega
    p = data.poles[k][0]
    acc = K.zero
    for r in range(data.ctx.tower.order):
        for l, (q, wt) in enumerate(data.poles):
            if r or l != k:
                acc = acc + weight_form(alg, mu, nu_power_weight(nu, wt, r), K) / (p - w ** r * q)
    top = weight_form(alg, mu, data.lam0, K)
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
    m, Lctx = miura_from_bethe(data)
    coords = [-c for c in coroot_to_coweight(data.ctx.alg, m.u_coroot).coords]
    return Coweight(coords), m, Lctx


def energies(data: BetheSystemData):
    """Eigenvalues of the quadratic Hamiltonians on the Bethe vector: at
    each site z_i, (lam_i | lambda(t) less its pole at z_i) at z_i."""
    return [_gaudin_sum(data, i, lam) for i, (_, lam) in enumerate(data.sites)]


def energy_oper_identity(data: BetheSystemData):
    """Three exact routes to each energy: the spectral formula, the residue
    of 1/2 (lam|lam) - (lam'|rho), and the residue of 2 (rho|rho) u_1 of the
    dual Miura oper.  Returns a list of dicts."""
    lam, m, Lctx = lambda_function(data)
    F = Lctx.functions
    K = Lctx.scalars
    alg = data.ctx.alg
    rho = rho_coweight(alg.rank)
    lam_d = Coweight([c.derivative() for c in lam.coords])
    half = F.coerce(Fraction(1, 2))
    integrand = weight_form(alg, lam, lam, F) * half - weight_form(alg, lam_d, rho, F)
    conn = m.connection()
    u1 = u1_coefficient(conn)
    rho_h = coweight_to_h(Lctx.alg, rho, K)
    two_rr = Lctx.alg.form_vec(rho_h, rho_h, K) * 2
    Es = energies(data)
    out = []
    for (zi, _), Ei in zip(data.sites, Es):
        r1 = K.coerce(integrand.residue_at(zi))
        r2 = K.coerce((u1 * two_rr).residue_at(zi))
        out.append(
            {
                "energy": Ei,
                "residue_lambda_squared": r1,
                "residue_2rr_u1": r2,
                "equal": Ei == r1 and r1 == r2,
            }
        )
    return out


def bethe_regularity(data: BetheSystemData):
    """(residuals, regular flags): Bethe residual j vanishes iff the dual
    oper is regular at x_j (simple-reflection poles)."""
    residuals = bethe_residuals(data)
    m, Lctx = miura_from_bethe(data)
    conn = m.connection()
    flags = [is_regular_at(conn, xj, cyclotomic=True) for xj in data.roots]
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
