"""Miura opers and the reproduction procedures: simple-root, commuting
(A1-type) orbits, non-commuting (A2-type) orbits, and the generic
factorisation route through the fundamental solution."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .automorphisms import AlgebraAut
from .connection import (
    Connection,
    exp_gauge,
    is_equivariant,
    lift_to_cover,
    regularize,
    torus_conjugate_vec,
)
from .context import OperContext
from .errors import (
    CyclotomyObstruction,
    FixedPointViolation,
    MalformedOper,
    MonodromyObstruction,
    NoRationalSolution,
    OrbitCollision,
    RiccatiViolated,
    SeedNotSolution,
    ValidationError,
)
from .ratfunc import INFINITY, RatFunc, partial_fractions, rational_antiderivative, as_rational
from .solve import gauss_factorize, solve_fundamental
from .weyl import Coweight, coroot_to_coweight, coweight_to_h, rho_coweight


@dataclass
class MiuraOper:
    """d + p_-1 dt + u dt with u stored in coroot coordinates."""

    ctx: OperContext
    u_coroot: list  # one RatFunc per simple index: u = sum_j u_j coroot_j
    # 0 and the Gamma-orbit points it was built with: the candidate roots
    # for splitting denominators that come from u
    points: tuple = field(default=(), compare=False)

    def __post_init__(self):
        F = self.ctx.functions
        self.u_coroot = [F.coerce(c) for c in self.u_coroot]

    def connection(self) -> Connection:
        ctx = self.ctx
        F = ctx.functions
        alg = ctx.alg
        coeffs = [F.coerce(c) for c in alg.p_minus1]
        for j, m in enumerate(self.u_coroot):
            if m:
                coeffs[alg.index_H[j]] = coeffs[alg.index_H[j]] + m
        return Connection(ctx, coeffs, "oper")

    def pairing(self, k):
        """<alpha_k, u(t)> (0-based k)."""
        return coroot_to_coweight(self.ctx.alg, self.u_coroot).coords[k]

    def residue_coweight(self, p) -> Coweight:
        K = self.ctx.scalars
        return coroot_to_coweight(self.ctx.alg, [K.coerce(c.residue_at(p)) for c in self.u_coroot])

    def is_cyclotomic(self) -> bool:
        return is_equivariant(self.connection(), self.ctx.varsigma)

    def __repr__(self):
        body = "; ".join(f"coroot_{j+1}: {c}" for j, c in enumerate(self.u_coroot) if c)
        return f"MiuraOper(d + p_-1 dt + [{body}] dt)"


@dataclass
class ReproductionResult:
    old: MiuraOper
    new: MiuraOper
    gauge: list                    # X in n(F): the gauge is e^X, e^X . old = new
    branch: str                    # 'regular-at-0' | 'singular-at-0'
    ledger: dict                   # point -> (res before, res after) as Coweights
    cyclotomic: bool
    factor_n: list | None = None   # generic route: log n of the factor, on the cover
    cover_power: int = 1           # generic route: q of the cover t = u^q


def _gamma_orbits_disjoint(ctx, points, allow_origin=False):
    """OrbitCollision, naming the first earlier point hit, when two points
    share a Gamma-orbit: nonzero p and q do exactly when p^T == q^T."""
    K = ctx.scalars
    T = ctx.tower.order
    seen = []
    for p in points:
        p = K.coerce(p)
        if not p and not (allow_origin and T == 1):
            raise OrbitCollision("site at the origin is not allowed")
        pT = p ** T
        for q, qT in seen:
            if qT == pT:
                raise OrbitCollision(f"Gamma-orbits collide at {q}")
        seen.append((p, pT))


def miura_from_orbits(ctx: OperContext, top: Coweight, poles) -> MiuraOper:
    """u(t) = -top/t - sum_r sum_(p, cw) nu^r(cw)/(t - w^r p) for poles a
    list of (point, coweight); the points of the oper are 0 and every
    w^r p, in that order.

    With o = ord nu and m = T/o, nu^(s + o j) = nu^s and the w^(o j) are
    the m-th roots of unity: sum_j 1/(t - a w^(o j)) = m t^(m-1)/(t^m - a^m)."""
    alg = ctx.alg
    K = ctx.scalars
    F = ctx.functions
    o = ctx.nu.order
    u = [F.zero] * alg.rank
    points = [K.zero]

    def sub_pole(cw: Coweight, a, m):
        # u -= h(cw) m t^(m-1)/(t^m - a^m), coprime unless a = 0 < m - 1
        hv = coweight_to_h(alg, cw, K)
        den = (-a ** m,) + (K.zero,) * (m - 1) + (K.one,)
        for j in range(alg.rank):
            c = hv[alg.index_H[j]]
            if c:
                u[j] = u[j] - RatFunc(F, (K.zero,) * (m - 1) + (c * m,), den, reduce=not a)

    sub_pole(top, K.zero, 1)
    for p, cw in poles:
        orbit = [K.coerce(p) * ctx.omega ** r for r in range(ctx.tower.order)]
        for s in range(o):
            sub_pole(cw, orbit[s], ctx.tower.order // o)
            cw = ctx.nu.apply_coweight(cw)
        points += orbit
    return MiuraOper(ctx, u, tuple(points))


def build_miura(ctx: OperContext, lam0: Coweight, sites=(), extra=(), w0=None) -> MiuraOper:
    """u(t) = -w0.lam0/t - sum_r sum_i nu^r(w_i.lam_i)/(t - w^r z_i)
                      - sum_r sum_j nu^r(y_j.0)/(t - w^r x_j)."""
    if not lam0.is_nu_invariant(ctx.nu):
        raise ValidationError("lam0 must be nu-invariant")
    _gamma_orbits_disjoint(ctx, [z for z, *_ in sites] + [x for x, _ in extra])
    poles = []
    for entry in sites:
        wi = entry[2] if len(entry) > 2 else None
        poles.append((entry[0], wi.dot(entry[1]) if wi is not None else entry[1]))
    zero = Coweight.zero(ctx.alg.rank)
    poles += [(x, yj.dot(zero) if yj is not None else zero) for x, yj in extra]
    out = miura_from_orbits(ctx, w0.dot(lam0) if w0 is not None else lam0, poles)
    if not out.is_cyclotomic():
        raise ValidationError("constructed Miura oper is not cyclotomic (bad inputs?)")
    return out


# ---------------------------------------------------------------------------
# Riccati machinery
# ---------------------------------------------------------------------------

def riccati_solve(q, mode="general", constant=0, extra_points=()):
    """Solutions of f' + f^2 + f q = 0 with rational data.

    q must have only simple finite poles with integer residues and zero
    polynomial part; extra_points (the points of the Miura oper that q
    comes from, say) are tried first as roots of its denominators.
    general mode: f = Q/(int Q + C) with Q = exp(-int q); singular mode:
    the unique solution with leading term (eta+1)/t where eta = -res_0 q."""
    F = q.field
    K = F.coeff
    if not q:
        Q = F.one
    else:
        pf = partial_fractions(q, extra_points)
        if any(pf.polynomial_part):
            raise NoRationalSolution("q has a nonzero polynomial part", pf.polynomial_part)
        Q = F.one
        for p, cs in pf.pole_parts:
            if len(cs) > 1 and any(cs[1:]):
                raise NoRationalSolution(f"q has a higher-order pole at {p}", cs)
            r = as_rational(cs[0])
            if r is None or r.denominator != 1:
                raise NoRationalSolution(f"residue of q at {p} is not an integer", cs[0])
            lin = F.gen - F.coerce(p)
            Q = Q * lin ** (-int(r))
    R = rational_antiderivative(Q, extra_points)
    if isinstance(R, MonodromyObstruction):
        raise NoRationalSolution("exp(-int q) has no rational antiderivative", R)
    if mode == "general":
        den = R + F.coerce(constant)
        if not den:
            raise NoRationalSolution("degenerate constant: denominator vanishes identically")
        f = Q / den
    elif mode == "singular_at_0":
        if not R.is_regular_at(K.zero):
            raise NoRationalSolution("int exp(-int q) has a pole at 0: no solution singular at 0", R)
        den = R - F.coerce(R.eval_at(K.zero))
        f = Q / den
    else:
        raise ValidationError(f"unknown riccati mode {mode!r}")
    return f


def riccati_residual(miura: MiuraOper, k, f):
    """f' + f^2 + f <alpha_k, u>, exactly."""
    return f.derivative() + f * f + f * miura.pairing(k)


def _reproduced(old: MiuraOper, X):
    """The Miura oper e^X . old for X in n, and its ledger: the residues
    (before, after) at 0 and infinity.

    Ad_{e^X} p_-1 reaches h only through [X_1, p_-1], which adds the
    E_{alpha_j} coordinate of X to u_j, and the dlog term has heights >= 1;
    the Lie series then proves e^X . old = new on every height."""
    ctx = old.ctx
    alg = ctx.alg
    new = replace(old, u_coroot=[u + X[alg.index_E[alg.simple_root(j)]] for j, u in enumerate(old.u_coroot)])
    if exp_gauge(ctx, X, old.connection().coeffs) != new.connection().coeffs:
        raise MalformedOper("gauge reassembly failed: g . (old Miura oper) is not the new one")
    return new, {p: (old.residue_coweight(p), new.residue_coweight(p)) for p in (ctx.scalars.zero, INFINITY)}


def _transport(ctx, Y, steps):
    """Y + s(Y) + ... + s^(steps-1)(Y) with s(Y)(t) = varsigma(Y(w^-1 t)),
    the map whose fixed points is_equivariant tests."""
    F = ctx.functions
    winv = ctx.scalars.one / ctx.omega
    out = list(Y)
    for _ in range(steps - 1):
        Y = ctx.varsigma.apply_vec([c.subs_scale(winv) for c in Y], F)
        out = [a + b for a, b in zip(out, Y)]
    return out


def reproduce_simple(miura: MiuraOper, k, f) -> ReproductionResult:
    """Gauge by e^{f E_k}: new Miura is u + f coroot_k, provided f solves the
    Riccati equation in direction alpha_k."""
    ctx = miura.ctx
    alg = ctx.alg
    F = ctx.functions
    f = F.coerce(f)
    if riccati_residual(miura, k, f):
        raise RiccatiViolated(f"f does not satisfy the Riccati equation in direction {k+1}")
    X = [f * c for c in alg.vec_E(alg.simple_root(k), F)]
    new, led = _reproduced(miura, X)
    branch = "singular-at-0" if (f and not f.is_regular_at(0)) else "regular-at-0"
    _check_simple_rules(ctx, miura, new, k, f)
    cyc = is_equivariant((ctx, X), ctx.varsigma)
    return ReproductionResult(miura, new, X, branch, led, cyc)


def _require(ok, what):
    """An internal check that survives python -O."""
    if not ok:
        raise MalformedOper(what)


def _check_res0_rule(r0_old, r0_new, snu, singular):
    """The singular branch moves -res_0 by the folded reflection; the regular
    branch keeps res_0."""
    if singular:
        neg = Coweight([-c for c in r0_old.coords])
        _require(Coweight([-c for c in r0_new.coords]) == snu.dot(neg), "res_0 rule violated")
    else:
        _require(r0_new == r0_old, "regular branch must not move res_0")


def _check_simple_rules(ctx, old, new, k, f):
    """Residue bookkeeping of the single-direction reproduction."""
    W = ctx.weyl
    sk = W.simple(k)
    before = old.residue_coweight(INFINITY)
    after = new.residue_coweight(INFINITY)
    # the DIFFERENTIAL f dt has a pole at infinity iff val_inf(f) <= 1
    has_pole = bool(f) and f.valuation_at_infinity() <= 1
    _require(after == (sk.dot(before) if has_pole else before), "res_inf rule violated")


def reproduce_orbit_A1(miura: MiuraOper, orbit, k, f_k, branch) -> ReproductionResult:
    """Reproduction along an orbit of type A_1^x|I|: X = f_k E_k transported
    around the orbit, f_i(t) = w^-1 f_{nu^-1(i)}(w^-1 t); the regular branch
    is cyclotomic iff <alpha_k, lam0 + rho> = 0 mod T/|I|, the singular
    branch always."""
    ctx = miura.ctx
    alg = ctx.alg
    F = ctx.functions
    K = ctx.scalars
    folded = ctx.folded
    oi = folded.orbit_index(k)
    if tuple(sorted(folded.orbits[oi])) != tuple(sorted(orbit)):
        raise ValidationError("k does not belong to the given orbit")
    if folded.ell[oi] != 1:
        raise ValidationError("orbit is not of commuting type (ell != 1)")
    f_k = F.coerce(f_k)
    if riccati_residual(miura, k, f_k):
        raise RiccatiViolated("f_k does not satisfy (R^k)")
    size = len(orbit)
    T = ctx.tower.order
    # the nodes of the orbit are orthogonal: the factors e^{f_i E_i} commute
    X = alg.vec_zero(F)
    X[alg.index_E[alg.simple_root(k)]] = f_k
    X = _transport(ctx, X, size)
    for i in orbit:
        if i != k and riccati_residual(miura, i, X[alg.index_E[alg.simple_root(i)]]):
            raise RiccatiViolated(f"recursion produced a non-solution in direction {i+1}")
    # detected branch
    singular = bool(f_k) and not f_k.is_regular_at(0)
    want_singular = branch == "singular"
    if want_singular != singular:
        raise ValidationError(f"f_k is {'singular' if singular else 'regular'} at 0, not {branch}")
    # cyclotomy: the closing functional relation on f_k alone
    wS = ctx.omega ** size
    closes = f_k.subs_scale(K.one / wS) * (K.one / wS) == f_k
    lam0 = Coweight([-c for c in miura.residue_coweight(0).coords])
    pairing_val = as_rational((lam0 + rho_coweight(alg.rank)).coords[k])
    if singular:
        _require(closes, "singular solutions must close up automatically")
    elif not closes:
        cond = f"<alpha_{k+1}, lam0 + rho> = {pairing_val} != 0 mod {T // size}"
        raise CyclotomyObstruction(f"reproduction is not cyclotomic: {cond}", condition=cond)
    new, led = _reproduced(miura, X)
    cyc = is_equivariant((ctx, X), ctx.varsigma)
    _require(cyc, "closing relation held but g is not equivariant")
    snu = folded.simple_reflections[oi]
    r0_old, r0_new = led[K.zero]
    _check_res0_rule(r0_old, r0_new, snu, singular)
    ri_old, ri_new = led[INFINITY]
    pair_inf = as_rational((ri_old + rho_coweight(alg.rank)).coords[k])
    if pair_inf is not None and pair_inf >= 0 and f_k:
        _require(ri_new == snu.dot(ri_old), "res_inf rule violated")
    return ReproductionResult(miura, new, X, "singular-at-0" if singular else "regular-at-0", led, cyc)


def a2_system_residuals(miura: MiuraOper, i, ibar, f1, f2, f3):
    """The three coupled Riccati residuals for the non-commuting orbit."""
    q = miura.pairing(i)
    qb = miura.pairing(ibar)
    r1 = 2 * f1.derivative() + f1 * f1 + 3 * f2 * f2 + (q + qb) * f1 + (q - qb) * f2
    r2 = 2 * f2.derivative() + 4 * f1 * f2 - 2 * f3 + (q + qb) * f2 + (q - qb) * f1
    r3 = 2 * f3.derivative() + 2 * f1 * f3 + f2 * (f1 * f1 - f2 * f2) + 2 * (q + qb) * f3
    return r1, r2, r3


def reproduce_orbit_A2(miura: MiuraOper, orbit, k, seed, branch=None):
    """Reproduction along an orbit of type A_2^x(|I|/2), from a seed
    (f1, f2, f3) at the reference point k that solves the coupled system;
    branch ("regular" or "singular"), when given, is checked against the
    seed's behaviour at 0.  For g0 in N^theta take reproduce_generic."""
    ctx = miura.ctx
    folded = ctx.folded
    oi = folded.orbit_index(k)
    if folded.ell[oi] != 2:
        raise ValidationError("orbit is not of non-commuting type (ell != 2)")
    alg = ctx.alg
    F = ctx.functions
    K = ctx.scalars
    nu = ctx.nu
    orbit = tuple(folded.orbits[oi])
    size = len(orbit)
    half = size // 2
    ibar = k
    for _ in range(half):
        ibar = nu.perm[ibar]
    f1, f2, f3 = (F.coerce(x) for x in seed)
    res = a2_system_residuals(miura, k, ibar, f1, f2, f3)
    if any(res):
        raise SeedNotSolution(f"seed does not solve the coupled system: {[str(r) for r in res]}")
    # f1 (E_k + E_kbar) + f2 (E_k - E_kbar) + f3 [E_k, E_kbar], transported
    # to the other pairs (i, ibar): they lie in different components, so
    # their factors commute
    Ek = alg.vec_E(alg.simple_root(k), F)
    Ekb = alg.vec_E(alg.simple_root(ibar), F)
    X = [f1 * (x + y) + f2 * (x - y) + f3 * z for x, y, z in zip(Ek, Ekb, alg.bracket_vec(Ek, Ekb, F))]
    X = _transport(ctx, X, half)
    new, led = _reproduced(miura, X)
    singular = any(not f.is_regular_at(0) for f in (f1, f2, f3) if f)
    if branch is not None:
        want_singular = branch == "singular"
        if want_singular != singular:
            raise ValidationError(f"seed is {'singular' if singular else 'regular'} at 0, not {branch}")
    cyc = is_equivariant((ctx, X), ctx.varsigma)
    if not cyc:
        mu = (Coweight([-c for c in miura.residue_coweight(0).coords]) + rho_coweight(alg.rank)).coords
        cond = (
            f"<alpha_k + alpha_kbar, lam0 + rho> = {as_rational(mu[k]) + as_rational(mu[ibar])}"
            f" != 0 mod {ctx.tower.order // size}"
        )
        raise CyclotomyObstruction(f"reproduction is not cyclotomic: {cond}", condition=cond)
    if singular:
        # only case (ii)(a) closes up: f1 ~ 2(eta+1)/t, f2 regular, f3 at
        # most a simple pole with zero residue
        pp1 = f1.principal_part_at(K.zero) if not f1.is_regular_at(0) else ()
        eta = as_rational(Coweight([-c for c in miura.residue_coweight(0).coords]).coords[k])
        if eta is None:
            raise ValidationError(
                "the singular A2-orbit class needs a rational lam0; bind its parameters (--instantiate)"
            )
        _require(len(pp1) == 1 and as_rational(pp1[0]) == 2 * (eta + 1), "singular class is not (ii)(a)")
    snu = folded.simple_reflections[oi]
    r0_old, r0_new = led[K.zero]
    _check_res0_rule(r0_old, r0_new, snu, singular)
    return ReproductionResult(miura, new, X, "singular-at-0" if singular else "regular-at-0", led, cyc)


def theta_for(miura: MiuraOper, q=1):
    """The twist vartheta = Ad_{w^-lam0} o varsigma for this Miura oper,
    built over the q-sheeted cover when lam0 is not integral."""
    ctx = miura.ctx
    lam0 = Coweight([-c for c in miura.residue_coweight(0).coords])
    ctx2 = ctx.cover(q) if q > 1 else ctx
    K2 = ctx2.scalars
    wt = ctx2.tower.zeta  # primitive (qT)-th root
    taus = []
    for i in range(ctx.alg.rank):
        e = as_rational(lam0.coords[i])
        qe = e * q
        if qe.denominator != 1:
            raise ValidationError("q lam0 must be integral")
        taus.append((K2.one / wt) ** (q + int(qe)))
    return AlgebraAut(ctx.alg, ctx.nu, taus, K2, order_divides=ctx2.tower.order, kind="vartheta")


def reproduce_generic(miura: MiuraOper, g0) -> ReproductionResult:
    """Thm-style generic reproduction: solve the regularised connection,
    factor Y g0^-1 = n^-1 Y~, and conjugate n back by the torus.

    g0: the log X0 of g0 = e^X0, an algebra vector in n^theta."""
    ctx = miura.ctx
    alg = ctx.alg
    K = ctx.scalars
    lam0 = Coweight([-c for c in miura.residue_coweight(0).coords])
    if not lam0.is_rational():
        raise ValidationError("lam0 must be rational")
    if not lam0.is_dominant():
        raise ValidationError("lam0 must be dominant")
    q = lam0.denominator()
    conn = miura.connection()
    if q > 1:
        conn2, ctx2 = lift_to_cover(conn, q)
        lam_reg = lam0.scale(Fraction(q))
    else:
        conn2, ctx2 = conn, ctx
        lam_reg = lam0
    theta = theta_for(miura, q)
    F2 = ctx2.functions
    K2 = ctx2.scalars
    X0 = [F2.coerce(c) for c in g0]
    if any(X0[i] for i in range(alg.dim) if alg.height_of[i] <= 0):
        raise FixedPointViolation("g0 must be unipotent (supported on n)")
    if theta.apply_vec(X0, F2) != X0:
        raise FixedPointViolation("g0 is not vartheta-fixed")
    reg = regularize(conn2, lam_reg).with_shape("b-")
    # on the q-sheeted cover (t = u^q) the points of miura are no poles
    fund = solve_fundamental(reg, extra_points=miura.points if q == 1 else ())
    if isinstance(fund, MonodromyObstruction):
        raise fund
    # Y g0^-1 = D M with M = e^Z e^-X0: factor M = e^-X b from its inverse
    # action Ad_{e^X0} Ad_{e^-Z}, then n = e^{Ad_D X} since D e^-X = e^{-Ad_D X} D
    torus, Z = fund
    minus_Z = [-z for z in Z]
    logn = gauss_factorize(ctx2, lambda v: alg.ad_series(X0, alg.ad_series(minus_Z, v, F2), F2))
    for mu, base in torus:
        logn = torus_conjugate_vec(ctx2, logn, mu, base)
    # initial-value certificate: the regularised gauge parameter at 0 is
    # g0; exp is injective on n, so on logs log n(0) = X0(0)
    if [x.eval_at(K2.zero) for x in logn] != [x.eval_at(K2.zero) for x in X0]:
        raise MalformedOper("g_r(0) != g0")
    # g = t^lam_reg n t^-lam_reg, descended from the cover, on its log
    X_g = torus_conjugate_vec(ctx2, logn, Coweight([-c for c in lam_reg.coords]))
    if q > 1:
        X_g = [x.descend_power(q, ctx.functions) for x in X_g]
    new, led = _reproduced(miura, X_g)
    cyc = new.is_cyclotomic()
    if not cyc:
        raise MalformedOper("generic reproduction must be cyclotomic for theta-fixed g0")
    _check_res0_rule(*led[K.zero], None, False)
    return ReproductionResult(miura, new, X_g, "regular-at-0", led, cyc, logn, q)
