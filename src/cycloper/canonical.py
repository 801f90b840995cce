"""Canonical (transverse slice) representatives of oper-form connections,
the closed-form first coefficient, regular-singularity tests, oper residues
as finite-oper classes, and the residue bookkeeping of general Miura forms."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .connection import Connection, exp_gauge, is_equivariant
from .context import OperContext
from .errors import MalformedOper, NotOfForm, NotRegularSingular
from .finite_opers import FiniteOperClass, finite_canonical, require_oper_form, slice_gauge
from .ratfunc import INFINITY, _common_denominator, clear
from .weyl import (
    Coweight,
    coweight_to_h,
    dominant_shift_representative,
    find_shift_element,
    rho_coweight,
)


@dataclass
class CanonicalOper:
    """d + p_-1 dt + sum_k u_k p_k dt plus the gauge that produced it."""

    ctx: OperContext
    exponents: tuple          # multiset of exponents, aligned with u
    u: list                   # one RatFunc per centralizer basis vector
    gauge_vec: list           # m with exp(m) . canonical = input

    def connection(self) -> Connection:
        ctx = self.ctx
        F = ctx.functions
        alg = ctx.alg
        coeffs = [F.coerce(c) for c in alg.p_minus1]
        for (k, w), uk in zip(alg.centralizer_basis, self.u):
            if uk:
                for j, c in enumerate(w):
                    if c:
                        coeffs[j] = coeffs[j] + uk * F.coerce(c)
        return Connection(ctx, coeffs)

    def is_regular_at(self, x, orbit=False):
        pts = [x]
        if orbit and x != INFINITY:
            T = self.ctx.tower.order
            w = self.ctx.omega
            K = self.ctx.scalars
            pts = [K.coerce(x) * (w ** r) for r in range(T)]
        return all(uk.is_regular_at(p) for uk in self.u for p in pts)

    def __repr__(self):
        parts = ", ".join(f"u_{k}={u}" for k, u in zip(self.exponents, self.u))
        return f"CanonicalOper({parts})"


def canonical_representative(conn: Connection, cyclotomic=False) -> CanonicalOper:
    """Degree-by-degree construction of the unique slice representative:
    slice_gauge in the frame of _frame, and the gauge action e^X . (d + A dt)
    of exp_gauge in that frame as its one reassembly check.

    At each height the mismatch against the current candidate splits as
    c_h + [m_{h+1}, p_-1 dt]; uniqueness of both parts certifies freeness of
    the unipotent action.  The frame is injective, so the check in it is
    the same exact proof; m_h = X_h / D^h and u_k = c_k / D^(k+1) map the
    result back."""
    ctx = conn.ctx
    alg = ctx.alg
    F = ctx.functions
    require_oper_form(alg, conn.coeffs, F)
    if cyclotomic and not is_equivariant(conn, ctx.varsigma):
        raise MalformedOper("claimed cyclotomic but the connection is not equivariant")
    target, delta, Dpow = _frame(alg, F, conn.coeffs)
    heights = alg.height_of
    m, u_by_height = slice_gauge(
        alg, target, F,
        lambda X, A: exp_gauge(ctx, X, A, [delta(x, h) for x, h in zip(X, heights)]),
        lambda vec, h: [delta(x, h) for x in vec])
    m = [x / Dpow[h] if x else x for x, h in zip(m, heights)]
    u = []
    for k in sorted(set(alg.exponents)):
        u.extend(c / Dpow[k + 1] for c in u_by_height.get(k, []))
    out = CanonicalOper(ctx, tuple(alg.exponents), u, m)
    if cyclotomic:
        if not is_equivariant(out.connection(), ctx.varsigma):
            raise MalformedOper("canonical form of a cyclotomic oper failed equivariance")
    return out


def _frame(alg, F, coeffs):
    """The frame in which the canonical solve runs on polynomials:
    Phi(v)_h = D^(h+1) v_h on connection-like vectors and X_h -> D^h X_h on
    gauges, D the lcm of the denominators of the components of height >= 0.

    Phi = D Ad_{D^rho}, so Phi(e^X . A) = sum_k ad_Y^k Phi(A) / k!
    - sum_k ad_Y^k delta(Y) / (k+1)! for Y the scaled X, where
    delta(y, h) = D y' - h D' y on height h; Phi fixes p_-1.  Returns
    (Phi(coeffs), delta, [D^0, ..., D^(height_max+1)]); each component of
    height h >= 0 is mapped in by one exact division into D^(h+1)."""
    D = _common_denominator(F, [c for c, h in zip(coeffs, alg.height_of) if h >= 0])
    Dp = D.derivative()
    Dpow = [D ** h for h in range(alg.height_max + 2)]
    target = [clear(c, Dpow[h + 1]) if h >= 0 else c for c, h in zip(coeffs, alg.height_of)]

    def delta(y, h):
        return D * y.derivative() - Dp * y * h if y else y

    return target, delta, Dpow


def u1_coefficient(conn: Connection):
    """Closed form of the first canonical coefficient:
    u_1 = (1/2 (v0|v0) + (rho|v0') + (p_-1|v1)) / (2 (rho|rho))."""
    alg = conn.ctx.alg
    F = conn.ctx.functions
    require_oper_form(alg, conn.coeffs, F)
    rho_vec = [F.coerce(c) for c in alg.rho]
    return u1_numerator(alg, conn.coeffs, F) / (alg.form_vec(rho_vec, rho_vec, F) * 2)


def u1_numerator(alg, coeffs, K):
    """2 (rho|rho) u_1 = 1/2 (v0|v0) + (rho|v0') + (p_-1|v1) for the oper
    coefficients coeffs, v_h their height-h part (v1 the full height-1
    coefficient), over the field facade K (zero, coerce) of the entries:
    rational functions, or their Laurent series at a point."""
    v0, v1 = [K.zero] * alg.dim, [K.zero] * alg.dim
    for v, h in ((v0, 0), (v1, 1)):
        for i in alg.blocks.get(h, []):
            v[i] = coeffs[i]
    rho_vec = [K.coerce(c) for c in alg.rho]
    pm1 = [K.coerce(c) for c in alg.p_minus1]
    v0d = [c.derivative() for c in v0]
    return (
        alg.form_vec(v0, v0, K) * K.coerce(Fraction(1, 2))
        + alg.form_vec(rho_vec, v0d, K)
        + alg.form_vec(pm1, v1, K)
    )


def is_regular_at(conn: Connection, x, cyclotomic=True) -> bool:
    """Regularity of the underlying (cyclotomic) oper at x: every canonical
    coefficient regular there (and on the Gamma-orbit in the cyclotomic
    case)."""
    can = conn if isinstance(conn, CanonicalOper) else canonical_representative(conn)
    return can.is_regular_at(x, orbit=cyclotomic)


def _rs_value(ctx, can: CanonicalOper, where):
    """v(x) for the (t-x)^rho-gauged form: v = sum_k c_k p_k, c_k the
    coefficient of s^e in u_k, read from the leading Laurent term at x in
    its local coordinate s; e = -(k+1) in s = t - x, and e = k+1 in s = 1/t
    at infinity, where dt = -ds/s^2.  A lower order (a higher pole order,
    or slower decay at infinity) is not regular singular."""
    alg = ctx.alg
    K = ctx.scalars
    val = alg.vec_zero(K)
    sign = 1 if where == INFINITY else -1
    for (k, w), uk in zip(alg.centralizer_basis, can.u):
        e = sign * (k + 1)
        lau = uk.laurent_at(where, e + 1)
        if lau.val < e:
            raise NotRegularSingular(f"u_{k} grows too fast at infinity" if sign > 0
                                     else f"u_{k} has a pole of order > {k + 1} at {where}")
        c = lau.coeff(e)
        if c:
            for j, cw in enumerate(w):
                if cw:
                    val[j] = val[j] + c * K.coerce(cw)
    return val


def oper_residue(conn: Connection, where, cyclotomic=True):
    """Residue of the oper class as a finite-oper class: of g at finite
    nonzero points, of g^nu at the origin and infinity (sign-flipped there).

    The connection is brought to canonical form first; the pole-order bounds
    certify the regular singularity."""
    ctx = conn.ctx
    can = conn if isinstance(conn, CanonicalOper) else canonical_representative(conn)
    alg = ctx.alg
    K = ctx.scalars
    rho_h = coweight_to_h(alg, rho_coweight(alg.rank), K)
    v = _rs_value(ctx, can, where)
    X = [K.coerce(a) - b + c for a, b, c in zip(alg.p_minus1, rho_h, v)]
    if where == INFINITY or not K.coerce(where):
        nu = ctx.nu if cyclotomic else None
        cls, _ = finite_canonical(alg, X, K, nu)
        if where == INFINITY:
            cls = FiniteOperClass(cls.exponents, cls.coefficients, cls.folded, negated=True)
        return cls
    cls, _ = finite_canonical(alg, X, K, None)
    return cls


def residue_class_of_coweight(ctx, lam: Coweight, folded=False, negated=False):
    """[lam] as a finite-oper class (for comparisons with oper_residue)."""
    from .finite_opers import class_of_coweight

    cls = class_of_coweight(ctx.alg, lam, ctx.scalars, ctx.nu if folded else None)
    if negated:
        cls = FiniteOperClass(cls.exponents, cls.coefficients, cls.folded, negated=True)
    return cls


def classify_general_form(conn: Connection, lam0: Coweight, sites, extra_points=()):
    """Match every residue of the h-part of a cyclotomic Miura connection
    against shifted Weyl orbits: w0 at the origin, w_i in W at the declared
    sites, y_j in W (with coweight 0) at the extra poles, w_inf in W^nu at
    infinity.  sites: list of (z_i, lam_i); extra_points are tried first
    as poles (say the points of the Miura oper)."""
    ctx = conn.ctx
    alg = ctx.alg
    K = ctx.scalars
    W = ctx.weyl
    nu = ctx.nu
    res0 = conn.residue_coweight(0)
    w0 = find_shift_element(W, lam0, -res0, nu)
    if w0 is None:
        raise NotOfForm("residue at the origin is not in the shifted W^nu-orbit", res0, 0)
    out_sites = []
    declared = []
    T = ctx.tower.order
    w = ctx.omega
    for z, lam in sites:
        z = K.coerce(z)
        declared.extend(z * w ** r for r in range(T))
        res = conn.residue_coweight(z)
        wi = find_shift_element(W, lam, -res)
        if wi is None:
            raise NotOfForm(f"residue at {z} is not in the shifted Weyl orbit of its coweight", res, z)
        # the rest of the Gamma-orbit must carry the nu-rotated residues
        expect = res
        for r in range(1, T):
            expect = nu.apply_coweight(expect)
            got = conn.residue_coweight(z * w ** r)
            if got != expect:
                raise NotOfForm(
                    f"residue at {z}*omega^{r} is not the nu-rotation of the residue at {z}",
                    got,
                    z,
                )
        out_sites.append((z, wi))
    # extra poles: everything else, grouped into Gamma-orbits
    extra = []
    seen = []
    for p, mult in conn.poles(extra_points):
        if not p or any(p == q for q in declared) or any(p == q for q in seen):
            continue
        orbit = [p * w ** r for r in range(T)]
        seen.extend(orbit)
        res = conn.residue_coweight(p)
        yj = find_shift_element(W, Coweight.zero(alg.rank), -res)
        if yj is None:
            raise NotOfForm(f"extra pole at {p} has residue outside the shifted W-orbit of 0", res, p)
        extra.append((p, yj))
    res_inf = conn.residue_coweight(INFINITY)
    rep = dominant_shift_representative(W, res_inf, nu)
    if rep is None:
        raise NotOfForm("residue at infinity has no dominant shifted representative", res_inf, INFINITY)
    lam_inf, w_inf = rep
    return {
        "w0": w0,
        "sites": out_sites,
        "extra": extra,
        "w_inf": w_inf,
        "lam_inf": lam_inf,
    }


def regularity_condition(conn: Connection, x, w):
    """(w . 0 | r(x)) where r is the regular part of the h-connection at x;
    zero is necessary for regularity (and sufficient for simple
    reflections)."""
    ctx = conn.ctx
    alg = ctx.alg
    K = ctx.scalars
    F = ctx.functions
    x = K.coerce(x)
    w_dot_0 = w.dot(Coweight.zero(alg.rank))
    pole_h = coweight_to_h(alg, w_dot_0, F)
    lin = F.gen - F.coerce(x)
    r_at_x = alg.vec_zero(K)
    for i in alg.blocks.get(0, []):
        f = conn.coeffs[i] + pole_h[i] / lin
        r_at_x[i] = f.eval_at(x)
    wvec = coweight_to_h(alg, w_dot_0, K)
    return alg.form_vec(wvec, r_at_x, K)
