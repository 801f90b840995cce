"""g-valued rational connections d + A(t) dt on the projective line, group
elements in the adjoint representation, gauge transformations, equivariance
tests, residues, regularisation and the cover lift."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .automorphisms import AlgebraAut, as_int
from .context import OperContext
from .errors import (
    MalformedOper,
    NonIntegralAfterCover,
    NonIntegralCoweight,
    ValidationError,
)
from .linalg import SparseMat
from .ratfunc import clear
from .weyl import Coweight, coweight_to_h, h_to_coweight


@dataclass
class Connection:
    """d + A(t) dt with A stored as a coefficient vector over the Chevalley
    basis, entries rational functions of the global coordinate."""

    ctx: OperContext
    coeffs: list

    def __post_init__(self):
        F = self.ctx.functions
        self.coeffs = [F.coerce(c) for c in self.coeffs]

    def h_part(self):
        alg = self.ctx.alg
        return [
            c if alg.height_of[i] == 0 else self.ctx.functions.zero
            for i, c in enumerate(self.coeffs)
        ]

    def __eq__(self, other):
        if not isinstance(other, Connection):
            return NotImplemented
        return self.ctx.alg is other.ctx.alg and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    # ---- analysis ---------------------------------------------------------------
    def residue_at(self, p):
        """Entrywise residue: an algebra vector over the scalar field."""
        K = self.ctx.scalars
        return [K.coerce(c.residue_at(p)) for c in self.coeffs]

    def residue_coweight(self, p) -> Coweight:
        """Residue of the h-part as a Coweight (exact scalars)."""
        alg = self.ctx.alg
        res = self.residue_at(p)
        return h_to_coweight(alg, res)

    def poles(self, extra_points=()):
        from .ratfunc import poles_of

        seen = []
        for c in self.coeffs:
            if c:
                for p, m in poles_of(c, extra_points):
                    if all(p != q for q, _ in seen):
                        seen.append((p, m))
        return seen

    # ---- transforms -----------------------------------------------------------
    def __repr__(self):
        alg = self.ctx.alg
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                kind, r = alg.basis[i]
                lbl = f"{kind}{r}" if kind != "H" else f"H{r+1}"
                parts.append(f"{lbl}: {c}")
        return "Connection(d + [" + "; ".join(parts) + "] dt)"


class GroupElement:
    """Invertible adjoint-representation matrix over the function field,
    for the matrices that are not unipotent gauges (a unipotent gauge is
    its log X in n).

    The inverse is computed the first time it is read and then kept: `inv`
    is given as a matrix or as a function of no arguments that builds it."""

    def __init__(self, ctx: OperContext, mat: SparseMat, inv):
        self.ctx = ctx
        self.mat = mat
        self._inv = inv

    @property
    def inv(self) -> SparseMat:
        if callable(self._inv):
            self._inv = self._inv()
        return self._inv

    @classmethod
    def identity(cls, ctx):
        n = ctx.alg.dim
        F = ctx.functions
        return cls(ctx, SparseMat.identity(F, n), SparseMat.identity(F, n))

    @classmethod
    def exp(cls, ctx, vec):
        """exp(ad_X) for a nilpotent algebra vector X over the functions."""
        F = ctx.functions
        alg = ctx.alg
        vec = [F.coerce(v) for v in vec]
        return cls(ctx, _exp_ad(alg, vec, F), lambda: _exp_ad(alg, [-v for v in vec], F))

    @classmethod
    def torus(cls, ctx, lam: Coweight, base=None):
        """base^lam as a diagonal matrix: base^(<beta, lam>) on each root
        space, identity on h.  base defaults to the coordinate t."""
        F = ctx.functions
        base = F.gen if base is None else F.coerce(base)
        alg = ctx.alg
        mat = SparseMat(F, alg.dim, alg.dim)
        inv = SparseMat(F, alg.dim, alg.dim)
        for idx, (kind, r) in enumerate(alg.basis):
            if kind == "H":
                mat.rows[idx][idx] = F.one
                inv.rows[idx][idx] = F.one
            else:
                root = r if kind == "E" else tuple(-x for x in r)
                e = _integer_pairing(lam, root)
                mat.rows[idx][idx] = base ** e
                inv.rows[idx][idx] = base ** (-e)
        return cls(ctx, mat, inv)

    @classmethod
    def weyl_representative(cls, ctx, w):
        """dot-w = prod over the word of exp(E_i) exp(-F_i) exp(E_i)."""
        g = cls.identity(ctx)
        F = ctx.functions
        alg = ctx.alg
        for i in w.word:
            r = alg.simple_root(i)
            e = cls.exp(ctx, alg.vec_E(r, F))
            f = cls.exp(ctx, [-x for x in alg.vec_F(r, F)])
            g = g @ (e @ f @ e)
        return g

    def __matmul__(self, other):
        if isinstance(other, GroupElement):
            return GroupElement(self.ctx, self.mat @ other.mat, lambda: other.inv @ self.inv)
        return NotImplemented

    def inverse(self):
        return GroupElement(self.ctx, self.inv, self.mat)

    def ad_apply(self, vec):
        """Ad_g X for an algebra vector X."""
        return self.mat.apply([self.ctx.functions.coerce(v) for v in vec])

    def dlog(self):
        """dg g^-1 as an algebra vector."""
        M = self.mat.map_entries(lambda f: f.derivative()) @ self.inv
        return self.ctx.matrix_to_vec(M)

    def eval_at(self, p, K=None):
        """Dense scalar matrix g(p)."""
        K = K or self.ctx.scalars
        n = self.mat.nrows
        out = [[K.zero] * n for _ in range(n)]
        for i, row in enumerate(self.mat.rows):
            for j, f in row.items():
                out[i][j] = f.eval_at(p)
        return out

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.mat == other.mat

    def __repr__(self):
        return f"GroupElement({self.mat!r})"


def torus_conjugate_vec(ctx: OperContext, vec, lam: Coweight, base=None) -> list:
    """Ad_{base^-lam} X: the coordinate of each root beta scaled by
    base^-<beta, lam>, h untouched; the log of t^-lam e^X t^lam."""
    F = ctx.functions
    base = F.gen if base is None else F.coerce(base)
    out = []
    for (kind, r), v in zip(ctx.alg.basis, vec):
        v = F.coerce(v)
        if kind != "H" and v:
            root = r if kind == "E" else tuple(-x for x in r)
            v = v * base ** (-_integer_pairing(lam, root))
        out.append(v)
    return out


def torus_frame(ctx: OperContext, v):
    """The frame Phi = Ad of prod_i s_i^omega_i in which v, a vector of
    functions on h + n, is polynomial: E_alpha scaled by s^alpha, F_alpha
    by 1/s^alpha, h fixed.  As that torus gauge Phi sends d + A dt to
    d + (Phi(A) - delta) dt, delta = sum_i (s_i'/s_i) omega_i.  s_i is the
    monic denominator of v at alpha_i, grown on the first alpha_i in alpha
    by the part of the denominator of v_alpha that s^alpha lacks.  Returns
    (Phi(v), spow), spow[k] = s^alpha at the index k of E_alpha, else 1."""
    alg = ctx.alg
    F = ctx.functions
    s = [F.from_coeffs(v[alg.index_E[alg.simple_root(i)]].den) for i in range(alg.rank)]
    while True:
        out, spow = list(v), [F.one] * alg.dim
        for r in alg.pos_roots:
            k = alg.index_E[r]
            a, b = alg._espair.get(r, (r, None))
            spow[k] = spow[alg.index_E[a]] * spow[alg.index_E[b]] if b else s[r.index(1)]
            try:
                out[k] = clear(v[k], spow[k])  # one exact division per root
            except MalformedOper:
                missing = F.from_coeffs((v[k] * spow[k]).den)
                if missing.is_constant():
                    raise
                i = next(i for i, n in enumerate(r) if n)
                s[i] = s[i] * missing
                break
        else:
            return out, spow


def _integer_pairing(lam: Coweight, root):
    acc = None
    for c, q in zip(lam.coords, root):
        if q:
            term = c * q
            acc = term if acc is None else acc + term
    if acc is None:
        return 0
    return as_int(acc)


def _exp_ad(alg, vec, K):
    """exp(ad_X) as a sparse matrix over K, for a nilpotent vector X over K."""
    n = alg.dim
    A = alg.ad_of_vec(vec, K)
    out = SparseMat.identity(K, n)
    term = SparseMat.identity(K, n)
    k = 1
    fact = 1
    while True:
        term = A @ term
        if not any(term.rows[i] for i in range(n)):
            break
        fact *= k
        out = out.add(term.scale(K.coerce(Fraction(1, fact))))
        k += 1
        if k > 2 * alg.height_max + 4:
            raise MalformedOper("exp did not terminate; element not nilpotent")
    return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def gauge_transform(conn: Connection, g: GroupElement) -> Connection:
    """g . (d + A dt) = d - dg g^-1 + Ad_g A."""
    new = g.ad_apply(conn.coeffs)
    dlog = g.dlog()
    return Connection(conn.ctx, [a - b for a, b in zip(new, dlog)])


def exp_gauge(ctx: OperContext, X, A, dX=None) -> list:
    """Coefficients of e^X . (d + A dt) = d + (Ad_{e^X} A - (d e^X) e^-X) dt
    for a nilpotent X, by the Lie series on algebra vectors; no matrix is
    built.  Agrees with gauge_transform(conn, GroupElement.exp(ctx, X)).
    dX replaces X' in the series: the same action in a frame whose
    derivation is not d/dt, or times the scalar that clears A."""
    F = ctx.functions
    alg = ctx.alg
    X = [F.coerce(x) for x in X]
    A = [F.coerce(a) for a in A]
    dX = [x.derivative() for x in X] if dX is None else [F.coerce(x) for x in dX]
    dlog = alg.ad_series(X, dX, F, shift=1)
    return [a - b for a, b in zip(alg.ad_series(X, A, F), dlog)]


def is_equivariant(obj, aut: AlgebraAut) -> bool:
    """Gamma-equivariance of an algebra vector X of functions,
    aut(X(omega^-1 t)) = X(t), given as (ctx, X); for a unipotent gauge
    e^X that is the equivariance of the gauge.  A connection d + A dt is
    tested on its differential: omega^-1 aut(A(omega^-1 t)) = A(t)."""
    conn = isinstance(obj, Connection)
    ctx, vec = (obj.ctx, obj.coeffs) if conn else obj
    return gamma_twist(ctx, aut, vec, ctx.scalars.one / ctx.omega if conn else 1) == vec


def gamma_twist(ctx: OperContext, aut: AlgebraAut, vec, u=1) -> list:
    """u aut(X(omega^-1 t)) for a vector X of functions, one subs_scale per
    entry that carries the factor of aut and u."""
    K, winv = ctx.scalars, ctx.scalars.one / ctx.omega
    out = [ctx.functions.zero] * ctx.alg.dim
    for i, c in enumerate(vec):
        if c:
            out[aut.image[i]] = ctx.functions.coerce(c).subs_scale(winv, K.coerce(aut.factor[i]) * u)
    return out


def regularize(conn: Connection, lam0: Coweight, base=None) -> Connection:
    """t^-lam0 (d + A) t^lam0, needs lam0 integral; base replaces t.  On
    algebra vectors: the coordinate of each root beta is scaled by
    base^-<beta, lam0> and the h-part gains lam0 base'/base."""
    if not lam0.is_integral():
        raise NonIntegralCoweight(f"regularisation needs an integral coweight: {lam0}")
    ctx = conn.ctx
    F = ctx.functions
    base = F.gen if base is None else F.coerce(base)
    dlog = base.derivative() / base
    coeffs = torus_conjugate_vec(ctx, conn.coeffs, lam0, base)
    h = coweight_to_h(ctx.alg, lam0, F)
    return Connection(ctx, [c + x * dlog if x else c for c, x in zip(coeffs, h)])


def lift_to_cover(conn: Connection, q: int):
    """Pullback along t = u^q, including the q u^(q-1) du Jacobian.
    Returns (cover_connection, cover_context)."""
    if q < 1:
        raise ValidationError("q must be >= 1")
    if q == 1:
        return conn, conn.ctx
    ctx2 = conn.ctx.cover(q)
    F2 = ctx2.functions
    u = F2.gen
    jac = q * u ** (q - 1)
    coeffs = [jac * c.subs_power(q, F2) for c in conn.coeffs]
    return Connection(ctx2, coeffs), ctx2


def monodromy_at_origin(ctx: OperContext, lam0: Coweight, q: int) -> GroupElement:
    """e^{2 pi i lam0} = zeta_q^{q lam0} as an exact diagonal matrix over
    Q(zeta_{qT}); needs q lam0 integral."""
    qlam = lam0.scale(Fraction(q))
    if not qlam.is_integral():
        raise NonIntegralAfterCover(f"{q} * {lam0} is not integral")
    ctx2 = ctx.cover(q)
    # zeta_q = zeta_{qT}^T
    zq = ctx2.tower.zeta_power(ctx.tower.order)
    return GroupElement.torus(ctx2, qlam, base=zq)
