"""Univariate rational functions over an exact field, used both for the
transcendental-parameter layers and for functions of the global coordinate t.

A RatFunc is a reduced num/den pair with monic denominator, so equality and
hashing are canonical.  Its arithmetic is written once, against the
polynomial ring of its FunctionField: over Q(zeta_T) a PackedRing of integer
vectors with one content, over a parameter field a FieldRing of coefficient
tuples.  The p* helpers work on dense coefficient tuples (ascending, no
trailing zeros, the empty tuple is 0) and serve partial fractions, Hermite
reduction and root splitting.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import IrreducibleDenominator, MonodromyObstruction, PartialFractionError
from .scalars import CycNum, CyclotomicField, LRUCache, _lowest, _make

INFINITY = "inf"  # marker for the point at infinity


# ---------------------------------------------------------------------------
# raw polynomial helpers, parameterised by the coefficient field facade K
# (K needs .zero, .one, .coerce, and elements with exact dunders)
# ---------------------------------------------------------------------------

def ptrim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def pdeg(cs):
    return len(cs) - 1


def padd(K, a, b):
    n = max(len(a), len(b))
    za = list(a) + [K.zero] * (n - len(a))
    zb = list(b) + [K.zero] * (n - len(b))
    return ptrim(x + y for x, y in zip(za, zb))


def pneg(a):
    return tuple([-x for x in a])


def psub(K, a, b):
    return padd(K, a, pneg(b))


def pscale(a, c):
    if not c:
        return ()
    return ptrim(x * c for x in a)


def pmul(K, a, b):
    if not a or not b:
        return ()
    out = [K.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return ptrim(out)


def ppow(K, a, n, mul=pmul):
    """a^n for n >= 1 by squaring, with the product mul(K, x, y)."""
    out = None
    while True:
        if n & 1:
            out = a if out is None else mul(K, out, a)
        n >>= 1
        if not n:
            return out
        a = mul(K, a, a)


def pdivmod(K, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    lb = b[-1]
    inv_lb = K.one / lb
    q = [K.zero] * max(0, len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + len(b) - 1] * inv_lb
        q[i] = c
        if c:
            for j, bc in enumerate(b):
                a[i + j] = a[i + j] - c * bc
    return ptrim(q), ptrim(a)


def pmonic(K, a):
    if not a:
        return a
    lc = a[-1]
    if lc == K.one:
        return a
    return pscale(a, K.one / lc)


def pgcd(K, a, b):
    """Monic gcd of a and b: polynomials of the ring K when K is a
    FunctionField.ring, else coefficient tuples over the coefficient field K
    (over Q(zeta_T) these run on the integer core too)."""
    if isinstance(K, (PackedRing, FieldRing)):
        return K.gcd(a, b)
    R = _ring(K)
    g = R.gcd(R.pack(a)[0], R.pack(b)[0])
    return R.unpack(g, R.lead(g)) if g else ()


# ---------------------------------------------------------------------------
# the polynomial ring under each FunctionField.  Both rings give the RatFunc
# bodies one interface: a polynomial v stands for v/c with an int content c
# kept beside it, and a canonical denominator d for d/lead(d), monic.
#   width        entries of v per coefficient of var
#   one          the polynomial 1
#   pack(cs)     (v, c) of a coefficient tuple; unpack(v, c) the reverse;
#                scalar(x) is pack((x,)) for a nonzero x already in K
#   lead(d)      the int L with d/L monic, d canonical
#   mul, pow     products; comb(a, x, b, y) = x*a + y*b for ints x, y
#   divmod(a, b) (q, r, s): s*a == q*b + r with an int s > 0
#   gcd(a, b)    monic gcd
#   canon(nv, rn, rd, dv)  canonical (n, c, d) of (rn/rd) * nv/dv for
#                coprime nv, dv and nonzero ints rn, rd
#   deriv(v), eval(v, p, c) = v(p)/c, linear(p) a multiple of var - p with
#                an int lead, shift(v, p) = (w, s) with w = s * v(var + p)
# ---------------------------------------------------------------------------

def _vtrim(v):
    while v and not v[-1]:
        v.pop()
    return tuple(v)


def _vcomb(a, x, b, y):
    """x*a + y*b for integer vectors a, b and ints x, y."""
    if len(a) < len(b):
        a, x, b, y = b, y, a, x
    return _vtrim([p * x + q * y for p, q in zip(a, b)] + [p * x for p in a[len(b):]])


def _vprim(v):
    """v divided by its content, signed so that the last entry is positive."""
    g = math.gcd(*v)
    if v[-1] < 0:
        g = -g
    return v if g == 1 else tuple([x // g for x in v])


def _vlowest(v, num, den):
    """(w, c) with w/c == v * num/den in lowest terms and c > 0."""
    if not v:
        return (), 1
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    g = math.gcd(den, *v)
    if g != 1:
        v = [x // g for x in v]
        den //= g
    if num != 1:
        v = [x * num for x in v]
    return tuple(v), den


def _vresidues(K, v):
    """The coefficients of the integer vector v mod P = (p, zeta - w), the
    degree-1 prime of K.split, as ints in [0, p)."""
    p, powers = K.split
    d = K.degree
    return [sum(map(operator.mul, v[i:i + d], powers)) % p for i in range(0, len(v), d)]


def _coprime_mod_prime(K, a, b):
    """True only when the integer vectors a and b are proven coprime in
    Q(zeta_T)[t].  With P = (p, zeta - w) the prime of K.split, Z[zeta_T]_P
    is a discrete valuation ring; when both leading coefficients are units
    there, Gauss's lemma reduces the true gcd to a common divisor of the
    images of the same degree, so a constant gcd over F_p proves the gcd
    is 1."""
    p = K.split[0]
    ra, rb = _vresidues(K, a), _vresidues(K, b)
    if not ra[-1] or not rb[-1]:
        return False
    while rb:
        inv, n = pow(rb[-1], -1, p), len(rb) - 1
        for i in range(len(ra) - 1, n - 1, -1):
            c = ra[i] * inv % p
            if c:
                for j in range(n):
                    ra[i - n + j] = (ra[i - n + j] - c * rb[j]) % p
        del ra[n:]
        while ra and not ra[-1]:
            ra.pop()
        ra, rb = rb, ra
    return len(ra) == 1


class PackedRing:
    """Q(zeta_T)[t] on the integer core, d = phi(T): a polynomial is one flat
    tuple v of ints, v[i*d + u] the coefficient of zeta^u t^i, trailing zeros
    trimmed (so () is 0).  A monic polynomial in lowest terms ends in its
    denominator c = v[-1] > 0."""

    comb = staticmethod(_vcomb)
    lead = staticmethod(operator.itemgetter(-1))

    def __init__(self, K):
        self.K = K
        self.width = K.degree
        self.one = (1,)

    def pack(self, cs):
        """(v, c) with v/c == the CycNum tuple cs, in lowest terms."""
        K = self.K
        cs = [K.coerce(c) for c in cs]
        c = math.lcm(*[x.den for x in cs])
        v = []
        for x in cs:
            v += x.num if x.den == c else [n * (c // x.den) for n in x.num]
        return _vtrim(v), c

    def unpack(self, v, c):
        """The CycNum coefficients of v/c."""
        K, d = self.K, self.width
        pad = (0,) * d
        return tuple(_lowest(K, (v[i:i + d] + pad)[:d], c) for i in range(0, len(v), d))

    def scalar(self, x):
        return _vtrim(list(x.num)), x.den

    def mul(self, a, b):
        """Product of integer vectors: schoolbook in t with zeta-blocks widened
        to 2d - 1, then folded mod Phi_T by CyclotomicField._mod_terms."""
        if not a or not b:
            return ()
        if len(a) == 1 or len(b) == 1:  # an int factor
            if len(a) != 1:
                a, b = b, a
            x = a[0]
            return b if x == 1 else tuple([x * y for y in b])
        d = self.width
        if d == 1:
            out = [0] * (len(a) + len(b) - 1)
            bs = [(j, y) for j, y in enumerate(b) if y]
            for i, x in enumerate(a):
                if x:
                    for j, y in bs:
                        out[i + j] += x * y
            return tuple(out)
        e = 2 * d - 1
        bs = [(j // d * e + j % d, y) for j, y in enumerate(b) if y]
        out = [0] * (((len(a) - 1) // d + (len(b) - 1) // d + 1) * e)
        for i, x in enumerate(a):
            if x:
                i = i // d * e + i % d
                for j, y in bs:
                    out[i + j] += x * y
        terms = self.K._mod_terms
        v = []
        for s in range(0, len(out), e):
            for u in range(s + e - 1, s + d - 1, -1):
                x = out[u]
                if x:
                    for j, m in terms:
                        out[u - d + j] -= x * m
            v += out[s:s + d]
        return _vtrim(v)

    def pow(self, a, n):
        return ppow(self, a, n, PackedRing.mul)

    def _lead_rational(self, v):
        """v times an integer vector that makes its leading coefficient an
        int: the numerator of the inverse of that coefficient."""
        d = self.width
        top = (len(v) - 1) // d * d
        if len(v) - 1 == top:
            return v, (1,)
        w = _make(self.K, (v[top:] + (0,) * d)[:d], 1).inverse().num
        w = _vtrim(list(w))
        return self.mul(v, w), w

    def _monic(self, v):
        """The monic associate of v, in lowest terms (ends in its denominator)."""
        return _vprim(self._lead_rational(v)[0]) if v else ()

    def divmod(self, a, b):
        """(q, r, s) with s*a == q*b + r for b with an int leading coefficient
        b[-1].  The remainder is scaled only when a leading block is not
        divisible by b[-1]."""
        d = self.width
        L = b[-1]
        db, da = (len(b) - 1) // d, (len(a) - 1) // d
        if da < db:
            return (), a, 1
        a = list(a)
        q = [0] * ((da - db + 1) * d)
        s = 1
        bs = [(j, y) for j, y in enumerate(b) if y]
        for i in range(da - db, -1, -1):
            top = (i + db) * d
            blk = a[top:top + d]
            if not any(blk):
                continue
            f = abs(L) // math.gcd(L, *blk)
            if f != 1:
                a = [x * f for x in a]
                q = [x * f for x in q]
                s *= f
                blk = [x * f for x in blk]
            c = [x // L for x in blk]
            o = i * d
            q[o:o + len(c)] = c
            if any(c[1:]):
                for j, y in enumerate(self.mul(_vtrim(c), b)):
                    a[o + j] -= y
            else:
                c = c[0]
                for j, y in bs:
                    a[o + j] -= c * y
        return _vtrim(q), _vtrim(a[:db * d]), s

    def gcd(self, a, b):
        """By the coprime certificate, else a primitive remainder sequence."""
        if not a or not b:
            return self._monic(a or b)
        K, d = self.K, self.width
        if len(a) <= d or len(b) <= d or _coprime_mod_prime(K, a, b):
            return (1,)
        if len(a) < len(b):
            a, b = b, a
        b = self._monic(b)
        while True:
            r = self.divmod(a, b)[1]
            if not r:
                return b
            if len(r) <= d:
                return (1,)
            a, b = b, self._monic(r)

    def canon(self, nv, rn, rd, dv):
        if not nv:
            return (), 1, (1,)
        dv, w = self._lead_rational(dv)
        nv = self.mul(nv, w)
        # dv = L * D with D monic, so the numerator is (rn/rd) * nv / L
        n, c = _vlowest(nv, rn, rd * dv[-1])
        return n, c, _vprim(dv)

    def deriv(self, v):
        d = self.width
        return tuple([k // d * v[k] for k in range(d, len(v))])

    def eval(self, v, p, c):
        """v(p)/c as a CycNum: Horner on integer blocks, scaled by powers of
        p's denominator."""
        K, d = self.K, self.width
        pn, pd = p.num, p.den
        pad = (0,) * d
        top = (len(v) - 1) // d * d
        acc = (v[top:] + pad)[:d]
        scale = 1
        for i in range(top - d, -1, -d):
            scale *= pd
            acc = K._mul(acc, pn)
            acc = tuple([x + y * scale for x, y in zip(acc, (v[i:i + d] + pad)[:d])])
        return _lowest(K, acc, c * scale)

    def linear(self, p):
        return tuple([-x for x in p.num]) + (p.den,)  # pd * (t - p)

    def shift(self, v, p):
        """(pd^n * v(t + p), pd^n), n = deg v, p = pn/pd: Horner on blocks."""
        K, d = self.K, self.width
        pn, pd = p.num, p.den
        pad = (0,) * d
        blocks = [(v[i:i + d] + pad)[:d] for i in range(0, len(v), d)]
        acc = [blocks.pop()]
        scale = 1
        while blocks:
            scale *= pd
            # acc * (pd t + pn) + block * scale
            out = [K._mul(x, pn) for x in acc] + [pad]
            for j, x in enumerate(acc):
                out[j + 1] = tuple([y + z * pd for y, z in zip(out[j + 1], x)])
            out[0] = tuple([y + z * scale for y, z in zip(out[0], blocks.pop())])
            acc = out
        return tuple([x for b in acc for x in b]), scale


class FieldRing:
    """K[var] over a field K of parameter functions, on coefficient tuples
    with the p* helpers.  Every content is one, every divisor and
    denominator monic and every divmod exact, so lead is 1, the contents and
    the ratio rn/rd the RatFunc bodies pass in are 1 and comb's factors are
    +-1."""

    width = 1

    def __init__(self, K):
        self.K = K
        self.one = (K.one,)

    def pack(self, cs):
        return ptrim(cs), 1

    def scalar(self, x):
        return (x,), 1

    def unpack(self, v, c):
        return v

    def lead(self, v):
        return 1

    def mul(self, a, b):
        return pmul(self.K, a, b)

    def pow(self, a, n):
        return ppow(self.K, a, n)

    def comb(self, a, x, b, y):
        return padd(self.K, _times(self.K, a, x), _times(self.K, b, y))

    def divmod(self, a, b):
        return pdivmod(self.K, a, b) + (1,)

    def gcd(self, a, b):
        K = self.K
        while b:
            a, b = b, pdivmod(K, a, b)[1]
        return pmonic(K, a)

    def canon(self, nv, rn, rd, dv):
        K = self.K
        if not nv:
            return (), 1, self.one
        lc = dv[-1]
        if lc != K.one:
            inv = K.one / lc
            nv, dv = pscale(nv, inv), pscale(dv, inv)
        return nv, 1, dv

    def deriv(self, v):
        return pderiv_(self.K, v)

    def eval(self, v, p, c):
        return peval(self.K, v, p)

    def linear(self, p):
        return (-p, self.K.one)

    def shift(self, v, p):
        return pshift(self.K, v, p), 1


def _times(K, a, x):
    """The coefficient tuple a times the int x."""
    return a if x == 1 else pneg(a) if x == -1 else pscale(a, K.coerce(x))


def _ring(K):
    """The polynomial ring over the coefficient field K."""
    return PackedRing(K) if isinstance(K, CyclotomicField) else FieldRing(K)


def _cancel(R, a, b, g):
    """a/b with the common factor g divided out in the ring R: (qa, qb, x, y)
    with a/b == (qa/qb) * (x/y)."""
    qa, _, sa = R.divmod(a, g)
    qb, _, sb = R.divmod(b, g)
    return qa, qb, sb, sa


def pxgcd(K, a, b):
    """(g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = ptrim(a), ptrim(b)
    s0, s1 = (K.one,), ()
    t0, t1 = (), (K.one,)
    while r1:
        q, r = pdivmod(K, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, psub(K, s0, pmul(K, q, s1))
        t0, t1 = t1, psub(K, t0, pmul(K, q, t1))
    if not r0:
        return (), s0, t0
    lc = r0[-1]
    inv = K.one / lc
    return pscale(r0, inv), pscale(s0, inv), pscale(t0, inv)


def pderiv_(K, a):
    out = []
    for i, c in enumerate(a):
        if i:
            out.append(c * i)
    return ptrim(out)


def peval(K, a, x):
    out = K.zero
    for c in reversed(a):
        out = out * x + c
    return out


def pshift(K, a, p):
    """Coefficients of a(x + p)."""
    out = ()
    for c in reversed(a):
        out = padd(K, pmul(K, out, (p, K.one)), (c,))
    return out


def pcompose_power(K, a, q):
    """a(x^q)."""
    if not a:
        return ()
    out = [K.zero] * ((len(a) - 1) * q + 1)
    for i, c in enumerate(a):
        out[i * q] = c
    return ptrim(out)


def pscale_var(K, a, c):
    """a(c*x)."""
    out = []
    pw = K.one
    for coeff in a:
        out.append(coeff * pw)
        pw = pw * c
    return ptrim(out)


def pseries_inv(K, a, n):
    """Inverse of the power series a (a[0] != 0) modulo x^n."""
    inv0 = K.one / a[0]
    out = [inv0] + [K.zero] * (n - 1)
    for k in range(1, n):
        acc = K.zero
        for j in range(1, min(k, len(a) - 1) + 1):
            acc = acc + a[j] * out[k - j]
        out[k] = -inv0 * acc
    return tuple(out)


def squarefree_decomposition(K, f):
    """Yun's algorithm: returns ([(P_i, i)], lc) with f = lc * prod P_i^i,
    the P_i monic, squarefree, pairwise coprime."""
    f = ptrim(f)
    if not f:
        raise ZeroDivisionError("squarefree decomposition of 0")
    lc = f[-1]
    f = pmonic(K, f)
    if len(f) == 1:
        return [], lc
    fp = pderiv_(K, f)
    a = pgcd(K, f, fp)
    if pdeg(a) == 0:
        return [(f, 1)], lc
    b = pdivmod(K, f, a)[0]
    c = pdivmod(K, fp, a)[0]
    d = psub(K, c, pderiv_(K, b))
    out = []
    i = 1
    while pdeg(b) > 0:
        ai = pgcd(K, b, d)
        if pdeg(ai) > 0:
            out.append((ai, i))
        b = pdivmod(K, b, ai)[0]
        c = pdivmod(K, d, ai)[0]
        d = psub(K, c, pderiv_(K, b))
        i += 1
    return out, lc


# ---------------------------------------------------------------------------
# the function field and its elements
# ---------------------------------------------------------------------------

class FunctionField:
    """Field K(var) of rational functions over a coefficient field K."""

    _cache = {}

    def __init__(self, var: str, coeff):
        self.var = var
        self.coeff = coeff
        self.ring = _ring(coeff)  # the polynomials in var under every element
        self.zero = RatFunc(self, (), (coeff.one,), reduce=False)
        self.one = RatFunc(self, (coeff.one,), (coeff.one,), reduce=False)
        self.gen = RatFunc(self, (coeff.zero, coeff.one), (coeff.one,), reduce=False)
        self.points = []  # registered candidate pole locations (elements of K)
        self._gcd_cache = LRUCache()

    def cached_gcd(self, a, b):
        """pgcd of two polynomials of self.ring, cached under (a, b) unless
        one of them is constant."""
        R = self.ring
        if not (a and b):
            return pgcd(R, a, b)
        if len(a) <= R.width or len(b) <= R.width:
            return R.one
        return self._gcd_cache.lookup((a, b), lambda: pgcd(R, a, b))

    @classmethod
    def get(cls, var, coeff):
        key = (var, id(coeff))
        if key not in cls._cache:
            cls._cache[key] = cls(var, coeff)
        return cls._cache[key]

    def __repr__(self):
        return f"FunctionField({self.var!r}, {self.coeff!r})"

    # -- facade -------------------------------------------------------------
    def coerce(self, x):
        if isinstance(x, RatFunc):
            if x.field is self:
                return x
            if x.field.var == self.var:
                num = tuple(self.coeff.coerce(c) for c in x.num)
                den = tuple(self.coeff.coerce(c) for c in x.den)
                return RatFunc(self, num, den)
            # constant from a lower layer of this chain, or a constant of a
            # foreign chain
            try:
                return self.constant(self.coeff.coerce(x))
            except TypeError:
                if x.is_constant():
                    return self.coerce(x.constant_value())
                raise
        if isinstance(x, (int, Fraction, CycNum)):
            return self.constant(self.coeff.coerce(x))
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    def constant(self, c):
        if not c:
            return self.zero
        return _rf(self, *self.ring.scalar(c), self.ring.one)

    def from_coeffs(self, num, den=None):
        num = tuple(self.coeff.coerce(c) for c in num)
        den = (self.coeff.one,) if den is None else tuple(self.coeff.coerce(c) for c in den)
        return RatFunc(self, num, den)

    def register_points(self, pts):
        for p in pts:
            p = self.coeff.coerce(p)
            if all(p != q for q in self.points):
                self.points.append(p)

    # -- helpers ------------------------------------------------------------
    def bottom(self) -> CyclotomicField:
        f = self.coeff
        while isinstance(f, FunctionField):
            f = f.coeff
        return f

    def candidate_points(self, extra=()):
        """Root candidates for denominators: registered points, 0, +-1,
        +-parameter generators, extras, all closed under zeta-multiplication."""
        K = self.coeff
        base = [K.zero, K.one, -K.one]
        for p in self.points:
            base.append(p)
            base.append(-p)
        for p in extra:
            p = K.coerce(p)
            base.append(p)
            base.append(-p)
        f = K
        while isinstance(f, FunctionField):
            g = K.coerce(f.gen)
            base.append(g)
            base.append(-g)
            f = f.coeff
        bottomfield = f
        out = []
        zetas = [bottomfield.zeta_power(k) for k in range(bottomfield.order)]
        for b in base:
            for zk in zetas:
                c = b * K.coerce(zk)
                if all(c != q for q in out):
                    out.append(c)
        return out

    def rational_root_candidates(self, poly):
        """Rational-root-theorem candidates for a poly whose coefficients are
        all rational (as elements of the tower); empty list otherwise."""
        rats = []
        for c in poly:
            r = as_rational(c)
            if r is None:
                return []
            rats.append(r)
        if not rats or not rats[0]:
            return []
        from math import gcd

        den_lcm = 1
        for r in rats:
            den_lcm = den_lcm * r.denominator // gcd(den_lcm, r.denominator)
        ints = [int(r * den_lcm) for r in rats]
        a0, an = abs(ints[0]), abs(ints[-1])

        def divisors(n):
            out = []
            d = 1
            while d * d <= n:
                if n % d == 0:
                    out.append(d)
                    out.append(n // d)
                d += 1
            return sorted(set(out))

        cands = []
        for p in divisors(a0):
            for q in divisors(an):
                for s in (1, -1):
                    cands.append(Fraction(s * p, q))
        K = self.coeff
        return [K.coerce(c) for c in sorted(set(cands))]


def as_rational(x):
    """Fraction value of x if x is a rational constant of the tower, else None."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, CycNum):
        return x.as_fraction() if x.is_rational() else None
    if isinstance(x, RatFunc):
        if not x.is_constant():
            return None
        return as_rational(x.constant_value())
    return None


class RatFunc:
    """Element of K(var): a reduced fraction of polynomials of F.ring.

    The value is (_n/_c) / (_d/L), L = F.ring.lead(_d): _n/_c in lowest
    terms with _c > 0 an int, and _d/L monic.  Over Q(zeta_T) _n and _d are
    packed integer vectors; over a parameter field they are coefficient
    tuples with _c = L = 1.  Either way (_n, _c, _d) is canonical; num and
    den read as coefficient tuples."""

    __slots__ = ("field", "_n", "_c", "_d", "_coeffs", "_hash")

    def __init__(self, field, num, den, reduce=True):
        R = field.ring
        self.field = field
        self._coeffs = self._hash = None
        nv, nc = R.pack(num)
        dv, dc = R.pack(den)
        if not dv:
            raise ZeroDivisionError("zero denominator")
        if reduce:
            nv, nc, dv = _reduced(field, nv, dc, nc, dv)
        self._n, self._c, self._d = nv, nc, dv

    @property
    def num(self):
        return self._tuples()[0]

    @property
    def den(self):
        return self._tuples()[1]

    def _tuples(self):
        if self._coeffs is None:
            R = self.field.ring
            self._coeffs = R.unpack(self._n, self._c), R.unpack(self._d, R.lead(self._d))
        return self._coeffs

    # -- coercion glue -------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, RatFunc) and other.field is self.field:
            return other
        try:
            return self.field.coerce(other)
        except TypeError:
            return None

    def _pair(self, other):
        """Coerce self and other into a common field (either direction);
        needed because Python skips reflected dunders for same-type
        operands."""
        o = self._coerce(other)
        if o is not None:
            return self, o
        if isinstance(other, RatFunc):
            try:
                return other.field.coerce(self), other
            except TypeError:
                return None, None
        return None, None

    def __bool__(self):
        return bool(self._n)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("RatFunc", self.field.var, self._n, self._c, self._d))
        return self._hash

    def __eq__(self, other):
        a, o = self._pair(other)
        if o is None:
            return NotImplemented
        return a._n == o._n and a._c == o._c and a._d == o._d

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other):
        a, o = self._pair(other)
        if o is None:
            return NotImplemented
        if not a._n:
            return o
        if not o._n:
            return a
        # n1/(c1 D1) + n2/(c2 D2) with Di = di/Li monic, over the common
        # denominator c1 c2 / gcd(c1, c2)
        F = a.field
        R = F.ring
        n1, d1, n2, d2 = a._n, a._d, o._n, o._d
        gc = math.gcd(a._c, o._c)
        a1, a2 = a._c // gc, o._c // gc
        rd = gc * a1 * a2
        L1, L2 = R.lead(d1), R.lead(d2)
        if d1 == d2:
            return _rf(F, *_reduced(F, R.comb(n1, a2, n2, a1), L1, rd, d1))
        # classical reduced addition: with g = gcd(d1, d2) only the part
        # n1 d2/g + n2 d1/g can share a factor with g
        g = F.cached_gcd(d1, d2)
        if len(g) == 1:
            num = R.comb(R.mul(n1, d2), L1 * a2, R.mul(n2, d1), L2 * a1)
            return _rf(F, *R.canon(num, 1, rd, R.mul(d1, d2)))
        q1, _, s1 = R.divmod(d1, g)
        q2, _, s2 = R.divmod(d2, g)
        num = R.comb(R.mul(n1, q2), L1 * s1 * a2, R.mul(n2, q1), L2 * s2 * a1)
        if not num:
            return F.zero
        h = F.cached_gcd(num, g)
        rn = 1
        if len(h) > 1:
            num, g, x, y = _cancel(R, num, g, h)
            rn, rd = x, rd * y
        return _rf(F, *R.canon(num, rn, rd, R.mul(R.mul(q1, q2), g)))

    __radd__ = __add__

    def __neg__(self):
        return _rf(self.field, pneg(self._n), self._c, self._d)

    def __sub__(self, other):
        a, o = self._pair(other)
        if o is None:
            return NotImplemented
        return a + (-o)

    def __rsub__(self, other):
        a, o = self._pair(other)
        if o is None:
            return NotImplemented
        return o + (-a)

    def __mul__(self, other):
        a, o = self._pair(other)
        if o is None:
            return NotImplemented
        F = a.field
        R = F.ring
        n1, d1, n2, d2 = a._n, a._d, o._n, o._d
        if not n1 or not n2:
            return F.zero
        # cross-cancel: products of reduced fractions reduce via the two
        # cross gcds only
        rn, rd = R.lead(d1) * R.lead(d2), a._c * o._c
        g = F.cached_gcd(n1, d2)
        if len(g) > 1:
            n1, d2, x, y = _cancel(R, n1, d2, g)
            rn, rd = rn * x, rd * y
        g = F.cached_gcd(n2, d1)
        if len(g) > 1:
            n2, d1, x, y = _cancel(R, n2, d1, g)
            rn, rd = rn * x, rd * y
        return _rf(F, *R.canon(R.mul(n1, n2), rn, rd, R.mul(d1, d2)))

    __rmul__ = __mul__

    def inverse(self):
        if not self._n:
            raise ZeroDivisionError("inverse of zero rational function")
        R = self.field.ring
        return _rf(self.field, *R.canon(self._d, self._c, R.lead(self._d), self._n))

    def __truediv__(self, other):
        a, o = self._pair(other)
        if o is None:
            return NotImplemented
        return a * o.inverse()

    def __rtruediv__(self, other):
        a, o = self._pair(other)
        if o is None:
            return NotImplemented
        return o * a.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        F = self.field
        if n == 0:
            return F.one
        # (n/c)^k / (d/L)^k with L^k the lead of d^k
        R = F.ring
        den = R.pow(self._d, n)
        return _rf(F, *R.canon(R.pow(self._n, n), R.lead(den), self._c ** n, den))

    # -- structure -------------------------------------------------------------
    def _degree(self, v):
        return (len(v) - 1) // self.field.ring.width

    def is_constant(self):
        return len(self._n) <= self.field.ring.width and len(self._d) == 1

    def constant_value(self):
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        if not self._n:
            return self.field.coeff.zero
        return self.field.ring.unpack(self._n, self._c)[0]

    def is_polynomial(self):
        return len(self._d) == 1

    def degree(self):
        """deg num - deg den (degree at infinity)."""
        return self._degree(self._n) - self._degree(self._d)

    def derivative(self):
        F = self.field
        R = F.ring
        n, d = self._n, self._d
        if len(d) == 1:
            return _rf(F, *R.canon(R.deriv(n), 1, self._c, d))
        # (n/d)' = (n' u s2 - n v s1) / (s2 d u) with s1 d = u g, s2 d' = v g
        dp = R.deriv(d)
        g = F.cached_gcd(d, dp)
        u, v, s1, s2 = d, dp, 1, 1
        if len(g) > 1:
            u, _, s1 = R.divmod(d, g)
            v, _, s2 = R.divmod(dp, g)
        num = R.comb(R.mul(R.deriv(n), u), s2, R.mul(n, v), -s1)
        return _rf(F, *_reduced(F, num, R.lead(d), self._c * s2, R.mul(d, u)))

    def eval_at(self, p):
        R, K = self.field.ring, self.field.coeff
        p = K.coerce(p)
        dv = R.eval(self._d, p, R.lead(self._d))
        if not dv:
            raise ZeroDivisionError(f"pole of {self} at {p}")
        return R.eval(self._n, p, self._c) / dv if self._n else K.zero

    def valuation_at(self, p):
        """Order of vanishing at p (negative at a pole); None for the zero fn."""
        if not self._n:
            return None
        R = self.field.ring
        lin = R.linear(self.field.coeff.coerce(p))

        def mult(poly):
            m = 0
            while True:
                q, r, _ = R.divmod(poly, lin)
                if r:
                    return m
                poly = q
                m += 1

        return mult(self._n) - mult(self._d)

    def valuation_at_infinity(self):
        if not self._n:
            return None
        return self._degree(self._d) - self._degree(self._n)

    def is_regular_at(self, p):
        if not self._n:
            return True
        if p == INFINITY:
            return self.valuation_at_infinity() >= 0
        v = self.valuation_at(p)
        return v >= 0

    def eval_at_infinity(self):
        v = self.valuation_at_infinity()
        if v is None:
            return self.field.coeff.zero
        if v < 0:
            raise ZeroDivisionError(f"pole of {self} at infinity")
        if v > 0:
            return self.field.coeff.zero
        return self.num[-1] / self.den[-1]

    # -- substitutions ----------------------------------------------------------
    def subs_scale(self, c):
        """f(c * var)."""
        K = self.field.coeff
        c = K.coerce(c)
        return RatFunc(self.field, pscale_var(K, self.num, c), pscale_var(K, self.den, c))

    def subs_power(self, q, target_field=None):
        """f(u^q) in the field of target_field (default: same field)."""
        tf = target_field or self.field
        K = tf.coeff
        num = tuple(K.coerce(c) for c in self.num)
        den = tuple(K.coerce(c) for c in self.den)
        return RatFunc(tf, pcompose_power(K, num, q), pcompose_power(K, den, q))

    def descend_power(self, q, target_field=None):
        """Inverse of subs_power: rewrite f(u) as g(t) with t = u^q.
        Requires every exponent of num and den to be divisible by q (after
        clearing a common monomial factor)."""
        tf = target_field or self.field
        K = self.field.coeff

        def take(poly):
            if not poly:
                return ()
            if any(c and (i % q) for i, c in enumerate(poly)):
                return None
            return tuple(poly[i] for i in range(0, len(poly), q))

        shift = 0
        num, den = self.num, self.den
        # allow a common u^s factor with s deciding divisibility jointly
        vn = next((i for i, c in enumerate(num) if c), None)
        vd = next((i for i, c in enumerate(den) if c), None)
        if vn is not None and vd is not None:
            s = min(vn, vd)
            num, den = num[s:], den[s:]
        n2, d2 = take(num), take(den)
        if n2 is None or d2 is None:
            raise ValueError(f"{self} does not descend along u -> u^{q}")
        Kt = tf.coeff
        n2 = tuple(Kt.coerce(c) for c in n2)
        d2 = tuple(Kt.coerce(c) for c in d2)
        return RatFunc(tf, n2, d2)

    # -- local data ---------------------------------------------------------------
    def principal_part_at(self, p):
        """Coefficients (c_1, ..., c_k) of (x-p)^-1, ..., (x-p)^-k."""
        R, K = self.field.ring, self.field.coeff
        p = K.coerce(p)
        if not self._n:
            return ()
        # Taylor shifts; the series below needs only k terms of each
        w = R.width
        den, sd = R.shift(self._d, p)
        k = next(i for i, x in enumerate(den) if x) // w
        if k == 0:
            return ()
        num, sn = R.shift(self._n, p)
        num = R.unpack(num[:k * w], sn * self._c)
        den = R.unpack(den[k * w:2 * k * w], sd * R.lead(self._d))
        inv = pseries_inv(K, den, k)
        prod = pmul(K, num, inv)
        coeffs = list(prod[:k]) + [K.zero] * max(0, k - len(prod))
        # coefficient of (x-p)^(j-k) is coeffs[j]; c_m multiplies (x-p)^(-m)
        return tuple(coeffs[k - m] if k - m < len(coeffs) else K.zero for m in range(1, k + 1))

    def residue_at(self, p):
        """Residue of f dx at p (p may be INFINITY)."""
        K = self.field.coeff
        if p == INFINITY:
            # res_inf f dx = -res_0 of f(1/s)/s^2 ds
            n, d = self.num, self.den
            rn = tuple(reversed(n)) if n else ()
            rd = tuple(reversed(d))
            # f(1/s) = s^(deg d - deg n) * rn(s)/rd(s)
            shift = pdeg(d) - pdeg(n) if n else 0
            if not n:
                return K.zero
            num, den = rn, rd
            e = shift - 2  # extra s-exponent of f(1/s)/s^2
            if e > 0:
                num = pmul(K, num, (K.zero,) * e + (K.one,))
            elif e < 0:
                den = pmul(K, den, (K.zero,) * (-e) + (K.one,))
            g = RatFunc(self.field, num, den)
            pp = g.principal_part_at(K.zero)
            return -(pp[0] if pp else K.zero)
        pp = self.principal_part_at(p)
        return pp[0] if pp else K.zero

    # -- rendering ------------------------------------------------------------------
    def __str__(self):
        n = poly_str(self.field.coeff, self.num, self.field.var)
        if self.is_polynomial():
            return n
        d = poly_str(self.field.coeff, self.den, self.field.var)
        nn = n if (len(self.num) <= 1 or _single_term(self.num)) else f"({n})"
        return f"{nn} / ({d})"

    def __repr__(self):
        return f"RatFunc({self})"




_new_object = object.__new__


def _rf(F, n, c, d):
    """Trusted constructor of a RatFunc from its canonical (n, c, d)."""
    x = _new_object(RatFunc)
    x.field = F
    x._n, x._c, x._d = n, c, d
    x._coeffs = x._hash = None
    return x


def _reduced(F, nv, rn, rd, dv):
    """F.ring.canon after dividing out gcd(nv, dv)."""
    R = F.ring
    if nv:
        g = F.cached_gcd(nv, dv)
        if len(g) > 1:
            nv, dv, x, y = _cancel(R, nv, dv, g)
            rn, rd = rn * x, rd * y
    return R.canon(nv, rn, rd, dv)


def _single_term(poly):
    return sum(1 for c in poly if c) <= 1


def coeff_str(K, c):
    """Render a coefficient, parenthesised when composite."""
    s = str(c)
    if any(op in s for op in (" + ", " - ", " / ")):
        return f"({s})"
    if s.startswith("-"):
        return f"({s})"
    return s


def poly_str(K, coeffs, var):
    if not coeffs:
        return "0"
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            mon = None
        elif i == 1:
            mon = var
        else:
            mon = f"{var}^{i}"
        one = K.one
        if mon is None:
            body = coeff_str(K, c)
        elif c == one:
            body = mon
        elif c == -one:
            body = f"-{mon}"
        else:
            body = f"{coeff_str(K, c)}*{mon}"
        terms.append(body)
    out = terms[0]
    for t in terms[1:]:
        if t.startswith("-") and not t.startswith("(-"):
            out += f" - {t[1:]}"
        else:
            out += f" + {t}"
    return out


# ---------------------------------------------------------------------------
# roots, partial fractions, antiderivatives
# ---------------------------------------------------------------------------

def linear_split(field: FunctionField, poly, extra=()):
    """Split off the linear factors of poly whose roots lie in the working
    field.  Returns (roots, leftover) where roots is a list of (root,
    multiplicity) and leftover has no root in the field that was found.

    The configured candidate set is tried first; a leftover of degree >= 2
    then tries the rational-root candidates (times powers of zeta), and a
    linear leftover gives its root -b/a without candidates."""
    K = field.coeff
    poly = ptrim(poly)
    roots = []

    def peel(cands):
        nonlocal poly
        for c in cands:
            if pdeg(poly) < 2:
                break
            m = 0
            while pdeg(poly) >= 1:
                q, rem = pdivmod(K, poly, (-c, K.one))
                if rem:
                    break
                poly = q
                m += 1
            if m:
                roots.append((c, m))

    peel(field.candidate_points(extra))
    if pdeg(poly) >= 2:
        bottom = field.bottom()
        peel(r * K.coerce(bottom.zeta_power(k))
             for r in field.rational_root_candidates(poly) for k in range(bottom.order))
    if pdeg(poly) == 1:
        roots.append((-poly[0] / poly[1], 1))
        poly = poly[1:]
    return roots, pmonic(K, poly)


class PrincipalPartDecomp:
    """polynomial_part + sum over poles p of sum_m c_m (x-p)^(-m)."""

    def __init__(self, field, polynomial_part, pole_parts):
        self.field = field
        self.polynomial_part = polynomial_part  # coefficient tuple
        self.pole_parts = pole_parts  # list of (pole, (c_1, ..., c_k))

    def reassemble(self) -> RatFunc:
        F = self.field
        K = F.coeff
        out = RatFunc(F, self.polynomial_part, (K.one,))
        for p, cs in self.pole_parts:
            lin = RatFunc(F, (-p, K.one), (K.one,))
            for m, c in enumerate(cs, start=1):
                if c:
                    out = out + RatFunc(F, (c,), (K.one,)) / lin ** m
        return out

    def __repr__(self):
        return f"PrincipalPartDecomp(poly={self.polynomial_part}, poles={self.pole_parts})"


def partial_fractions(f: RatFunc, extra_points=()) -> PrincipalPartDecomp:
    """Exact principal-part decomposition.  The denominator must split over
    the working field extended by the configured pole set, else
    IrreducibleDenominator is raised."""
    F = f.field
    K = F.coeff
    poly_part, rem = pdivmod(K, f.num, f.den)
    roots, leftover = linear_split(F, f.den, extra_points)
    if pdeg(leftover) > 0:
        raise IrreducibleDenominator(poly_str(K, leftover, F.var))
    parts = []
    for p, m in roots:
        g = RatFunc(F, rem, f.den)
        pp = g.principal_part_at(p)
        if any(pp):
            parts.append((p, pp))
    return PrincipalPartDecomp(F, poly_part, parts)


def poles_of(f: RatFunc, extra_points=()):
    """Finite poles of f as a list of (point, order); raises
    IrreducibleDenominator when a denominator factor cannot be resolved."""
    F = f.field
    roots, leftover = linear_split(F, f.den, extra_points)
    if pdeg(leftover) > 0:
        raise IrreducibleDenominator(poly_str(F.coeff, leftover, F.var))
    out = []
    for p, m in roots:
        v = f.valuation_at(p)
        if v < 0:
            out.append((p, -v))
    return out


def _coprime_split(K, num, dens):
    """num / prod(dens) = poly + sum_i num_i/dens_i with the dens pairwise
    coprime.  Returns (poly_part, [num_i])."""
    if len(dens) == 1:
        q, r = pdivmod(K, num, dens[0])
        return q, [r]
    d0 = dens[0]
    rest = (K.one,)
    for d in dens[1:]:
        rest = pmul(K, rest, d)
    g, s, t = pxgcd(K, d0, rest)
    if pdeg(g) != 0:
        raise PartialFractionError("squarefree factors are not coprime")
    # 1 = s*d0 + t*rest  =>  num/(d0*rest) = num*t/d0 + num*s/rest
    n0 = pmul(K, num, t)
    q0, r0 = pdivmod(K, n0, d0)
    nr = pmul(K, num, s)
    poly, rems = _coprime_split(K, nr, dens[1:])
    total_poly = padd(K, q0, poly)
    return total_poly, [r0] + rems


def hermite_reduce(F: FunctionField, num, den):
    """Hermite reduction of the proper fraction num/den.

    Returns (rational_part: RatFunc, log_parts: list of (numer, squarefree
    monic denom)) with num/den = rational_part' + sum numer/denom and every
    denom squarefree.  No root finding involved."""
    K = F.coeff
    sqf, lc = squarefree_decomposition(K, den)
    num = pscale(num, K.one / lc)
    dens = [ppow(K, P, i) for P, i in sqf]
    poly, nums = _coprime_split(K, num, dens)
    if poly:
        raise PartialFractionError("input fraction was not proper")
    rational = F.zero
    logs = []
    for (P, i), A in zip(sqf, nums):
        k = i
        while k >= 2:
            # 1 = u*P + v*P'
            g, u, v = pxgcd(K, P, pderiv_(K, P))
            if pdeg(g) != 0:
                raise PartialFractionError("a squarefree factor shares a root with its derivative")
            Av = pmul(K, A, v)
            # A/P^k = (A*u)/P^(k-1) + Av*P'/P^k
            # int Av*P'/P^k = Av/((1-k)P^(k-1)) - int Av'/((1-k)P^(k-1))
            c = Fraction(1, 1 - k)
            rational = rational + RatFunc(F, pscale(Av, K.coerce(c)), ppow(K, P, k - 1))
            A = psub(K, pmul(K, A, u), pscale(pderiv_(K, Av), K.coerce(c)))
            k -= 1
        # reduce A mod P, fold the quotient away: the quotient integrates into
        # the other terms only through exactness; here deg A may exceed deg P,
        # so split A = q*P + r and absorb q as a polynomial integrand
        q, r = pdivmod(K, A, P)
        if q:
            ints = [K.coerce(Fraction(1, j + 1)) * c for j, c in enumerate(q)]
            rational = rational + RatFunc(F, (K.zero,) + tuple(ints), (K.one,))
        if r:
            logs.append((r, P))
    return rational, logs


def rational_antiderivative(f: RatFunc, extra_points=()):
    """An exact antiderivative F with F' = f, when one exists in the field;
    otherwise the MonodromyObstruction value listing the poles (with nonzero
    residues) that obstruct it."""
    F = f.field
    K = F.coeff
    poly, rem = pdivmod(K, f.num, f.den)
    out = F.zero
    if poly:
        ints = [K.coerce(Fraction(1, i + 1)) * c for i, c in enumerate(poly)]
        out = out + RatFunc(F, (K.zero,) + tuple(ints), (K.one,))
    if rem:
        rational, logs = hermite_reduce(F, rem, f.den)
        out = out + rational
        if logs:
            # combine log integrands and report residues
            residues = []
            unresolved = []
            total = F.zero
            for numer, denom in logs:
                total = total + RatFunc(F, numer, denom)
            if total:
                roots, leftover = linear_split(F, total.den, extra_points)
                for p, m in roots:
                    r = total.residue_at(p)
                    if r:
                        residues.append((p, r))
                if pdeg(leftover) > 0:
                    unresolved.append(poly_str(K, leftover, F.var))
                return MonodromyObstruction(residues, unresolved)
    return out


def substitute_power(f: RatFunc, q: int, target_field=None) -> RatFunc:
    """f(u^q), the q-sheeted-cover pullback of the bare function (the caller
    owns the q u^(q-1) du Jacobian for differentials)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return f.subs_power(q, target_field)
