"""Univariate rational functions over an exact field, used both for the
transcendental-parameter layers and for functions of the global coordinate t.

A RatFunc is a reduced num/den pair with monic denominator, so equality and
hashing are canonical.  Everything here is written once, against the
polynomial ring of its FunctionField (F.ring): over Q(zeta_T) a PackedRing of
integer vectors with one content, over a parameter field a FieldRing of
coefficient tuples.  RatFunc arithmetic, local data and root splitting work
on the ring's polynomials.  Local data at any point of P^1, infinity
included, come from one reader, RatFunc._local: the first terms of num and
den in the local coordinate, by a Taylor shift, a slice at 0, or reversed
at infinity; values, orders, Laurent series and residues are read off
them.  Antiderivatives come from Hermite reduction in
Mack's linear form: ring gcds and one extended Euclid per multiplicity, no
factoring, on polynomials held as RatFuncs with denominator 1, dividing
through _pdivmod.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import IrreducibleDenominator, MalformedOper, MonodromyObstruction, PartialFractionError
from .scalars import CycNum, CyclotomicField, LRUCache, _lowest, _make

INFINITY = "inf"  # marker for the point at infinity


def pgcd(R, a, b):
    """Monic gcd of the polynomials a and b of the ring R: the one gcd entry
    of the module."""
    return R.gcd(a, b)


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
#   monic(v)     an associate m of v with m/lead(m) monic
#   divmod(a, b) (q, r, s): s*a == q*b + r with an int s > 0, for b with an
#                int lead (any monic(v) has one)
#   gcd(a, b)    monic gcd
#   canon(nv, rn, rd, dv)  canonical (n, c, d) of (rn/rd) * nv/dv for
#                coprime nv, dv and nonzero ints rn, rd
#   deriv(v), linear(p) a multiple of var - p with an int lead,
#                shift(v, p, keep) = (w, s) with w the first keep
#                coefficients (default all, not trimmed) of s * v(var + p),
#                so w[:width]/s is v(p), scale(v, c) = (w, s) with
#                w = s * v(c var), c nonzero
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


class _Ring:
    """What PackedRing and FieldRing share."""

    def pow(self, a, n):
        """a^n for n >= 1 by squaring."""
        out = None
        while True:
            if n & 1:
                out = a if out is None else self.mul(out, a)
            n >>= 1
            if not n:
                return out
            a = self.mul(a, a)


class PackedRing(_Ring):
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

    def monic(self, v):
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
            return self.monic(a or b)
        K, d = self.K, self.width
        if len(a) <= d or len(b) <= d or _coprime_mod_prime(K, a, b):
            return (1,)
        if len(a) < len(b):
            a, b = b, a
        b = self.monic(b)
        while True:
            r = self.divmod(a, b)[1]
            if not r:
                return b
            if len(r) <= d:
                return (1,)
            a, b = b, self.monic(r)

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

    def linear(self, p):
        return tuple([-x for x in p.num]) + (p.den,)  # pd * (t - p)

    def shift(self, v, p, keep=None):
        """(the first keep coefficients of pd^n * v(t + p), pd^n), n = deg v,
        p = pn/pd: Horner, truncated to keep blocks.  At a rational p each
        zeta-lane is an integer polynomial, shifted on the flat vector; at
        any other p the blocks are multiplied in K."""
        K, d = self.K, self.width
        pn, pd = p.num, p.den
        if not any(pn[1:]):
            pn, z = pn[0], [0] * d
            stop = None if keep is None else keep * d
            w = list(v) + z[:-len(v) % d]
            top = len(w) - d
            acc, scale = w[top:], 1
            for i in range(top - d, -1, -d):
                scale *= pd
                # acc * (pd t + pn) + block * scale
                acc = [x * pn + y * pd for x, y in zip(acc + z, z + acc)][:stop]
                acc[:d] = [x + y * scale for x, y in zip(acc, w[i:i + d])]
            return tuple(acc), scale
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
            acc = out[:keep]
        return tuple([x for b in acc for x in b]), scale

    def scale(self, v, c):
        """(w, cd^n) with w = cd^n * v(c t), c = cn/cd, n = deg v: block i
        times cn^i cd^(n-i); a zero block stays zero."""
        K, d = self.K, self.width
        n = (len(v) - 1) // d
        zero = (0,) * d
        out, pw = [], K.one.num
        for i in range(n + 1):
            block = v[i * d:i * d + d]
            if any(block):
                f = c.den ** (n - i)
                out += [x * f for x in K._mul((block + zero)[:d], pw)]
            else:
                out += zero
            pw = K._mul(pw, c.num)
        return _vtrim(out), c.den ** n


class FieldRing(_Ring):
    """K[var] over a field K of parameter functions, on coefficient tuples
    (ascending, no trailing zeros, () is 0).  Every content is one, every
    divisor and denominator monic and every divmod exact, so lead is 1, the
    contents and the ratio rn/rd the RatFunc bodies pass in are 1 and
    comb's factors are +-1."""

    width = 1

    def __init__(self, K):
        self.K = K
        self.one = (K.one,)

    def pack(self, cs):
        return _vtrim(list(cs)), 1

    def scalar(self, x):
        return (x,), 1

    def unpack(self, v, c):
        return v

    def lead(self, v):
        return 1

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [self.K.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = out[i + j] + x * y
        return _vtrim(out)

    def comb(self, a, x, b, y):
        if len(a) < len(b):
            a, x, b, y = b, y, a, x
        a = a if x == 1 else [-c for c in a] if x == -1 else [c * x for c in a]
        b = b if y == 1 else [-c for c in b] if y == -1 else [c * y for c in b]
        return _vtrim([p + q for p, q in zip(a, b)] + list(a[len(b):]))

    def divmod(self, a, b):
        K = self.K
        a = list(a)
        n = len(b)
        inv = K.one / b[-1]
        q = [K.zero] * max(0, len(a) - n + 1)
        for i in range(len(q) - 1, -1, -1):
            c = a[i + n - 1] * inv
            q[i] = c
            if c:
                for j, y in enumerate(b):
                    a[i + j] = a[i + j] - c * y
        return _vtrim(q), _vtrim(a[:n - 1]), 1

    def gcd(self, a, b):
        while b:
            a, b = b, self.divmod(a, b)[1]
        return self.monic(a)

    def monic(self, v):
        if not v or v[-1] == self.K.one:
            return v
        inv = self.K.one / v[-1]
        return tuple([x * inv for x in v])

    def canon(self, nv, rn, rd, dv):
        K = self.K
        if not nv:
            return (), 1, self.one
        lc = dv[-1]
        if lc != K.one:
            inv = K.one / lc
            nv, dv = tuple([x * inv for x in nv]), tuple([x * inv for x in dv])
        return nv, 1, dv

    def deriv(self, v):
        return tuple([v[i] * i for i in range(1, len(v))])

    def linear(self, p):
        return (-p, self.K.one)

    def shift(self, v, p, keep=None):
        """(the first keep coefficients of v(var + p), 1) by Horner:
        out <- out * (var + p) + x, truncated to keep terms."""
        out = []
        for x in reversed(v):
            new = [x] + out
            for i, y in enumerate(out):
                new[i] = new[i] + p * y
            out = new[:keep]
        return tuple(out), 1

    def scale(self, v, c):
        out, pw = [], self.K.one
        for x in v:
            out.append(x * pw)
            pw = pw * c
        return tuple(out), 1


def _ring(K):
    """The polynomial ring over the coefficient field K."""
    return PackedRing(K) if isinstance(K, CyclotomicField) else FieldRing(K)


def _cancel(R, a, b, g):
    """a/b with the common factor g divided out in the ring R: (qa, qb, x, y)
    with a/b == (qa/qb) * (x/y)."""
    qa, _, sa = R.divmod(a, g)
    qb, _, sb = R.divmod(b, g)
    return qa, qb, sb, sa


# ---------------------------------------------------------------------------
# the function field and its elements
# ---------------------------------------------------------------------------

# trial divisors of rational_root_candidates, so that a 19-digit constant
# term costs milliseconds and not the sqrt(n) divisions of a full search
_TRIAL_DIVISORS = 1 << 16


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

    # -- helpers ------------------------------------------------------------
    def bottom(self) -> CyclotomicField:
        f = self.coeff
        while isinstance(f, FunctionField):
            f = f.coeff
        return f

    def candidate_points(self, extra=()):
        """Root candidates for denominators: 0, +-1, +-extra, +-parameter
        generators, all closed under zeta-multiplication.  They depend on
        the arguments and the field only."""
        K = self.coeff
        gens, f = [], K
        while isinstance(f, FunctionField):
            gens.append(K.coerce(f.gen))
            f = f.coeff
        base = [K.zero, K.one, -K.one]
        for p in [*map(K.coerce, extra), *gens]:
            base += [p, -p]
        zetas = [K.coerce(f.zeta_power(k)) for k in range(f.order)]
        out = []
        for b in base:
            for z in zetas:
                c = b * z
                if all(c != q for q in out):
                    out.append(c)
        return out

    def rational_root_candidates(self, poly):
        """Rational-root-theorem candidates for a poly whose coefficients are
        all rational (as elements of the tower); empty list otherwise.  A
        divisor d of an end coefficient n is tried only when d or n/d is
        at most _TRIAL_DIVISORS."""
        rats = [as_rational(c) for c in poly]
        if not rats or any(r is None for r in rats) or not rats[0]:
            return []
        L = math.lcm(*[r.denominator for r in rats])

        def divisors(n):
            top = min(math.isqrt(n), _TRIAL_DIVISORS)
            small = [d for d in range(1, top + 1) if not n % d]
            return small + [n // d for d in small]

        cands = {Fraction(s * p, q) for p in divisors(abs(int(rats[0] * L)))
                 for q in divisors(abs(int(rats[-1] * L))) for s in (1, -1)}
        return [self.coeff.coerce(c) for c in sorted(cands)]


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
        """num/den for coefficient tuples num, den; reduce=False promises
        that they are coprime and skips only the gcd."""
        R = field.ring
        self.field = field
        self._coeffs = self._hash = None
        nv, nc = R.pack(num)
        dv, dc = R.pack(den)
        if not dv:
            raise ZeroDivisionError("zero denominator")
        if reduce:
            nv, nc, dv = _reduced(field, nv, dc, nc, dv)
        else:
            nv, nc, dv = R.canon(nv, dc, nc, dv)
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
        return _rf(self.field, tuple([-x for x in self._n]), self._c, self._d)

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
        if isinstance(R, PackedRing):
            # a constant factor is a unit of K[t]: the other factor keeps its
            # canonical denominator, and only the integer content is reduced
            w = R.width
            if len(d2) == 1 and len(n2) <= w:
                return _rf(F, *_vlowest(R.mul(n1, n2), 1, a._c * o._c), d1)
            if len(d1) == 1 and len(n1) <= w:
                return _rf(F, *_vlowest(R.mul(n1, n2), 1, a._c * o._c), d2)
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

    # -- substitutions ----------------------------------------------------------
    # t -> c t and t -> t^q keep a reduced num and den coprime, and so does
    # their inverse, so each rebuilds the coefficient lists without a gcd
    def subs_scale(self, c, u=1):
        """u * f(c * var) for nonzero c and u: num and den scaled in the
        ring, then one canon."""
        F = self.field
        R, K = F.ring, F.coeff
        if not self._n:
            return self
        c, u = K.coerce(c), K.coerce(u)
        nv, sn = R.scale(self._n, c)
        dv, sd = R.scale(self._d, c)
        uv, ud = R.scalar(u)
        # u (n/_c) / (d/L) at c var is u (nv/(sn _c)) / (dv/(sd L))
        return _rf(F, *R.canon(R.mul(nv, uv), sd * R.lead(self._d), sn * self._c * ud, dv))

    def subs_power(self, q, target_field=None):
        """f(u^q) in the field of target_field (default: same field), the
        q-sheeted-cover pullback of the bare function (the caller owns the
        q u^(q-1) du Jacobian for differentials).  For q = 1 into its own
        field it is self."""
        if q < 1:
            raise ValueError("q must be >= 1")
        tf = target_field or self.field
        if q == 1 and tf is self.field:
            return self
        K = tf.coeff

        def spread(cs):
            out = []
            for x in cs:
                out += [K.coerce(x)] + [K.zero] * (q - 1)
            return out

        return RatFunc(tf, spread(self.num), spread(self.den), reduce=False)

    def descend_power(self, q, target_field=None):
        """Inverse of subs_power: rewrite f(u) as g(t) with t = u^q.
        Requires every exponent of num and den to be divisible by q.  For
        q = 1 into its own field it is self."""
        tf = target_field or self.field
        if q == 1 and tf is self.field:
            return self
        K = tf.coeff

        def take(cs):
            if any(x and i % q for i, x in enumerate(cs)):
                raise ValueError(f"{self} does not descend along u -> u^{q}")
            return [K.coerce(x) for x in cs[::q]]

        return RatFunc(tf, take(self.num), take(self.den), reduce=False)

    # -- local data ---------------------------------------------------------------
    def _local(self, v, p, keep):
        """The polynomial v of the ring near p, INFINITY included, in the
        local coordinate s (t - p, or 1/t at INFINITY): (w, c) with w the
        first keep coefficients of c v(p + s), by a Taylor shift (a slice at
        0, c = 1), or at INFINITY of s^m v(1/s), m = deg v: the top
        coefficients of v reversed, c = 1, w(0) != 0.  With (n, cn), (d, cd)
        the reads of num, den and off = _off(p), f is s^off times
        (n/(cn _c))/(d/(cd lead(den)))."""
        R = self.field.ring
        if p == INFINITY:
            return _reversed(v, R.width, keep), 1
        p = self.field.coeff.coerce(p)
        if not p:
            return v[:keep * R.width], 1
        return R.shift(v, p, keep)

    def _off(self, p):
        """The power of s in front of the local reads: deg den - deg num at
        INFINITY, else 0."""
        return self._degree(self._d) - self._degree(self._n) if p == INFINITY else 0

    def eval_at(self, p):
        """f(p); ZeroDivisionError at a pole."""
        R, K = self.field.ring, self.field.coeff
        if not self._n:
            return K.zero
        off = self._off(p)
        d, dc = self._local(self._d, p, 1)
        # num and den are coprime, so d(0) == 0 is a pole
        if off < 0 or not any(d):
            raise ZeroDivisionError(f"pole of {self} at {p}")
        if off:
            return K.zero
        n, nc = self._local(self._n, p, 1)
        return R.unpack(n, nc * self._c)[0] / R.unpack(d, dc * R.lead(self._d))[0]

    def valuation_at(self, p):
        """Order of vanishing at p (negative at a pole); None for the zero fn."""
        if not self._n:
            return None
        w, keep = self.field.ring.width, 1
        while True:
            a = _order(self._local(self._n, p, keep)[0], w, keep)
            b = _order(self._local(self._d, p, keep)[0], w, keep)
            if a < keep and b < keep:
                return self._off(p) + a - b
            keep *= 2

    def is_regular_at(self, p):
        if not self._n:
            return True
        return self._off(p) >= 0 and any(self._local(self._d, p, 1)[0])

    def laurent_at(self, p, prec):
        """The Laurent expansion of f at p (INFINITY included) in the local
        coordinate s up to O(s^prec), a Laurent."""
        R, K = self.field.ring, self.field.coeff
        if not self._n:
            return Laurent(K, math.inf, (), math.inf)
        # f = s^off n(s) / (s^k e(s)) with e(0) != 0, and the coefficient of
        # s^(off-k+j) is that of s^j in the series n/e, so the k + prec - off
        # terms wanted need as many of n and e: 2k + prec - off of the local
        # denominator.  Its read keeps that many for a guessed k = 1, at
        # least doubling them while its first nonzero term (so k) is not
        # among them; then the numerator is read to the terms wanted.
        w, off = R.width, self._off(p)
        keep, k = 0, 1
        while k >= keep or 2 * k + prec - off > keep:
            keep = max(2 * keep, 2 * k + prec - off, 1)
            d, dc = self._local(self._d, p, keep)
            k = _order(d, w, keep)
        terms = k + prec - off
        if terms <= 0:
            return Laurent(K, prec, (), prec)
        n, nc = self._local(self._n, p, terms)
        n = R.unpack(n, nc * self._c)
        e = R.unpack(d[k * w:(k + terms) * w], dc * R.lead(self._d))
        # e(0) is 1 at infinity, where d(0) is the lead of den
        inv = None if e[0] == K.one else e[0].inverse()
        s = []
        for j in range(terms):
            acc = n[j] if j < len(n) else K.zero
            for i in range(1, min(j, len(e) - 1) + 1):
                acc = acc - e[i] * s[j - i]
            s.append(acc if inv is None else acc * inv)
        return Laurent(K, off - k, s, prec)

    def principal_part_at(self, p):
        """Coefficients (c_1, ..., c_k) of s^-1, ..., s^-k at p."""
        return tuple(reversed(self.laurent_at(p, 0).cs))

    def residue_at(self, p):
        """Residue of f dt at p (p may be INFINITY, where dt = -ds/s^2)."""
        if p == INFINITY:
            return -self.laurent_at(p, 2).coeff(1)
        return self.laurent_at(p, 0).coeff(-1)

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


class Laurent:
    """sum_{k >= val} c_k s^k + O(s^prec) over the coefficient field K,
    s = x - p: cs = (c_val, ..., c_(prec-1)).  prec = inf marks an exact
    finite sum, whose cs ends in its last nonzero term.  val is the first
    known nonzero term, or prec when there is none, so it bounds the
    valuation from below; the exact zero has val = prec = inf and is the
    only false series.  Scalars of K act as exact constants."""

    __slots__ = ("K", "val", "cs", "prec")

    def __init__(self, K, val, cs, prec):
        lo, hi = 0, len(cs)
        while lo < hi and not cs[lo]:
            lo += 1
        if prec == math.inf:
            while hi > lo and not cs[hi - 1]:
                hi -= 1
        self.K, self.cs, self.prec = K, tuple(cs[lo:hi]), prec
        self.val = val + lo if self.cs else prec

    def _lift(self, x):
        return x if isinstance(x, Laurent) else Laurent(self.K, 0, (self.K.coerce(x),), math.inf)

    def coeff(self, k):
        """c_k; ArithmeticError past the precision."""
        if k >= self.prec:
            raise ArithmeticError(f"coefficient {k} of a series known to O(s^{self.prec})")
        i = k - self.val
        return self.cs[i] if 0 <= i < len(self.cs) else self.K.zero

    def __bool__(self):
        return self.prec != math.inf or bool(self.cs)

    def __add__(self, other):
        o = self._lift(other)
        if not o:
            return self
        if not self:
            return o
        prec = min(self.prec, o.prec)
        lo = min(self.val, o.val, prec)
        hi = min(prec, max(self.val + len(self.cs), o.val + len(o.cs)))
        return Laurent(self.K, lo, [self.coeff(k) + o.coeff(k) for k in range(lo, hi)], prec)

    __radd__ = __add__

    def __neg__(self):
        return Laurent(self.K, self.val, [-c for c in self.cs], self.prec)

    def __sub__(self, other):
        return self + -self._lift(other)

    def __mul__(self, other):
        if not isinstance(other, Laurent):
            c = self.K.coerce(other)
            if not c:
                return Laurent(self.K, math.inf, (), math.inf)
            return Laurent(self.K, self.val, [x * c for x in self.cs], self.prec)
        if not self or not other:
            return Laurent(self.K, math.inf, (), math.inf)
        val = self.val + other.val
        prec = min(self.prec + other.val, other.prec + self.val)
        n = len(self.cs) + len(other.cs) - 1 if prec == math.inf else max(0, prec - val)
        out = [self.K.zero] * n
        for i, x in enumerate(self.cs[:n]):
            if x:
                for j, y in enumerate(other.cs[:n - i]):
                    if y:
                        out[i + j] = out[i + j] + x * y
        return Laurent(self.K, val, out, prec)

    __rmul__ = __mul__

    def derivative(self):
        """d/ds, known to one order less."""
        return Laurent(self.K, self.val - 1, [c * (self.val + i) for i, c in enumerate(self.cs)],
                       self.prec - 1)


class LaurentRing:
    """The facade (zero, coerce) of Laurent series over K, for code written
    against a field: coerce keeps a Laurent and lifts a scalar to an exact
    constant."""

    def __init__(self, K):
        self.zero = Laurent(K, math.inf, (), math.inf)

    def coerce(self, x):
        return self.zero._lift(x)


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


def _order(v, w, keep):
    """The index of the first nonzero coefficient among the first keep of
    the polynomial v of width w, else keep."""
    return next((i for i, x in enumerate(v) if x), keep * w) // w


def _reversed(v, w, keep):
    """The first keep coefficients of s^m v(1/s), m = deg v, for the
    polynomial v of width w."""
    top = (len(v) - 1) // w * w
    out = list(v[top:]) + [0] * (top + w - len(v))
    for i in range(top - w, max(-1, top - keep * w), -w):
        out += v[i:i + w]
    return tuple(out)


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
    """Split off the linear factors of the polynomial poly of field.ring
    whose roots lie in the working field.  Returns (roots, leftover) where
    roots is a list of (root, multiplicity) and leftover, a monic associate
    in the ring, has no root in the field that was found.

    field.candidate_points(extra) are tried first; a leftover of degree >= 2
    then tries the rational-root candidates (times powers of zeta), and a
    linear leftover gives its root -b/a without candidates."""
    R, K = field.ring, field.coeff
    w = R.width
    poly = R.monic(poly)
    roots = []

    def peel(cands):
        nonlocal poly
        for c in cands:
            if len(poly) <= 2 * w:
                break
            lin, m = R.linear(c), 0
            while len(poly) > w:
                q, rem, _ = R.divmod(poly, lin)
                if rem:
                    break
                poly = R.monic(q)
                m += 1
            if m:
                roots.append((c, m))

    peel(field.candidate_points(extra))
    if len(poly) > 2 * w:
        bottom = field.bottom()
        monic = R.unpack(poly, R.lead(poly))
        peel(r * K.coerce(bottom.zeta_power(k))
             for r in field.rational_root_candidates(monic) for k in range(bottom.order))
    if w < len(poly) <= 2 * w:
        c0, c1 = R.unpack(poly, 1)
        roots.append((-c0 / c1, 1))
        poly = R.one
    return roots, poly


def _unsplit(F, leftover):
    """The leftover of linear_split as a string, or None when it is constant."""
    R = F.ring
    if len(leftover) > R.width:
        return poly_str(F.coeff, R.unpack(leftover, R.lead(leftover)), F.var)


def _roots(f, extra_points):
    """The roots of f's denominator with their multiplicities; raises
    IrreducibleDenominator when a factor cannot be resolved."""
    roots, leftover = linear_split(f.field, f._d, extra_points)
    bad = _unsplit(f.field, leftover)
    if bad:
        raise IrreducibleDenominator(bad)
    return roots


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
    R = F.ring
    roots = _roots(f, extra_points)
    # s*n == q*d + r, so the polynomial part of (n/c)/(d/L) is L*q/(s*c)
    q, _, s = R.divmod(f._n, f._d)
    q, c, _ = R.canon(q, R.lead(f._d), s * f._c, R.one)
    parts = []
    for p, m in roots:
        pp = f.principal_part_at(p)
        if any(pp):
            parts.append((p, pp))
    return PrincipalPartDecomp(F, R.unpack(q, c), parts)


def poles_of(f: RatFunc, extra_points=()):
    """Finite poles of f as a list of (point, order); raises
    IrreducibleDenominator when a denominator factor cannot be resolved."""
    out = []
    for p, m in _roots(f, extra_points):
        v = f.valuation_at(p)
        if v < 0:
            out.append((p, -v))
    return out


# ---------------------------------------------------------------------------
# Hermite reduction and antiderivatives, on polynomials held as RatFuncs
# with denominator 1
# ---------------------------------------------------------------------------

def _poly(F, v, rn=1, rd=1):
    """The polynomial (rn/rd) * v of F.ring as a RatFunc."""
    return _rf(F, *F.ring.canon(v, rn, rd, F.ring.one))


def _common_denominator(F, vec):
    """The lcm of the denominators of vec, as a polynomial: grown by the
    part of each denominator that it lacks."""
    q = F.one
    for x in vec:
        d = (q * x).den
        if len(d) > 1:
            q = q * F.from_coeffs(d)
    return q


def clear(f, g):
    """f * g as a polynomial by one exact division in the ring, no gcd, for
    a polynomial g that the denominator of f divides (else MalformedOper)."""
    F = f.field
    R = F.ring
    if not f._n:
        return f
    q, r, s = R.divmod(g._n, f._d)
    if r:
        raise MalformedOper("a denominator does not divide its clearing polynomial")
    # s g._n == q f._d, and f g = (f._n / f._c) lead(f._d) (g._n / g._c) / f._d
    return _poly(F, R.mul(f._n, q), R.lead(f._d), f._c * g._c * s)


def _pdivmod(f, g):
    """(q, r) with f == q*g + r and deg r < deg g."""
    F = f.field
    R = F.ring
    m = R.monic(g._n)
    q, r, s = R.divmod(f._n, m)
    # f == (q*m + r)/c with m == L*g/lc(g), L = lead(m)
    c = s * f._c
    q = _poly(F, q, R.lead(m), c)
    lc = g.num[-1]
    return (q if lc == 1 else q / lc), _poly(F, r, 1, c)


def _xgcd(a, b):
    """(g, s, t) with s*a + t*b == g, g the monic gcd of a and b."""
    F = a.field
    r0, r1, s0, s1, t0, t1 = a, b, F.one, F.zero, F.zero, F.one
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if not r0:
        return r0, s0, t0
    lc = r0.num[-1]
    return r0 / lc, s0 / lc, t0 / lc


def _integral(q):
    """The antiderivative of the polynomial q with constant term 0."""
    K = q.field.coeff
    cs = [K.zero] + [c * Fraction(1, j + 1) for j, c in enumerate(q.num)]
    return RatFunc(q.field, cs, (K.one,), reduce=False)


def hermite_reduce(num, den):
    """Hermite reduction in Mack's linear form (Bronstein, Symbolic
    Integration I, 2.2) of num/den, for polynomials num and den != 0.

    Returns (R, A, S) with num/den = R' + A/S, R proper and S squarefree.
    One multiplicity at a time comes off D- = gcd(D, D'), by one Bezout
    solve each; no factoring, no root finding."""
    F = num.field
    R = F.ring

    def gcd(a, b):
        g = pgcd(R, a._n, b._n)
        return _poly(F, g, 1, R.lead(g))

    def quo(a, b):
        return _pdivmod(a, b)[0]

    rational = F.zero
    dm = gcd(den, den.derivative())
    ds = quo(den, dm)
    while dm.degree() > 0:
        dm2 = gcd(dm, dm.derivative())
        dms = quo(dm, dm2)
        # D-* divides D* and D-2 divides D-': D* D-'/D- = (D*/D-*) (D-'/D-2)
        e = quo(ds, dms)
        a = -e * quo(dm.derivative(), dm2)
        # B a + C D-* = A with deg B < deg D-*
        g, s, t = _xgcd(a, dms)
        if g.degree() != 0:
            raise PartialFractionError("a Bezout solve of Hermite reduction has a non-unit gcd")
        q, B = _pdivmod(num * s, dms)
        C = num * t + q * a
        # (B/D-)' = (B' D* + B a) / (D* D-), and D* D- = D* D-2 D-*
        rational = rational + B / dm
        num = C - B.derivative() * e
        dm = dm2
    return rational, num, ds


def rational_antiderivative(f: RatFunc, extra_points=()):
    """The antiderivative F of f whose polynomial part has constant term 0
    and whose rest is proper, when one exists in the field; otherwise the
    MonodromyObstruction value listing the poles (with nonzero residues)
    that obstruct it."""
    F = f.field
    R = F.ring
    rational, A, S = hermite_reduce(_rf(F, f._n, f._c, R.one), _rf(F, f._d, R.lead(f._d), R.one))
    q, r = _pdivmod(A, S)
    if not r:
        return rational + _integral(q)
    # r/S is a nonzero proper fraction with squarefree denominator: its
    # residues obstruct
    total = r / S
    roots, leftover = linear_split(F, total._d, extra_points)
    residues = []
    for p, m in roots:
        res = total.residue_at(p)
        if res:
            residues.append((p, res))
    bad = _unsplit(F, leftover)
    return MonodromyObstruction(residues, [bad] if bad else [])
