"""Exact scalar arithmetic.

The ground field is Q(zeta_T), realised as Q[x]/Phi_T(x) in the power basis.
An element is an integer numerator vector over one positive common
denominator, in lowest terms (the layout of FLINT's nf_elem); Phi_T is monic
with integer coefficients, so products reduce mod Phi_T in integers.
Transcendental parameters (z, a, b, ...) are adjoined one at a time as
univariate rational-function layers over the previous field, and the global
coordinate t is one more such layer (see ratfunc.RatFunc).  Every element is
immutable and hashable; equality is canonical-representation equality.
A residue map onto F_p, zeta -> w for a root w of Phi_T mod a prime
p = 1 mod T, lets ratfunc certify coprime gcds.
"""

from __future__ import annotations

import math
import operator
from collections import OrderedDict
from fractions import Fraction
from functools import lru_cache

from .errors import ModulusError

CACHE_SIZE = 1024
"""Entries kept by each LRU cache: inverses here, polynomial gcds in ratfunc.
Most repeated keys recur within a few hundred calls, so a larger cap buys
little speed for much more memory."""


class LRUCache(OrderedDict):
    """A dict of at most CACHE_SIZE entries; the least recently used goes first."""

    def lookup(self, key, compute):
        """The cached value of key, or compute() stored under key."""
        hit = self.get(key)
        if hit is None:
            hit = self[key] = compute()
            if len(self) > CACHE_SIZE:
                self.popitem(last=False)
        else:
            self.move_to_end(key)
        return hit


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_divmod(p, q):
    """Quotient and trimmed remainder of p by q in Q[x] (ascending
    coefficient lists, q[-1] != 0)."""
    p = [Fraction(c) for c in p]
    lead = q[-1]
    out = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = out[i] = p[i + len(q) - 1] / lead
        if c:
            for j, qc in enumerate(q):
                p[i + j] -= c * qc
    return out, _trim(p)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients (ascending) of Phi_n over Q, computed by the recursive
    exact division of x^n - 1 by the Phi_d with d | n, d < n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, cyclotomic_polynomial(d))
            if rem:
                raise ModulusError(f"Phi_{d} does not divide x^{n} - 1 exactly")
    return tuple(Fraction(c) for c in num)


def split_prime(T: int):
    """(p, w): the largest prime p < 2^30 with p = 1 mod T, found by trial
    division, and a root w of Phi_T mod p (an element of order T)."""
    p = (2**30 - 2) // T * T + 1
    while not (p % 2 and all(p % q for q in range(3, math.isqrt(p) + 1, 2))):
        p -= T
    phi = [int(c) for c in cyclotomic_polynomial(T)]
    for a in range(2, p):
        w = pow(a, (p - 1) // T, p)
        if not sum(c * pow(w, i, p) for i, c in enumerate(phi)) % p:
            return p, w


def _integral(coeffs):
    """(num, den) with num / den == coeffs, den the lcm of the denominators;
    a tuple of Fractions in lowest terms gives (num, den) in lowest terms."""
    fs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(f.denominator for f in fs))
    return tuple(f.numerator * (den // f.denominator) for f in fs), den


class CycNum:
    """Element num/den of Q(zeta_T): num is the integer coefficient vector in
    the power basis 1, zeta, ..., zeta^(phi(T)-1), reduced mod Phi_T, and
    den > 0 with gcd(den, *num) == 1; zero is (0, ..., 0)/1."""

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field, coeffs):
        """coeffs: phi(T) rationals (int or Fraction) in the power basis."""
        self.field = field
        self.num, self.den = _integral(coeffs)
        self._hash = None

    @property
    def coeffs(self):
        """The coefficients in the power basis, as a tuple of Fraction."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- helpers -----------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.field is self.field or other.field.order == self.field.order:
                return other
            return None
        if isinstance(other, (int, Fraction)):
            return self.field.coerce(other)
        return None

    def __bool__(self):
        return any(self.num)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.order, self.num, self.den))
        return self._hash

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not any(o.num):
            return self
        if not any(self.num):
            return o
        return _combine(self.field, operator.add, self.num, self.den, o.num, o.den)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.field, tuple([-c for c in self.num]), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(self.field, operator.sub, self.num, self.den, o.num, o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        field = self.field
        return _lowest(field, field._mul(self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        if not any(self.num):
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        return self.field._inv_cache.lookup((self.num, self.den), self._inverse)

    def _inverse(self):
        num, den = self.field._inv(self.num)
        return _lowest(self.field, tuple([c * self.den for c in num]), den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- queries -----------------------------------------------------------
    def is_rational(self):
        return not any(self.num[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def __repr__(self):
        return f"CycNum({self})"

    def __str__(self):
        return self.field.to_str(self)


_new_object = object.__new__


def _make(field, num, den):
    """Trusted constructor: num, den already in lowest terms."""
    x = _new_object(CycNum)
    x.field = field
    x.num = num
    x.den = den
    x._hash = None
    return x


def _lowest(field, num, den):
    """num / den (den > 0) brought to lowest terms."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple([c // g for c in num])
            den //= g
    return _make(field, num, den)


def _combine(field, op, a, da, b, db):
    """a/da op b/db, for op in (operator.add, operator.sub)."""
    if da == db:
        num = tuple(map(op, a, b))
    else:
        num = tuple(map(op, [x * db for x in a], [y * da for y in b]))
        da *= db
    return _lowest(field, num, da)


class CyclotomicField:
    """Q(zeta_T).  Use CyclotomicField.get(T) for the cached instance."""

    _cache = {}

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.degree = d = euler_phi(order)
        self.modulus = cyclotomic_polynomial(order)
        # Phi_T is monic with integer coefficients: x^d = -sum_j m_j x^j
        self._mod_terms = tuple((j, int(m)) for j, m in enumerate(self.modulus[:d]) if m)
        self._inv_cache = LRUCache()
        self._split = None
        self._zeros = (0,) * (d - 1)
        self.zero = _make(self, (0,) * d, 1)
        self.one = _make(self, (1,) + self._zeros, 1)
        if d > 1:
            self.zeta = _make(self, (0, 1) + self._zeros[1:], 1)
        else:
            # T in {1, 2}: zeta is rational (1 or -1)
            self.zeta = _make(self, (1 if order == 1 else -1,), 1)

    @classmethod
    def get(cls, order):
        if order not in cls._cache:
            cls._cache[order] = cls(order)
        return cls._cache[order]

    # -- raw coefficient ops -------------------------------------------------
    def _reduce(self, vec):
        """Reduce a raw coefficient list (any length) mod Phi_T."""
        vec = list(vec)
        d = self.degree
        terms = self._mod_terms
        for i in range(len(vec) - 1, d - 1, -1):
            c = vec[i]
            if c:
                for j, m in terms:
                    vec[i - d + j] -= c * m
        return tuple(vec[:d]) + (0,) * (d - len(vec))

    def _mul(self, a, b):
        """Product of two integer vectors, reduced mod Phi_T."""
        if not any(b[1:]):
            a, b = b, a
        if not any(a[1:]):
            x = a[0]
            return tuple([x * y for y in b])
        out = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self._reduce(out)

    def _inv(self, a):
        """(num, den) of the inverse of the nonzero integer vector a, by the
        extended Euclidean algorithm in Q[x] against the modulus."""
        r0, r1 = list(self.modulus), _trim([Fraction(c) for c in a])
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            # s0, s1 = s1, s0 - q*s1
            new = [Fraction(0)] * max(len(s0), len(q) + len(s1) - 1)
            for i, x in enumerate(s0):
                new[i] += x
            for i, x in enumerate(q):
                for j, y in enumerate(s1):
                    new[i + j] -= x * y
            s0, s1 = s1, _trim(new)
        if len(r0) != 1:
            raise ModulusError(f"{a} has a non-unit gcd with the modulus {self.modulus}")
        c = r0[0]
        return _integral(self._reduce([x / c for x in s0]))

    # -- residues modulo a degree-1 prime -------------------------------------
    @property
    def split(self):
        """(p, (w^0, ..., w^(d-1))) for (p, w) = split_prime(T), built on first use."""
        if self._split is None:
            p, w = split_prime(self.order)
            self._split = p, tuple(pow(w, i, p) for i in range(self.degree))
        return self._split

    # -- field facade ---------------------------------------------------------
    def coerce(self, x):
        if isinstance(x, CycNum):
            if x.field.order == self.order:
                return x
            if self.order % x.field.order == 0:
                return self.embed(x)
            if x.field.order % self.order == 0:
                return self.restrict(x)
            raise TypeError(f"cannot coerce {x} into Q(zeta_{self.order})")
        if isinstance(x, int):
            return _make(self, (x,) + self._zeros, 1)
        if isinstance(x, Fraction):
            return _make(self, (x.numerator,) + self._zeros, x.denominator)
        raise TypeError(f"cannot coerce {x!r} into Q(zeta_{self.order})")

    def restrict(self, x: CycNum):
        """Inverse of embed for elements of Q(zeta_T) that lie in the
        subfield Q(zeta_S), S | T; TypeError when x is not in the image."""
        if x.is_rational():
            return self.coerce(x.as_fraction())
        big = x.field
        k = big.order // self.order
        # columns: images of the power basis of self in big
        cols = []
        pw = big.one
        step = big.zeta ** k
        for _ in range(self.degree):
            cols.append(pw.coeffs)
            pw = pw * step
        from .linalg import QQ, solve_linear

        A = [[cols[j][i] for j in range(self.degree)] for i in range(big.degree)]
        sol = solve_linear(QQ, A, list(x.coeffs))
        if sol is None:
            raise TypeError(f"{x} does not lie in Q(zeta_{self.order})")
        return CycNum(self, tuple(sol))

    def embed(self, x: CycNum):
        """Embed from Q(zeta_S) with S | T via zeta_S = zeta_T^(T/S)."""
        k = self.order // x.field.order
        out = self.zero
        pw = self.one
        step = self.zeta ** k
        for c in x.num:
            if c:
                out = out + pw * c
            pw = pw * step
        return _lowest(self, out.num, out.den * x.den)

    def zeta_power(self, k: int):
        return self.zeta ** (k % self.order)

    def to_str(self, x: CycNum) -> str:
        """Canonical rendering: polynomial in zeta, rational coefficients in
        lowest terms, ascending powers, e.g. '1/2 + 3/4*zeta - zeta^2'."""
        terms = []
        for i, c in enumerate(x.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append((c, ""))
            elif i == 1:
                terms.append((c, "zeta"))
            else:
                terms.append((c, f"zeta^{i}"))
        if not terms:
            return "0"
        parts = []
        for idx, (c, mon) in enumerate(terms):
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if mon and mag == 1:
                body = mon
            elif mon:
                body = f"{mag}*{mon}"
            else:
                body = str(mag)
            if idx == 0:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self):
        return f"CyclotomicField({self.order})"


def scalar_reduce(field: CyclotomicField, raw_coeffs) -> CycNum:
    """Canonical residue mod Phi_T of a raw polynomial-in-zeta over Q
    (coefficients ascending, any length)."""
    num, den = _integral(raw_coeffs)
    return _lowest(field, field._reduce(num), den)
