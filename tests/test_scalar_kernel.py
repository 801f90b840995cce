"""The integer kernel of Q(zeta_T) against sympy as an oracle, its bounded
caches, its typed internal errors, the coprime certificate of pgcd by the
residue map modulo a split prime, and the integer core of RatFunc over
Q(zeta_T) against both sympy and the coefficient-tuple ring FieldRing."""

import functools
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
import hypothesis.strategies as st

from cycloper import scalars
from cycloper.errors import ModulusError
from cycloper.ratfunc import FieldRing, FunctionField, PackedRing, RatFunc, _vresidues, pgcd
from cycloper.scalars import (
    CACHE_SIZE,
    CycNum,
    CyclotomicField,
    LRUCache,
    cyclotomic_polynomial,
    euler_phi,
    split_prime,
)

X = sympy.Symbol("x")


def tuple_mul(K, a, b):
    """The product of coefficient tuples over K, by the generic FieldRing."""
    return FieldRing(K).mul(a, b)


def packed_gcd(K, a, b):
    """pgcd of coefficient tuples over Q(zeta_T) on the integer core, read
    back as a monic coefficient tuple."""
    R = PackedRing(K)
    g = pgcd(R, R.pack(a)[0], R.pack(b)[0])
    return R.unpack(g, R.lead(g))
ORDERS = [1, 2, 3, 4, 5, 8, 12]
coeff = st.fractions(min_value=-60, max_value=60, max_denominator=12)


def vectors(T):
    return st.lists(coeff, min_size=euler_phi(T), max_size=euler_phi(T))


def to_poly(cs):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(cs)], X, domain="QQ")


def from_poly(F, p):
    cs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
    return tuple(cs + [Fraction(0)] * (F.degree - len(cs)))


def in_lowest_terms(x):
    return x.den > 0 and math.gcd(x.den, *x.num) == 1 and all(isinstance(c, int) for c in x.num)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), T=st.sampled_from(ORDERS))
def test_arithmetic_matches_sympy(data, T):
    F = CyclotomicField.get(T)
    phi = sympy.Poly(sympy.cyclotomic_poly(T, X), X, domain="QQ")
    a, b = data.draw(vectors(T)), data.draw(vectors(T))
    A, B = CycNum(F, a), CycNum(F, b)
    pa, pb = to_poly(a), to_poly(b)
    for got, want in [(A + B, pa + pb), (A - B, pa - pb), (A * B, pa * pb)]:
        assert in_lowest_terms(got)
        assert got.coeffs == from_poly(F, want.rem(phi))
    if A:
        inv = A.inverse()
        assert in_lowest_terms(inv)
        assert inv.coeffs == from_poly(F, pa.invert(phi))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), T=st.sampled_from(ORDERS))
def test_coeffs_round_trip_in_lowest_terms(data, T):
    F = CyclotomicField.get(T)
    cs = data.draw(vectors(T))
    x = CycNum(F, cs)
    assert in_lowest_terms(x)
    assert x.coeffs == tuple(cs)
    assert all(Fraction(n, x.den) == c for n, c in zip(x.num, cs))
    if not x:
        assert x.num == (0,) * F.degree and x.den == 1
    assert F.coerce(x.coeffs[0]) == CycNum(F, (cs[0],) + (0,) * (F.degree - 1))


def test_lru_cache_evicts_the_least_recently_used():
    cache = LRUCache()
    for k in range(CACHE_SIZE):
        cache.lookup(k, lambda: -1)
    assert cache.lookup(0, lambda: pytest.fail("0 was cached")) == -1
    cache.lookup(CACHE_SIZE, lambda: -1)
    assert len(cache) == CACHE_SIZE
    assert 0 in cache and 1 not in cache


def test_caches_stay_bounded_and_agree_with_uncached_answers():
    K = CyclotomicField(12)
    F = FunctionField("t", K)
    z = K.zeta
    for k in range(CACHE_SIZE + 200):
        root = z + k
        root.inverse()
        a = tuple_mul(K, (-root, K.one), (z * z - k, K.one))
        b = tuple_mul(K, (-root, K.one), (K.coerce(k + 1), K.one))
        F.cached_gcd(F.ring.pack(a)[0], F.ring.pack(b)[0])
    assert len(K._inv_cache) == CACHE_SIZE
    assert len(F._gcd_cache) == CACHE_SIZE
    for (num, den), inv in K._inv_cache.items():
        x = CycNum(K, [Fraction(c, den) for c in num])
        n, d = K._inv(num)
        assert inv == CycNum(K, [Fraction(c * den, d) for c in n])
        assert inv * x == K.one
    for (a, b), g in F._gcd_cache.items():
        assert g == pgcd(F.ring, a, b)
        assert len(g) == K.degree + 1  # monic of degree 1


def test_non_unit_gcd_with_the_modulus_is_typed():
    F = CyclotomicField(4)
    F.modulus = (Fraction(-1), Fraction(0), Fraction(1))  # x^2 - 1, reducible
    with pytest.raises(ModulusError):
        F._inv((-1, 1))  # x - 1 divides it


def test_inexact_cyclotomic_division_is_typed(monkeypatch):
    uncached = scalars.cyclotomic_polynomial.__wrapped__
    monkeypatch.setattr(scalars, "cyclotomic_polynomial", lambda d: (Fraction(2), Fraction(1)))
    with pytest.raises(ModulusError):
        uncached(4)  # x + 2 does not divide x^4 - 1


# -- the coprime certificate: residues modulo a degree-1 prime ---------------

@functools.lru_cache(maxsize=None)
def sympy_domain(T):
    """Q(zeta_T) as a sympy domain whose elements are polynomials in zeta."""
    if T <= 2:
        return sympy.QQ
    return sympy.QQ.algebraic_field(sympy.exp(2 * sympy.pi * sympy.I / T))


def sympy_codec(K):
    """(D, to_d, from_d): Q(zeta_T) as the sympy domain D and the maps
    between CycNum and D."""
    D = sympy_domain(K.order)
    Q = sympy.QQ

    def to_d(x):
        if D is Q:
            return Q(x.num[0], x.den)
        return D([Q(n, x.den) for n in reversed(x.num)])

    def from_d(c):
        cs = [c] if D is Q else c.to_list()
        fs = [Fraction(int(q.numerator), int(q.denominator)) for q in reversed(cs)]
        return CycNum(K, fs + [Fraction(0)] * (K.degree - len(fs)))

    return D, to_d, from_d


def sympy_gcd(K, a, b):
    """gcd of two polynomials over Q(zeta_T) computed by sympy, returned as
    a monic coefficient tuple of CycNums (ascending)."""
    D, to_d, from_d = sympy_codec(K)

    def poly(cs):
        return sympy.Poly([to_d(c) for c in reversed(cs)], sympy.Symbol("t"), domain=D)

    g = poly(a).gcd(poly(b))
    return tuple(from_d(c) for c in reversed(g.rep.to_list()))


def cyc_polys(K, min_degree, max_degree):
    """Polynomials over Q(zeta_T) with nonzero leading coefficient."""
    elems = vectors(K.order).map(lambda cs: CycNum(K, cs))
    return st.tuples(
        st.lists(elems, min_size=min_degree, max_size=max_degree), elems.filter(bool)
    ).map(lambda p: tuple(p[0]) + (p[1],))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), T=st.sampled_from(ORDERS), k=st.integers(0, 3))
def test_pgcd_matches_sympy_with_planted_factors(data, T, k):
    K = CyclotomicField.get(T)
    g = data.draw(cyc_polys(K, k, k))
    f1, f2 = data.draw(cyc_polys(K, 0, 3)), data.draw(cyc_polys(K, 0, 3))
    a, b = tuple_mul(K, g, f1), tuple_mul(K, g, f2)
    got = packed_gcd(K, a, b)
    assert got == sympy_gcd(K, a, b)
    assert len(got) >= k + 1


def residue(x):
    """x mod the prime of x.field.split, by the residue map of the integer
    core on its numerator; None when p divides its denominator."""
    K = x.field
    p = K.split[0]
    if not x.den % p:
        return None
    return _vresidues(K, x.num)[0] * pow(x.den, -1, p) % p


@settings(max_examples=80, deadline=None)
@given(data=st.data(), T=st.sampled_from(ORDERS))
def test_residue_map_is_a_ring_homomorphism(data, T):
    K = CyclotomicField.get(T)
    p = K.split[0]
    x, y = (CycNum(K, data.draw(vectors(T))) for _ in range(2))
    rx, ry = residue(x), residue(y)
    assert residue(x + y) == (rx + ry) % p
    assert residue(x - y) == (rx - ry) % p
    assert residue(x * y) == rx * ry % p
    assert (residue(K.one), residue(K.zero)) == (1, 0)
    if rx:
        inv = residue(x.inverse())
        assert inv is None or inv == pow(rx, -1, p)
    # a packed polynomial maps coefficient by coefficient
    v = x.num + y.num
    assert _vresidues(K, v) == [_vresidues(K, x.num)[0], _vresidues(K, y.num)[0]]


@pytest.mark.parametrize("T", ORDERS)
def test_split_prime_splits_phi(T):
    p, w = split_prime(T)
    assert sympy.isprime(p) and p < 2**30 and p % T == 1 % T
    assert not any(sympy.isprime(q) for q in range(p + T, 2**30, T))
    assert sum(int(c) * pow(w, i, p) for i, c in enumerate(cyclotomic_polynomial(T))) % p == 0
    K = CyclotomicField.get(T)
    assert K.split[0] == p and residue(K.zeta) == w


@pytest.mark.parametrize("T", ORDERS)
def test_pgcd_falls_back_where_the_certificate_cannot_decide(T):
    K = CyclotomicField.get(T)
    p = K.split[0]
    c = K.coerce
    t = (K.zero, K.one)
    cases = [
        # a coefficient whose denominator p divides: no residue
        (tuple_mul(K, (c(Fraction(-1, p)), K.one), (c(2), K.one)),
         tuple_mul(K, (c(Fraction(-1, p)), K.one), (c(3), K.one))),
        ((c(Fraction(1, p)), K.one), (K.one, K.one)),
        # leading coefficients p: coprime images t and t + 1, common factor p*t + 1
        (tuple_mul(K, (K.one, c(p)), t), tuple_mul(K, (K.one, c(p)), (K.one, K.one))),
        # coprime over Q(zeta_T), not modulo p
        (t, (c(p), K.one)),
    ]
    for a, b in cases:
        assert packed_gcd(K, a, b) == sympy_gcd(K, a, b)
    assert packed_gcd(K, cases[2][0], cases[2][1]) == (c(Fraction(1, p)), K.one)
    assert packed_gcd(K, t, (c(p), K.one)) == (K.one,)


# -- RatFunc over Q(zeta_T) on the integer core --------------------------------

def generic_reduced(K, num, den):
    """Canonical (num, den) of num/den by the generic FieldRing alone:
    Euclid, exact division, monic denominator."""
    R = FieldRing(K)
    g = R.gcd(num, den)
    num, den = R.divmod(num, g)[0], R.divmod(den, g)[0]
    inv = K.one / den[-1]
    return tuple(c * inv for c in num), tuple(c * inv for c in den)


def sympy_reduced(K, num, den):
    """Canonical (num, den) of num/den by sympy's cancel over Q(zeta_T)."""
    D, to_d, from_d = sympy_codec(K)
    t = sympy.Symbol("t")
    n, d = (sympy.Poly([to_d(c) for c in reversed(cs)] or [D.zero], t, domain=D) for cs in (num, den))
    n, d = n.cancel(d, include=True)
    lc = d.rep.to_list()[0]
    n, d = n.quo_ground(lc), d.quo_ground(lc)
    back = lambda p: tuple(from_d(c) for c in reversed(p.rep.to_list())) if not p.is_zero else ()
    return back(n), back(d)


def core_coeffs(K):
    """CycNums whose denominators may be the split prime p."""
    p = K.split[0]
    nums = st.lists(st.integers(-9, 9), min_size=K.degree, max_size=K.degree)
    return st.builds(lambda ns, q: CycNum(K, [Fraction(n, q) for n in ns]), nums, st.sampled_from([1, 2, 3, p]))


def core_polys(K, max_degree):
    """Polynomials with a nonzero, in general non-monic, leading coefficient."""
    cs = core_coeffs(K)
    return st.tuples(st.lists(cs, max_size=max_degree), cs.filter(bool)).map(lambda x: tuple(x[0]) + (x[1],))


@st.composite
def ratfunc_parts(draw, K):
    """(num, den) of a fraction with a planted common factor and, with its
    point, a planted pole of order 1 or 2."""
    g = draw(core_polys(K, 2))
    a, b = draw(core_polys(K, 2)), draw(core_polys(K, 1))
    pole = draw(core_coeffs(K))
    lin = tuple_mul(K, (-pole, K.one), (-pole, K.one)) if draw(st.booleans()) else (-pole, K.one)
    return tuple_mul(K, g, a), tuple_mul(K, tuple_mul(K, g, b), lin), pole


def series_inverse(K, a, n):
    """The inverse of the power series a (a[0] != 0) modulo x^n."""
    out = [K.one / a[0]]
    for k in range(1, n):
        out.append(-out[0] * sum((a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1)), K.zero))
    return tuple(out)


def check_canonical(K, f, num, den):
    """f is num/den in the canonical form of both oracles."""
    assert (f.num, f.den) == generic_reduced(K, num, den)
    assert (f.num, f.den) == sympy_reduced(K, num, den)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), T=st.sampled_from(ORDERS))
def test_ratfunc_arithmetic_matches_sympy_and_the_generic_helpers(data, T):
    K = CyclotomicField.get(T)
    F = FunctionField.get("t", K)
    R = FieldRing(K)
    (n1, d1, _), (n2, d2, _) = data.draw(ratfunc_parts(K)), data.draw(ratfunc_parts(K))
    f, g = RatFunc(F, n1, d1), RatFunc(F, n2, d2)
    check_canonical(K, f, n1, d1)
    check_canonical(K, f + g, R.comb(R.mul(n1, d2), 1, R.mul(n2, d1), 1), R.mul(d1, d2))
    check_canonical(K, f - g, R.comb(R.mul(n1, d2), 1, R.mul(n2, d1), -1), R.mul(d1, d2))
    check_canonical(K, f * g, R.mul(n1, n2), R.mul(d1, d2))
    check_canonical(K, f / g, R.mul(n1, d2), R.mul(d1, n2))
    check_canonical(K, f.derivative(), R.comb(R.mul(R.deriv(n1), d1), 1, R.mul(n1, R.deriv(d1)), -1),
                    R.mul(d1, d1))
    assert f * g / g == f and f + g - g == f
    assert f ** 3 == f * f * f and f ** -2 == 1 / (f * f)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), T=st.sampled_from(ORDERS))
def test_ratfunc_local_data_matches_sympy_and_the_generic_helpers(data, T):
    K = CyclotomicField.get(T)
    F = FunctionField.get("t", K)
    R = FieldRing(K)
    D, to_d, from_d = sympy_codec(K)
    t = sympy.Symbol("t")
    num, den, pole = data.draw(ratfunc_parts(K))
    f = RatFunc(F, num, den)
    sym = lambda cs: sympy.Poly([to_d(c) for c in reversed(cs)] or [D.zero], t, domain=D)
    # eval_at, away from the poles
    x = data.draw(core_coeffs(K))
    dx = R.eval(f.den, x, 1)
    if dx:
        value = f.eval_at(x)
        assert value == R.eval(f.num, x, 1) / dx
        horner = lambda cs: functools.reduce(lambda acc, c: acc * to_d(x) + to_d(c), reversed(cs), D.zero)
        assert value == from_d(horner(f.num) / horner(f.den))
    # principal part at the planted pole: the generic FieldRing ...
    n, d = R.shift(f.num, pole)[0], R.shift(f.den, pole)[0]
    k = next(i for i, c in enumerate(d) if c)
    pp = f.principal_part_at(pole)
    if k == 0:
        assert pp == ()
        return
    series = R.mul(n, series_inverse(K, d[k:], k))
    series = tuple(series[:k]) + (K.zero,) * (k - len(series))
    assert pp == tuple(series[k - m] for m in range(1, k + 1))
    # ... and sympy: n(x + p) / (x^k e(x)) with e(0) != 0
    n, d = sym(f.num).shift(to_d(pole)), sym(f.den).shift(to_d(pole))
    e = sympy.Poly.from_list(d.rep.to_list()[:-k], t, domain=D)
    xk = sympy.Poly(t ** k, t, domain=D)
    s = (n * e.invert(xk)).rem(xk).rep.to_list()[::-1]
    s = [from_d(c) for c in s] + [K.zero] * (k - len(s))
    assert pp == tuple(s[k - m] for m in range(1, k + 1))
    assert f.valuation_at(pole) == -k or not f.num
