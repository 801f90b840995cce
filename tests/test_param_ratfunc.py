"""RatFunc over the parameter towers Q(zeta_T)(z)(t) and Q(zeta_T)(z)(eta)(t),
whose coefficients are RatFuncs of the lower layers on coefficient tuples,
against sympy's cancel with z and eta as symbols."""

import math

import sympy
from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from cycloper.scalars import CycNum
from cycloper.tower import ScalarTower

ZETA = {1: sympy.Integer(1), 2: sympy.Integer(-1), 4: sympy.I}
SYMBOLS = {name: sympy.Symbol(name) for name in ("t", "z", "eta")}
TOWERS = [("z",), ("z", "eta")]


def to_sympy(x, T):
    """A CycNum or a RatFunc of the tower as a sympy expression."""
    if isinstance(x, CycNum):
        return sum(sympy.Rational(c.numerator, c.denominator) * ZETA[T] ** u for u, c in enumerate(x.coeffs))
    v = SYMBOLS[x.field.var]
    poly = lambda cs: sum((to_sympy(c, T) * v ** i for i, c in enumerate(cs)), sympy.Integer(0))
    return poly(x.num) / poly(x.den)


def same(a, b):
    return sympy.cancel(a - b) == 0


def test_same_reads_an_unevaluated_zero_as_zero():
    """sympy.cancel(sympy.together(a - b)) is the unevaluated Add(-1/2, 1/2)
    here (sympy 1.14), which is not == 0; cancel(a - b) gives 0."""
    z = SYMBOLS["z"]
    assert same(z ** 2 / 2 + z + sympy.Rational(1, 2), (z + 1) ** 2 / 2)
    assert not same(z ** 2 / 2, (z + 1) ** 2 / 2)


def test_eval_at_a_shifted_parameter():
    """The draw f = t^2/2, q = z + 1 of test_local_data_matches_sympy."""
    tw = ScalarTower.get(1, ("z",))
    z = tw.param("z")
    got = to_sympy((tw.t ** 2 / 2).eval_at(z + 1), 1)
    assert same(got, (SYMBOLS["z"] + 1) ** 2 / 2)


def t_degrees(expr):
    n, d = sympy.fraction(sympy.cancel(sympy.together(expr)))
    t = SYMBOLS["t"]
    return sympy.degree(n, t), sympy.degree(d, t)


def terms(tw, t_degree):
    """Polynomials as lists of terms (integer coefficient, power of zeta,
    power of t, powers of z and eta)."""
    top = 2 if len(tw.params) == 1 else 1
    term = st.tuples(st.integers(-3, 3).filter(bool), st.integers(0, 3), st.integers(0, t_degree),
                     st.integers(0, top), st.integers(0, 1))
    return st.lists(term, min_size=1, max_size=top + 1)


def build(tw, T, spec):
    """The polynomial spec in the tower and in sympy."""
    ours, ref = tw.functions.zero, sympy.Integer(0)
    for c, u, i, a, e in spec:
        x, y = tw.zeta_power(u) * c, ZETA[T] ** u * c
        for name, k in zip(tw.params, (a, e)):
            x, y = x * tw.param(name) ** k, y * SYMBOLS[name] ** k
        ours, ref = ours + x * tw.t ** i, ref + y * SYMBOLS["t"] ** i
    return ours, ref


def point(tw, T, spec):
    """A scalar of the tower and its sympy expression."""
    p, ps = build(tw, T, spec)
    return p.constant_value(), ps


@st.composite
def fractions(draw, tw, T):
    """(f, f as sympy, pole): f with a planted common factor and, at the
    point pole of the scalars, a planted pole of order 0, 1 or 2.  Over two
    parameters the other denominator is constant in t: the Euclid over
    Q(zeta_T)(z)(eta) swells its coefficients so fast that two generic
    cubics take minutes."""
    small = len(tw.params) > 1
    (g, gs), (n, ns), (d, ds) = (build(tw, T, draw(terms(tw, k))) for k in ((1, 1, 0) if small else (2, 2, 2)))
    if not g or not d:
        g, gs, d, ds = tw.functions.one, sympy.Integer(1), tw.functions.one, sympy.Integer(1)
    p, ps = point(tw, T, draw(terms(tw, 0)))
    m = draw(st.integers(0, 2))
    lin, lins = tw.t - p, SYMBOLS["t"] - ps
    return g * n / (g * d * lin ** m), gs * ns / (gs * ds * lins ** m), (p, ps)


def check(ours, ref, T):
    """ours equals ref and is in lowest terms with a monic denominator."""
    assert same(to_sympy(ours, T), ref)
    assert ours.den[-1] == ours.field.coeff.one
    if ours:
        assert (len(ours.num) - 1, len(ours.den) - 1) == t_degrees(ref)


@pytest.mark.parametrize("params", TOWERS, ids=["z", "z_eta"])
@settings(max_examples=8, deadline=None)
@given(data=st.data(), T=st.sampled_from([1, 2, 4]))
def test_arithmetic_matches_sympy(params, data, T):
    tw = ScalarTower.get(T, params)
    (f, fs, _), (g, gs, _) = data.draw(fractions(tw, T)), data.draw(fractions(tw, T))
    check(f, fs, T)
    check(f + g, fs + gs, T)
    check(f - g, fs - gs, T)
    check(-f, -fs, T)
    check(f * g, fs * gs, T)
    if g:
        check(f / g, fs / gs, T)
    check(f.derivative(), sympy.diff(fs, SYMBOLS["t"]), T)


def test_eval_at_a_zero_of_a_cancelled_factor():
    tw = ScalarTower.get(1, ("z",))
    z = tw.param("z")
    assert (tw.t / (tw.t * (z + 1))).eval_at(z * 0) == 1 / (z + 1)


@pytest.mark.parametrize("params", TOWERS, ids=["z", "z_eta"])
@settings(max_examples=12, deadline=None)
@given(data=st.data(), T=st.sampled_from([1, 2, 4]))
def test_local_data_matches_sympy(params, data, T):
    tw = ScalarTower.get(T, params)
    t = SYMBOLS["t"]
    f, fs, (p, ps) = data.draw(fractions(tw, T))
    q, qs = point(tw, T, data.draw(terms(tw, 0)))
    n, d = sympy.fraction(sympy.cancel(sympy.together(fs)))
    # eval_at, at a pole or not; the reference is the reduced n / d, since
    # fs itself can read 0/0 where a planted common factor vanishes
    if same(d.subs(t, qs), 0):
        with pytest.raises(ZeroDivisionError):
            f.eval_at(q)
    else:
        assert same(to_sympy(f.eval_at(q), T), (n / d).subs(t, qs))
    if not f:
        return
    # valuation_at: multiplicities of t - p in the reduced numerator and denominator

    def mult(poly):
        m = 0
        while same(poly.subs(t, ps), 0):
            poly, m = sympy.cancel(poly / (t - ps)), m + 1
        return m

    k = mult(d) - mult(n)
    assert f.valuation_at(p) == -k
    # principal_part_at: c_m = (d/dt)^(k-m) ((t-p)^k f) / (k-m)! at t = p
    pp = f.principal_part_at(p)
    if k <= 0:
        assert pp == ()
        return
    h = sympy.cancel(sympy.together(fs * (t - ps) ** k))
    assert len(pp) == k
    for m, c in enumerate(pp, start=1):
        want = sympy.diff(h, t, k - m).subs(t, ps) / math.factorial(k - m)
        assert same(to_sympy(c, T), want)


@pytest.mark.parametrize("params", [(), ("z",)], ids=["Q4", "Q4-z"])
def test_laurent_expansion_matches_sympy_series(params):
    """laurent_at over Q(zeta_4)(t) and Q(zeta_4)(z)(t): poles of order 0-3
    at 0, 3/2 and zeta, each read to O(s^prec) for three precisions, with
    sympy's series as the oracle."""
    tw = ScalarTower.get(4, params)
    t, w, K = tw.t, tw.zeta, tw.scalars
    a = tw.param("z") if params else K.coerce(2)
    s, ts = sympy.Symbol("s"), SYMBOLS["t"]
    num = 2 + w * t - a * t ** 2
    for p in (K.zero, K.coerce(3) / 2, w):
        ps = to_sympy(p, 4)
        for k in range(4):
            f = num / ((t - p) ** k * (t + 1))
            shifted = sympy.cancel(to_sympy(f, 4).subs(ts, s + ps) * s ** k)
            series = sympy.expand(sympy.series(shifted, s, 0, k + 3).removeO())
            full = f.laurent_at(p, 3)
            for j in range(-k - 1, 3):
                assert same(to_sympy(full.coeff(j), 4), series.coeff(s, j + k)), (p, k, j)
            for prec in (0, 1, 3):
                lau = f.laurent_at(p, prec)
                assert lau.prec == prec and lau.val == (-k if k + prec > 0 else prec)
                assert [lau.coeff(j) for j in range(-k - 1, prec)] == [full.coeff(j) for j in range(-k - 1, prec)]
                with pytest.raises(ArithmeticError):
                    lau.coeff(prec)
