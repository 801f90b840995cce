import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from sympy.integrals.rationaltools import ratint_ratpart
from hypothesis import given, settings
import hypothesis.strategies as st

import cycloper
from cycloper import ratfunc
from cycloper.errors import IrreducibleDenominator, MonodromyObstruction, PartialFractionError
from cycloper.ratfunc import (
    INFINITY,
    RatFunc,
    hermite_reduce,
    partial_fractions,
    poles_of,
    rational_antiderivative,
)
from cycloper.tower import ScalarTower

TW = ScalarTower.get(4, ("z",))
F = TW.functions
t = TW.t
z = F.coerce(TW.param("z"))


def small_ratfunc(rng, tower=TW, pole_pool=None):
    """Random rational function with poles from the configured pool."""
    F = tower.functions
    t = F.gen
    num = F.zero
    for i in range(rng.randint(0, 3)):
        num = num + F.coerce(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) * t ** i
    den = F.one
    pool = pole_pool or [F.zero, F.one, -F.one, F.coerce(tower.param("z")),
                         -F.coerce(tower.param("z")), F.coerce(tower.zeta) * F.coerce(tower.param("z"))]
    for _ in range(rng.randint(0, 3)):
        p = pool[rng.randrange(len(pool))]
        den = den * (t - p)
    return num / den


def test_canonical_form_property():
    rng = random.Random(11)
    for _ in range(60):
        f = small_ratfunc(rng)
        g = small_ratfunc(rng)
        if not g:
            continue
        assert (f * g) / g == f
        assert f - f == F.zero
        assert hash((f * g) / g) == hash(f)


def test_partial_fractions_examples():
    # 1/(t^2-1) = (1/2)/(t-1) - (1/2)/(t+1)
    pf = partial_fractions(1 / (t * t - 1))
    got = {str(p): [str(c) for c in cs] for p, cs in pf.pole_parts}
    assert got == {"1": ["1/2"], "(-1)": ["(-1/2)"]} or got == {"1": ["1/2"], "-1": ["-1/2"]}
    # (2t)/(t^2 - z^2) = 1/(t-z) + 1/(t+z)
    pf = partial_fractions((2 * t) / (t * t - z * z))
    parts = {p: cs for p, cs in pf.pole_parts}
    assert parts[z.constant_value()][0] == TW.one
    assert parts[(-z).constant_value()][0] == TW.one
    # S t^{S-1}/(t^S - z^S), S = 2, z instantiated to 1, T = 4
    tw4 = ScalarTower.get(4)
    t4 = tw4.t
    pf = partial_fractions((2 * t4) / (t4 ** 2 - 1))
    parts = {p: cs for p, cs in pf.pole_parts}
    assert parts[tw4.one][0] == tw4.one and parts[-tw4.one][0] == tw4.one


def test_partial_fractions_roundtrip_random():
    rng = random.Random(5)
    for _ in range(100):
        f = small_ratfunc(rng)
        if not f:
            continue
        pf = partial_fractions(f)
        assert pf.reassemble() == f


def test_irreducible_denominator():
    tw1 = ScalarTower.get(1)
    t1 = tw1.t
    with pytest.raises(IrreducibleDenominator):
        partial_fractions(1 / (t1 ** 2 + 1))   # t^2+1 has no root over Q(zeta_1)


def test_residues():
    assert (1 / t).residue_at(0) == TW.one
    assert (1 / (t - 1) ** 2).residue_at(1) == TW.zero
    assert t.residue_at(0) == TW.zero
    # paper value: res_inf(-eta/t - S t^{S-1}/(t^S - z^S)) = eta + S
    for eta, S in [(0, 1), (1, 2), (2, 2), (3, 1)]:
        f = -F.coerce(eta) / t - (S * t ** (S - 1)) / (t ** S - F.coerce(z ** S))
        assert f.residue_at(INFINITY) == eta + S


def test_residue_against_sympy():
    ts = sympy.Symbol("t")
    rng = random.Random(9)
    tw1 = ScalarTower.get(1)
    t1 = tw1.t
    pool = [tw1.scalars.coerce(v) for v in (0, 1, -1, 2)]
    for _ in range(20):
        f = small_ratfunc(rng, tw1, pole_pool=[tw1.functions.coerce(p) for p in pool])
        if not f:
            continue
        expr = sympy.Rational(0)
        for i, c in enumerate(f.num):
            expr += sympy.Rational(str(c.as_fraction())) * ts ** i
        den = sympy.Rational(0)
        for i, c in enumerate(f.den):
            den += sympy.Rational(str(c.as_fraction())) * ts ** i
        expr = expr / den
        for p in (0, 1, -1, 2):
            mine = f.residue_at(tw1.scalars.coerce(p))
            theirs = sympy.residue(expr, ts, p)
            assert str(mine.as_fraction()) == str(sympy.nsimplify(theirs)), (f, p)


def test_antiderivative():
    out = rational_antiderivative(1 / t ** 2)
    assert out == -1 / t
    ob = rational_antiderivative(1 / t)
    assert isinstance(ob, MonodromyObstruction)
    assert len(ob.residues) == 1
    p, r = ob.residues[0]
    assert not p and r == TW.one
    # paper: int t^eta (t^S - z^S) dt
    for eta, S in [(0, 1), (1, 2), (2, 2)]:
        Q = t ** eta * (t ** S - F.coerce(z ** S))
        R = rational_antiderivative(Q)
        expect = t ** (eta + S + 1) / (eta + S + 1) - F.coerce(z ** S) * t ** (eta + 1) / (eta + 1)
        assert R == expect
        assert R.derivative() == Q


def test_antiderivative_roundtrip_random():
    rng = random.Random(17)
    count = 0
    for _ in range(80):
        f = small_ratfunc(rng)
        out = rational_antiderivative(f)
        if isinstance(out, MonodromyObstruction):
            assert all(r for _, r in out.residues)
            continue
        assert out.derivative() == f
        count += 1
    assert count > 10


def test_derivatives_have_no_residues():
    rng = random.Random(23)
    for _ in range(40):
        f = small_ratfunc(rng)
        df = f.derivative()
        for p, _ in poles_of(df):
            assert df.residue_at(p) == TW.zero
        assert df.residue_at(INFINITY) == TW.zero


def test_substitute_power():
    assert t.subs_power(3) == t ** 3
    assert (1 / (t - z)).subs_power(2) == 1 / (t ** 2 - z)
    # chain rule against the cover jacobian: d/du f(u^q) = q u^{q-1} f'(u^q)
    f = 1 / (t - 1) + t ** 2
    g = f.subs_power(3)
    assert g.derivative() == 3 * t ** 2 * f.derivative().subs_power(3)
    with pytest.raises(ValueError):
        t.subs_power(0)


def test_descend_power_roundtrip():
    f = (t ** 2 + 3) / (t ** 4 - F.coerce(z))
    up = f.subs_power(2)
    assert up.descend_power(2) == f
    with pytest.raises(ValueError):
        (t ** 3).descend_power(2)


@pytest.mark.parametrize("params", [(), ("z",)])
def test_unreduced_construction_is_canonical(params):
    """reduce=False skips only the gcd: the denominator still loses its
    content and its leading coefficient."""
    tw = ScalarTower.get(4, params)
    F, K, t = tw.functions, tw.scalars, tw.t
    half = RatFunc(F, (K.one,), (K.coerce(2),), reduce=False)
    assert half == F.coerce(Fraction(1, 2)) and hash(half) == hash(F.coerce(Fraction(1, 2)))
    f = RatFunc(F, (K.one, K.coerce(3)), (K.coerce(2), K.zero, 4 * tw.zeta), reduce=False)
    assert f == (1 + 3 * t) / (2 + 4 * tw.zeta * t ** 2)


def test_substitutions_match_arithmetic():
    """subs_scale, subs_power and descend_power skip the gcd; each equals
    the fraction rebuilt by RatFunc arithmetic."""
    rng = random.Random(31)
    c = F.coerce(TW.zeta) * z
    for _ in range(30):
        f = small_ratfunc(rng)
        at = lambda cs, x: sum((F.coerce(a) * x ** i for i, a in enumerate(cs)), F.zero)
        assert f.subs_scale(c) == at(f.num, c * t) / at(f.den, c * t)
        up = f.subs_power(3)
        assert up == at(f.num, t ** 3) / at(f.den, t ** 3)
        assert up.descend_power(3) == f


@pytest.mark.parametrize("T, params", [(1, ()), (2, ()), (3, ()), (4, ()), (12, ()), (4, ("z",))])
def test_subs_scale_matches_the_coefficientwise_definition(T, params):
    """f(c t) for c in {omega^-1, 3/2, -2/7 zeta}: the ring-level scaling
    equals the fraction of the scaled coefficient lists, reduced from
    scratch, down to the canonical triple."""
    tw = ScalarTower.get(T, params)
    F, K = tw.functions, tw.scalars
    zeta = K.coerce(tw.zeta)
    rng = random.Random(T)
    pool = [K.zero, K.one, -K.one, zeta, K.coerce(Fraction(3, 2)) * zeta]
    if params:
        pool += [K.coerce(tw.param("z")), zeta * K.coerce(tw.param("z"))]
    for c in (K.one / zeta, K.coerce(Fraction(3, 2)), K.coerce(Fraction(-2, 7)) * zeta):
        for _ in range(12):
            f = small_ratfunc(rng, tw, [F.coerce(p) for p in pool]) * F.coerce(rng.choice(pool) + 2)
            scaled = lambda cs: [a * c ** i for i, a in enumerate(cs)]
            want = RatFunc(F, scaled(f.num), scaled(f.den))
            got = f.subs_scale(c)
            assert (got._n, got._c, got._d) == (want._n, want._c, want._d)
            assert got == want and hash(got) == hash(want)


def test_partial_fractions_against_sympy():
    ts = sympy.Symbol("t")
    tw1 = ScalarTower.get(1)
    t1 = tw1.t
    f = (3 * t1 + 2) / (t1 ** 2 + 2 * t1 + 1)
    pf = partial_fractions(f)
    # sympy: 3/(t+1) - 1/(t+1)^2
    parts = {p: cs for p, cs in pf.pole_parts}
    key = next(iter(parts))
    assert key == -tw1.one
    assert [str(c.as_fraction()) for c in parts[key]] == ["3", "-1"]


from hypothesis import given, settings
import hypothesis.strategies as st

_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_poly = st.lists(_coeff, min_size=0, max_size=4)


def _mk(num, den):
    tw1 = ScalarTower.get(1)
    F = tw1.functions
    n = F.from_coeffs(num) if any(num) else F.zero
    d = F.from_coeffs(den) if any(den) else F.one
    if not d:
        d = F.one
    return n / d


@settings(max_examples=50, deadline=None)
@given(n1=_poly, d1=_poly, n2=_poly, d2=_poly)
def test_function_field_laws(n1, d1, n2, d2):
    f = _mk(n1, d1)
    g = _mk(n2, d2)
    assert f + g == g + f
    assert (f + g) - g == f
    if g:
        assert (f * g) / g == f
        assert g * g.inverse() == ScalarTower.get(1).functions.one
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def _non_unit_xgcd(a, b):
    """A stand-in for _xgcd that reports the non-unit gcd t."""
    return a.field.gen, a.field.one, a.field.one


def test_hermite_reduction_failures_are_typed(monkeypatch):
    tw = ScalarTower.get(1)
    t1 = tw.t
    # a numerator of any degree: the polynomial part comes out of the loop
    assert rational_antiderivative((t1 ** 3 + 1) / t1 ** 2) == t1 ** 2 / 2 - 1 / t1
    ob = rational_antiderivative((t1 + 1) / t1)
    assert isinstance(ob, MonodromyObstruction)
    assert ob.residues == [(tw.zero, tw.one)] and ob.unresolved == []
    monkeypatch.setattr(ratfunc, "_xgcd", _non_unit_xgcd)
    for f in (1 / (t1 ** 2 * (t1 - 1)), 1 / t1 ** 2, (t1 ** 3 + 1) / t1 ** 2):
        with pytest.raises(PartialFractionError, match="non-unit gcd"):
            rational_antiderivative(f)
    assert PartialFractionError.exit_code == 15


def _polynomial_part(f):
    """The polynomial part of f, and the rest f - part."""
    F = f.field
    q, _ = ratfunc._pdivmod(F.from_coeffs(f.num), F.from_coeffs(f.den))
    return q, f - q


def test_antiderivative_is_normalized():
    """The antiderivative is the one whose polynomial part has constant
    term 0 and whose rest is proper, whatever the shape of the integrand:
    derivatives of pinned random fractions, with and without simple poles
    and polynomial parts added, over Q(zeta_T) for T in 1, 2, 3, 4, 6."""
    t1 = ScalarTower.get(1).t
    g = 1 / (t1 ** 2 - 1)
    assert rational_antiderivative(g.derivative()) == g
    rng = random.Random(29)
    for T in (1, 2, 3, 4, 6):
        tw = ScalarTower.get(T)
        F, t = tw.functions, tw.t
        pool = [F.zero, F.one, -F.one, F.coerce(tw.zeta), F.coerce(2)]
        count = 0
        for _ in range(30):
            g = small_ratfunc(rng, tw, pool) * small_ratfunc(rng, tw, pool)
            poly = sum((F.coerce(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) * t ** i
                        for i in range(rng.randint(0, 3))), F.zero)
            f = g.derivative() + poly + (F.coerce(rng.choice((0, 0, 0, 1))) / (t - pool[rng.randrange(5)]))
            out = rational_antiderivative(f)
            if isinstance(out, MonodromyObstruction):
                continue
            count += 1
            assert out.derivative() == f
            part, rest = _polynomial_part(out)
            assert not part or not part.eval_at(tw.zero)
            assert not rest or rest.valuation_at(INFINITY) >= 1
        assert count >= 15


# -- Hermite reduction on denominators that do not split ----------------------

HERMITE_TOWERS = [(1, ()), (2, ()), (4, ()), (12, ()), (4, ("z",))]


def irreducible_factors(tw):
    """Factors with no root in the field: t^2 + 2 (i*sqrt(2) lies in no
    Q(zeta_T) for T | 12), and t^3 - 2 over Q(zeta_T) or t^3 - z over
    Q(zeta_4)(z)."""
    t = tw.t
    c = tw.functions.coerce(tw.param("z")) if tw.params else 2
    return [t ** 2 + 2, t ** 3 - c]


def linear_pool(tw):
    """Poles among the candidate points of tw.functions."""
    F = tw.functions
    pool = [F.zero, F.one, -F.one, F.coerce(tw.zeta)]
    if tw.params:
        z = F.coerce(tw.param("z"))
        pool += [z, -F.coerce(tw.zeta) * z]
    return pool


@st.composite
def hermite_cases(draw, tw):
    """(g, split, P, p): g a fraction whose denominator mixes linear
    factors from the candidate pool with squared irreducible factors (split
    when there are none), P an irreducible factor and p a point of the
    pool."""
    F = tw.functions
    t = F.gen
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    coeff = st.builds(lambda a, b: F.coerce(a) + F.coerce(b) * F.coerce(tw.zeta), small, small)
    if tw.params:
        z = F.coerce(tw.param("z"))
        coeff = st.builds(lambda a, b: a + b * z, coeff, coeff)
    k = draw(st.integers(0, 2))
    num = sum((draw(coeff) * t ** i for i in range(k)), t ** k)
    pool, irreducible = linear_pool(tw), irreducible_factors(tw)
    # the t-level Euclid over Q(zeta_4)(z) swells: keep that tower small
    size = 1 if tw.params else 2
    den = F.one
    for q in draw(st.lists(st.sampled_from(pool), max_size=size)):
        den = den * (t - q) ** draw(st.integers(1, size))
    squared = draw(st.lists(st.sampled_from(irreducible), max_size=size, unique_by=str))
    for P in squared:
        den = den * P ** 2
    return num / den, not squared, draw(st.sampled_from(irreducible)), draw(st.sampled_from(pool))


@pytest.mark.parametrize("T, params", HERMITE_TOWERS)
@settings(max_examples=12, deadline=None)
@given(data=st.data(), b=st.integers(-2, 2))
def test_hermite_on_denominators_that_do_not_split(T, params, data, b):
    tw = ScalarTower.get(T, params)
    g, split, P, p = data.draw(hermite_cases(tw))
    F = tw.functions
    t = F.gen
    # a derivative integrates back to itself, up to a constant
    back = rational_antiderivative(g.derivative())
    assert not isinstance(back, MonodromyObstruction)
    assert (back - g).is_constant()
    # a simple factor that does not split stays unresolved, beside the
    # residue of a simple linear pole
    f = g.derivative() + (t + 1) / P + F.coerce(b) / (t - p)
    ob = rational_antiderivative(f)
    assert isinstance(ob, MonodromyObstruction)
    assert ob.unresolved == [str(P)]
    assert ob.residues == ([(p.constant_value(), tw.scalar(b))] if b else [])
    # partial fractions and the residue theorem, where the denominator splits
    for h in (g, g.derivative() + F.coerce(b) / (t - p)):
        if not split:
            with pytest.raises(IrreducibleDenominator):
                partial_fractions(h)
            continue
        assert partial_fractions(h).reassemble() == h
        finite = sum((h.residue_at(q) for q, _ in poles_of(h)), tw.zero)
        assert h.residue_at(INFINITY) == -finite


_HERMITE_CHECKS_UNDER_O = """
import cycloper.ratfunc as ratfunc
from cycloper.errors import PartialFractionError
from cycloper.tower import ScalarTower

tw = ScalarTower.get(1)
t = tw.t
ratfunc._xgcd = lambda a, b: (a.field.gen, a.field.one, a.field.one)
for f in (1 / (t ** 2 * (t - 1)), 1 / t ** 2, (t ** 3 + 1) / t ** 2):
    try:
        ratfunc.rational_antiderivative(f)
        raise SystemExit("no error")
    except PartialFractionError:
        pass
"""


def test_hermite_reduction_checks_survive_python_O():
    src = os.path.dirname(os.path.dirname(cycloper.__file__))
    run = subprocess.run(
        [sys.executable, "-O", "-c", _HERMITE_CHECKS_UNDER_O],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr


_LINEAR_POLE_IN_A_FRESH_PROCESS = """
from cycloper.ratfunc import poles_of
from cycloper.tower import ScalarTower

tw = ScalarTower.get(1, ("z",))
z = tw.param("z")
assert poles_of(1 / (tw.t - 2 * z)) == [(2 * z, 1)]
"""


def test_linear_pole_needs_no_registered_point():
    """A linear factor's root is read off as -b/a, so a fresh process
    (2z registered nowhere) finds the pole of 1/(t - 2z) over Q(z)(t)."""
    src = os.path.dirname(os.path.dirname(cycloper.__file__))
    run = subprocess.run(
        [sys.executable, "-c", _LINEAR_POLE_IN_A_FRESH_PROCESS],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr


_HISTORY_INDEPENDENCE = """
from fractions import Fraction
from cycloper.context import OperContext
from cycloper.errors import IrreducibleDenominator
from cycloper.miura import build_miura
from cycloper.ratfunc import poles_of
from cycloper.tower import ScalarTower
from cycloper.weyl import Coweight

def split(f, points=()):
    try:
        return poles_of(f, points)
    except IrreducibleDenominator as e:
        return "IrreducibleDenominator: " + str(e)

one = Coweight((Fraction(1),))
q = ScalarTower.get(1)
f = 1 / ((q.t - 3) * (q.t - 5))
tw = ScalarTower.get(3, ("z",))
z = tw.param("z")
g = 1 / (tw.t ** 3 - 8 * z ** 3)
before = [split(f), split(g)]
assert before[0] == [(3, 1), (5, 1)], before
assert before[1].startswith("IrreducibleDenominator"), before
build_miura(OperContext("A1", q), one, sites=[(5, one)])
m = build_miura(OperContext("A1", tw), one, sites=[(2 * z, one)])
after = [split(f), split(g)]
assert after == before, (before, after)
w = tw.zeta
assert m.points == (0, 2 * z, 2 * z * w, 2 * z * w ** 2), m.points
assert split(g, m.points) == [(2 * z, 1), (2 * z * w, 1), (2 * z * w ** 2, 1)], split(g, m.points)
"""


def test_poles_do_not_depend_on_earlier_miura_opers():
    """The candidate roots of a denominator come from the arguments and the
    field alone: building Miura opers with sites at 5 and 2z changes neither
    the order of the poles of 1/((t - 3)(t - 5)) nor whether t^3 - 8z^3
    splits; the points of the oper, passed in, split it.  Run in a fresh
    process, so that no earlier test has built anything."""
    src = os.path.dirname(os.path.dirname(cycloper.__file__))
    run = subprocess.run(
        [sys.executable, "-c", _HISTORY_INDEPENDENCE],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr


_HUGE_CONSTANT_TERM = """
from cycloper.ratfunc import rational_antiderivative
from cycloper.tower import ScalarTower

t = ScalarTower.get(1).t
ob = rational_antiderivative(1 / ((t - 3) * (t ** 2 + 2 ** 61 + 1)))
assert ob.unresolved == ["t^2 + 2305843009213693953"], ob.unresolved
assert [str(p) for p, _ in ob.residues] == ["3"], ob.residues
"""


def test_huge_constant_term_is_left_unsplit_at_once():
    """t^2 + 2^61 + 1 has no rational root; the root candidates come from
    trial divisors up to a fixed bound, not up to sqrt(3 (2^61 + 1)), so
    the factor t - 3 splits off and the rest is reported at once.  A hard
    subprocess time limit turns a regression into a failure, not a hang."""
    src = os.path.dirname(os.path.dirname(cycloper.__file__))
    run = subprocess.run(
        [sys.executable, "-c", _HUGE_CONSTANT_TERM],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=30,
    )
    assert run.returncode == 0, run.stdout + run.stderr


# -- partial fractions against sympy's apart, the pole set passed in ----------

W, TS, ZS = sympy.symbols("w t z")


def as_sympy(x):
    """A scalar of Q(zeta_T) or Q(zeta_T)(z) as a sympy expression, with w
    standing for zeta_T."""
    if isinstance(x, RatFunc):
        poly = lambda cs: sum((as_sympy(c) * ZS ** i for i, c in enumerate(cs)), sympy.Integer(0))
        return poly(x.num) / poly(x.den)
    return sum(sympy.Rational(c.numerator, c.denominator) * W ** u for u, c in enumerate(x.coeffs))


def same_at_zeta(a, b, T):
    """a == b once w is read as zeta_T: Phi_T(w) divides the numerator of a - b."""
    n, _ = sympy.fraction(sympy.cancel(sympy.together(a - b)))
    return sympy.rem(sympy.expand(n), sympy.cyclotomic_poly(T, W), W) == 0


def apart_terms(expr):
    """sympy.apart(expr, t) as (polynomial part, [(pole, k, c)]) for the
    terms c/(t - pole)^k."""
    poly, parts = sympy.Integer(0), []
    for term in sympy.Add.make_args(sympy.apart(expr, TS)):
        num, den = sympy.fraction(term)
        if not den.has(TS):
            poly += term
            continue
        P = sympy.Poly(den, TS)
        k, lc = P.degree(), P.LC()
        pole = -P.nth(k - 1) / (k * lc)
        assert not num.has(TS) and sympy.cancel(den - lc * (TS - pole) ** k) == 0, term
        parts.append((pole, k, num / lc))
    return poly, parts


@pytest.mark.parametrize("T, params", [(1, ()), (2, ()), (4, ()), (12, ()), (4, ("z",))])
def test_partial_fractions_match_sympy_apart(T, params):
    """Denominators with poles off the default candidates (2, 3 zeta,
    1/2 - zeta, 2z, z + zeta), split with that pole set passed in; every
    coefficient agrees with sympy's apart, zeta_T read as a symbol w and
    compared modulo the cyclotomic polynomial."""
    tw = ScalarTower.get(T, params)
    F = tw.functions
    t = F.gen
    w = tw.zeta
    pool = [(tw.scalar(2), sympy.Integer(2)), (3 * w, 3 * W), (tw.rational(1, 2) - w, sympy.Rational(1, 2) - W)]
    if params:
        z = tw.param("z")
        pool += [(2 * z, 2 * ZS), (z + w, ZS + W)]
    rng = random.Random(f"apart:{T}:{params}")
    for _ in range(3):
        num, num_s = F.zero, sympy.Integer(0)
        for i in range(rng.randint(0, 3)):
            a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-2, 2)
            num, num_s = num + F.coerce(a + b * w) * t ** i, num_s + (a + b * W) * TS ** i
        num, num_s = num + t ** 4, num_s + TS ** 4
        den, den_s = F.one, sympy.Integer(1)
        for p, p_s in rng.sample(pool, 2 if params else 3):
            m = rng.randint(1, 2)
            den, den_s = den * (t - F.coerce(p)) ** m, den_s * (TS - p_s) ** m
        pf = partial_fractions(num / den, [p for p, _ in pool])
        poly_s, parts_s = apart_terms(num_s / den_s)
        ours = sum((as_sympy(c) * TS ** i for i, c in enumerate(pf.polynomial_part)), sympy.Integer(0))
        assert same_at_zeta(ours, poly_s, T)
        nonzero = 0
        for pole, k, c in parts_s:
            match = [cs for q, cs in pf.pole_parts if same_at_zeta(as_sympy(q), pole, T)]
            mine = match[0][k - 1] if match and k <= len(match[0]) else tw.zero
            assert same_at_zeta(as_sympy(mine), c, T), (pole, k)
            nonzero += bool(mine)
        assert nonzero == sum(1 for _, cs in pf.pole_parts for c in cs if c)


def taylor_principal_part(f, p, k):
    """Oracle without Taylor shifts: with g = (t - p)^k f regular at p, the
    coefficient of (t - p)^-m is g^(k-m)(p)/(k-m)!."""
    F = f.field
    g = f * (F.gen - F.coerce(p)) ** k
    out, fact = [], 1
    for i in range(k):
        out.append(g.eval_at(p) / fact)
        g = g.derivative()
        fact *= i + 1
    return tuple(reversed(out))


@pytest.mark.parametrize(
    "T, params", [(1, ()), (4, ()), (12, ()), (4, ("z",))], ids=["T1", "T4", "T12", "T4-z"]
)
def test_truncated_taylor_shift_principal_parts(T, params):
    """principal_part_at shifts only the terms it reads.  For poles of order
    1-4 at rational points and at zeta- or parameter-dependent points, and
    at regular points, it agrees with the derivative oracle, and every
    truncated shift is a prefix of the full one with the same scale."""
    tw = ScalarTower.get(T, params)
    F, K = tw.functions, tw.scalars
    t = F.gen
    R = F.ring
    rng = random.Random(f"truncated-shift:{T}:{params}")
    gen = tw.param("z") if params else tw.zeta * 5
    points = [K.coerce(Fraction(3, 2)), K.coerce(-2), gen * 2, gen + 1]
    for i, p in enumerate(points):
        q = points[i - 1]
        for k in range(1, 5):
            num = F.zero
            for j in range(rng.randint(1, 4)):
                num = num + F.coerce(Fraction(rng.randint(-5, 5), rng.randint(1, 3))) * t ** j
            f = (num or F.one) / ((t - F.coerce(p)) ** k * (t - F.coerce(q)))
            for x in (p, q, K.coerce(5)):
                order = max(0, -f.valuation_at(x))
                assert f.principal_part_at(x) == taylor_principal_part(f, x, order)
            for v in (f._n, f._d):
                full, scale = R.shift(v, p)
                for keep in range(1, len(v) // R.width + 2):
                    assert R.shift(v, p, keep) == (full[:keep * R.width], scale)


def test_laurent_coefficients_past_the_precision_raise():
    tw = ScalarTower.get(4)
    t = tw.t
    f = (t + 2) / (t - 1) ** 2
    lau = f.laurent_at(1, 1)
    assert (lau.val, lau.prec) == (-2, 1)
    assert [lau.coeff(j) for j in (-3, -2, -1, 0)] == [0, 3, 1, 0]
    for j in (1, 2, 7):
        with pytest.raises(ArithmeticError):
            lau.coeff(j)


def test_an_unknown_term_times_a_pole_stays_unknown():
    """O(s^0) times a simple pole is O(s^-1): its residue is unknown, and
    asking for it raises instead of reading 0."""
    tw = ScalarTower.get(4)
    t = tw.t
    regular = ((t + 3) / (t - 5)).laurent_at(2, 0)
    pole = (1 / (t - 2)).laurent_at(2, 4)
    assert not regular.cs and (regular.val, regular.prec) == (0, 0)
    assert regular  # an O-term is not the exact zero
    for prod in (regular * pole, pole * regular):
        assert prod.prec == -1
        with pytest.raises(ArithmeticError):
            prod.coeff(-1)
    # one more known term of the regular factor fixes the residue
    assert (((t + 3) / (t - 5)).laurent_at(2, 1) * pole).coeff(-1) == Fraction(-5, 3)


def test_laurent_arithmetic_tracks_the_precision():
    """Sums, products, scalar multiples and derivatives of expansions at
    a point agree with the expansions of the results wherever they are
    known, and a product is known to min(prec1 + val2, prec2 + val1)."""
    tw = ScalarTower.get(4)
    t, w = tw.t, tw.zeta
    p = tw.scalars.coerce(Fraction(3, 2))
    f = (w * t ** 2 + 1) / ((t - p) ** 2 * (t + 1))
    g = (t - p) * (t + w) / (t - 4)
    for pf, pg in ((0, 2), (1, 1), (3, 0)):
        lf, lg = f.laurent_at(p, pf), g.laurent_at(p, pg)
        assert (lf.val, lg.val) == (-2, min(1, pg))
        cases = [
            (lf + lg, f + g, min(pf, pg)),
            (lf - lg, f - g, min(pf, pg)),
            (lf * lg, f * g, min(pf + 1, pg - 2)),
            (lg * lf, f * g, min(pf + 1, pg - 2)),
            (lf * w, f * w, pf),
            (lf - 3, f - 3, pf),
            (lf.derivative(), f.derivative(), pf - 1),
        ]
        for got, want, prec in cases:
            assert got.prec == prec
            assert all(got.coeff(j) == want.laurent_at(p, prec).coeff(j) for j in range(-4, prec))


def test_only_the_exact_zero_is_false():
    tw = ScalarTower.get(4)
    t = tw.t
    zero = tw.functions.zero.laurent_at(1, 3)
    assert not zero and zero.prec == math.inf
    assert not (zero * (1 / (t - 1)).laurent_at(1, 0))
    assert not (t.laurent_at(1, 2) * 0)
    diff = t.laurent_at(1, 2) - t.laurent_at(1, 2) + zero
    assert diff and not diff.cs and diff.prec == 2  # O(s^2) is not 0
    assert (zero + 5).coeff(0) == 5 and (zero + 5).prec == math.inf


# -- Hermite reduction against sympy's ratint_ratpart --------------------------

SYMPY_ZETA = {1: sympy.Integer(1), 2: sympy.Integer(-1), 3: (sympy.sqrt(3) * sympy.I - 1) / 2, 4: sympy.I,
              6: (sympy.sqrt(3) * sympy.I + 1) / 2, 12: (sympy.sqrt(3) + sympy.I) / 2}


def sympy_expr(cs, T):
    """The polynomial with coefficients cs over Q(zeta_T) as a sympy
    expression in t, zeta_T written out."""
    return sum((sum((sympy.Rational(c.numerator, c.denominator) * SYMPY_ZETA[T] ** u
                     for u, c in enumerate(x.coeffs)), sympy.Integer(0)) * TS ** i
                for i, x in enumerate(cs)), sympy.Integer(0))


def sympy_poly(cs, T):
    """The polynomial with coefficients cs over Q(zeta_T), T in 1, 2, 4, as
    a sympy Poly in t over Q or Q(i)."""
    expr = sympy_expr(cs, T)
    return sympy.Poly(expr, TS, extension=sympy.I) if T == 4 else sympy.Poly(expr, TS, domain=sympy.QQ)


def as_sympy_fraction(f, T):
    return sympy_poly(f.num, T).as_expr() / sympy_poly(f.den, T).as_expr()


@pytest.mark.parametrize("T", [1, 2, 4])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_hermite_reduction_matches_sympy_ratint_ratpart(T, data):
    """Proper fractions whose denominators carry repeated linear factors
    and squared quadratics with no root in Q(zeta_T): the rational part R
    equals sympy's Horowitz-Ostrogradsky rational part and A/S its log
    part, exactly."""
    tw = ScalarTower.get(T)
    F, t = tw.functions, tw.t
    zeta = F.coerce(tw.zeta)
    small = st.integers(-3, 3)
    coeff = st.builds(lambda a, b: F.coerce(a) + F.coerce(b) * zeta, small, small)
    # the first linear factor repeated, the first quadratic squared
    den = F.one
    for k, p in enumerate(data.draw(st.lists(st.sampled_from([F.zero, F.one, -F.one, zeta]),
                                             min_size=1, max_size=2, unique=True))):
        den = den * (t - p) ** data.draw(st.integers(2 if k == 0 else 1, 3))
    for Q in data.draw(st.lists(st.sampled_from([t ** 2 + 2, t ** 2 + t + 1]), min_size=1, max_size=2,
                                unique_by=str)):
        den = den * Q ** 2
    num = sum((data.draw(coeff) * t ** i for i in range(den.degree())), F.zero)
    f = num / den
    if not f:
        return
    rational, A, S = hermite_reduce(F.from_coeffs(f.num), F.from_coeffs(f.den))
    theirs_rational, theirs_log = ratint_ratpart(sympy_poly(f.num, T), sympy_poly(f.den, T), TS)
    assert sympy.cancel(as_sympy_fraction(rational, T) - theirs_rational) == 0
    assert sympy.cancel(as_sympy_fraction(A / S, T) - theirs_log) == 0


# -- products with a constant factor and substitutions at q = 1 -----------------

@pytest.mark.parametrize("T", [1, 2, 3, 4, 6, 12])
def test_constant_factor_matches_the_general_product_and_sympy(T):
    """c * f and f * c over Q(zeta_T) for rational, non-rational, negative
    and zero constants c, on pinned draws of f whose numerator content
    the product must reduce: equal, with equal hash, to the reduced
    constructor on the coefficientwise product (a gcd and canon, the
    general route), with f's denominator kept; and sympy's cancel of the
    difference, zeta_T written out, is 0."""
    rng = random.Random(T)
    tw = ScalarTower.get(T)
    F, K, t = tw.functions, tw.scalars, tw.t
    zeta = K.coerce(tw.zeta)
    q = lambda n, d: K.coerce(Fraction(n, d))
    consts = [K.zero, q(3, 2), q(-6, 1), q(-2, 9), 3 * zeta, q(1, 4) - q(5, 6) * zeta]
    consts += [q(rng.randint(-12, 12), rng.randint(1, 12)) + q(rng.randint(-6, 6), rng.randint(1, 6)) * zeta
               for _ in range(6)]
    pool = [F.zero, F.one, -F.one, F.coerce(zeta), F.coerce(2)]
    pinned = (2 * t + 4) / (3 * (t - 1))
    draws = [small_ratfunc(rng, tw, pool) * F.coerce(rng.choice((2, 6, Fraction(3, 4)))) for _ in consts]
    for c, f in [(q(3, 2), pinned), (K.zero, pinned)] + list(zip(consts, draws)):
        if not f:
            continue
        want = RatFunc(F, tuple(c * x for x in f.num), f.den)
        for got in (F.coerce(c) * f, f * F.coerce(c)):
            assert got == want and hash(got) == hash(want)
            if c:
                assert got._d is f._d
        got_s = sympy_expr(got.num, T) / sympy_expr(got.den, T)
        f_s = sympy_expr(f.num, T) / sympy_expr(f.den, T)
        assert sympy.cancel(got_s - sympy_expr((c,), T) * f_s, extension=True) == 0
    assert F.coerce(q(3, 2)) * pinned == (t + 2) / (t - 1)


def test_power_substitutions_at_q1_are_the_identity():
    """subs_power(1) and descend_power(1) into the element's own field are
    the element itself; into another field they still convert it."""
    f = (t ** 2 + 3) / (t ** 4 - z)
    for g in (f, F.zero, F.one):
        assert g.subs_power(1) is g and g.subs_power(1, F) is g
        assert g.descend_power(1) is g and g.descend_power(1, F) is g
    tw2 = ScalarTower.get(2)
    F2, t2 = tw2.functions, tw2.t
    F4 = tw2.cover(2).functions
    h = (t2 ** 2 - 3) / (t2 + F2.coerce(Fraction(1, 2)))
    up = h.subs_power(1, F4)
    assert up.field is F4 and up == F4.from_coeffs(h.num, h.den)
    down = up.descend_power(1, F2)
    assert down.field is F2 and down == h
