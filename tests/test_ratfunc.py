import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
import hypothesis.strategies as st

import cycloper
from cycloper import ratfunc
from cycloper.errors import IrreducibleDenominator, MonodromyObstruction, PartialFractionError
from cycloper.ratfunc import (
    INFINITY,
    hermite_reduce,
    partial_fractions,
    poles_of,
    rational_antiderivative,
    substitute_power,
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
    assert substitute_power(t, 3) == t ** 3
    assert substitute_power(1 / (t - z), 2) == 1 / (t ** 2 - z)
    # chain rule against the cover jacobian: d/du f(u^q) = q u^{q-1} f'(u^q)
    f = 1 / (t - 1) + t ** 2
    g = substitute_power(f, 3)
    assert g.derivative() == 3 * t ** 2 * substitute_power(f.derivative(), 3)


def test_descend_power_roundtrip():
    f = (t ** 2 + 3) / (t ** 4 - F.coerce(z))
    up = substitute_power(f, 2)
    assert up.descend_power(2) == f
    with pytest.raises(ValueError):
        (t ** 3).descend_power(2)


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


def _non_unit_xgcd(K, a, b):
    """A stand-in for pxgcd that reports the non-unit gcd t."""
    return (K.zero, K.one), (K.one,), (K.one,)


def test_hermite_reduction_failures_are_typed(monkeypatch):
    tw = ScalarTower.get(1)
    t1, F1, K1 = tw.t, tw.functions, tw.scalars
    with pytest.raises(PartialFractionError, match="not proper"):
        hermite_reduce(F1, (K1.one, K1.one), (K1.zero, K1.one))
    monkeypatch.setattr(ratfunc, "pxgcd", _non_unit_xgcd)
    with pytest.raises(PartialFractionError, match="not coprime"):
        rational_antiderivative(1 / (t1 ** 2 * (t1 - 1)))
    with pytest.raises(PartialFractionError, match="derivative"):
        rational_antiderivative(1 / t1 ** 2)
    assert PartialFractionError.exit_code == 15


_HERMITE_CHECKS_UNDER_O = """
import cycloper.ratfunc as ratfunc
from cycloper.errors import PartialFractionError
from cycloper.tower import ScalarTower

tw = ScalarTower.get(1)
t, F, K = tw.t, tw.functions, tw.scalars
calls = [lambda: ratfunc.hermite_reduce(F, (K.one, K.one), (K.zero, K.one))]
ratfunc.pxgcd = lambda K, a, b: ((K.zero, K.one), (K.one,), (K.one,))
calls += [lambda: ratfunc.rational_antiderivative(1 / (t ** 2 * (t - 1))),
          lambda: ratfunc.rational_antiderivative(1 / t ** 2)]
for call in calls:
    try:
        call()
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
