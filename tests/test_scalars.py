from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cycloper.scalars import CycNum, CyclotomicField, cyclotomic_polynomial, euler_phi, scalar_reduce


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(3) == (Fraction(1), Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_polynomial(6) == (Fraction(1), Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(12) == (Fraction(1), 0, Fraction(-1), 0, Fraction(1))


def test_scalar_reduce_examples():
    # zeta^2 in the power basis, for T = 4, 3, 6
    F4 = CyclotomicField.get(4)
    assert scalar_reduce(F4, [0, 0, 1]) == -F4.one
    F3 = CyclotomicField.get(3)
    assert scalar_reduce(F3, [0, 0, 1]) == -F3.one - F3.zeta
    F6 = CyclotomicField.get(6)
    assert scalar_reduce(F6, [0, 0, 1]) == F6.zeta - F6.one


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5, 6, 8, 12])
def test_zeta_satisfies_its_polynomial(T):
    F = CyclotomicField.get(T)
    acc = F.zero
    z = F.one
    for c in F.modulus:
        acc = acc + z * c
        z = z * F.zeta
    assert not acc
    # zeta has exact multiplicative order T
    assert F.zeta ** T == F.one
    for k in range(1, T):
        assert F.zeta ** k != F.one or T == 1


coeff = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def elements(T):
    d = euler_phi(T)
    F = CyclotomicField.get(T)
    return st.tuples(*([coeff] * d)).map(lambda cs: CycNum(F, tuple(Fraction(c) for c in cs)))


@settings(max_examples=60, deadline=None)
@given(a=elements(12), b=elements(12), c=elements(12))
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inverse() == a.field.one
        assert (a.inverse()).inverse() == a


@settings(max_examples=30, deadline=None)
@given(a=elements(5))
def test_embedding_respects_arithmetic(a):
    big = CyclotomicField.get(10)
    ea = big.coerce(a)
    assert big.coerce(a * a) == ea * ea
    if a:
        assert big.coerce(a.inverse()) == ea.inverse()


def test_restrict_roundtrip():
    small = CyclotomicField.get(2)
    big = CyclotomicField.get(4)
    x = small.zeta + 3
    up = big.coerce(x)
    assert small.coerce(up) == x
    with pytest.raises(TypeError):
        small.coerce(big.zeta)


def test_rendering():
    F = CyclotomicField.get(4)
    x = CycNum(F, (Fraction(1, 2), Fraction(3, 4)))
    assert str(x) == "1/2 + 3/4*zeta"
    assert str(-F.zeta) == "-zeta"
    assert str(F.zero) == "0"
