from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from intdiffops.scalars import ONE, QQ, QQI, ZERO, Scalar, scalar_from_str

fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
scalars = st.builds(Scalar, fractions, fractions)
rationals = st.builds(Scalar, fractions)


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO


@given(scalars)
def test_inverse(a):
    if not a.is_zero():
        assert a * (ONE / a) == ONE


@given(scalars)
def test_conjugation(a):
    assert a.conj().conj() == a
    norm = a * a.conj()
    assert norm.im == 0
    assert norm.re >= 0


@given(scalars, scalars)
def test_conj_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()


def test_parse_rational():
    assert scalar_from_str("3/2") == Scalar(Fraction(3, 2))
    assert scalar_from_str("-7") == Scalar(-7)
    assert scalar_from_str("i") == Scalar(0, 1)
    assert scalar_from_str("-i") == Scalar(0, -1)
    assert scalar_from_str("1/2-3/4*i") == Scalar(Fraction(1, 2), Fraction(-3, 4))
    # Scalar.of reads strings with the same parser
    assert Scalar.of("1/2-3/4*i") == Scalar(Fraction(1, 2), Fraction(-3, 4))


def test_str_is_the_parsed_form():
    cases = {
        Scalar(Fraction(-3, 2)): "-3/2",
        Scalar(0, 1): "i",
        Scalar(0, -1): "-i",
        Scalar(0, 2): "2*i",
        Scalar(1, 2): "1+2*i",
        Scalar(Fraction(1, 2), Fraction(-3, 4)): "1/2-3/4*i",
        Scalar(-1, -1): "-1-i",
    }
    for c, text in cases.items():
        assert str(c) == text
        assert scalar_from_str(text) == c


def test_exponent_literals_rejected():
    for text in ("0e6000000", "1E5", "2e-3*i", "1+1e9*i"):
        with pytest.raises(ValueError) as err:
            scalar_from_str(text)
        assert repr(text) in str(err.value)
    # decimals stay exact
    assert scalar_from_str("1.5") == Scalar(Fraction(3, 2))


def test_field_membership():
    assert QQ.contains(Scalar(3))
    assert not QQ.contains(Scalar(0, 1))
    assert QQI.contains(Scalar(0, 1))


@given(rationals)
def test_sqrt_of_squares_rational(a):
    r = QQ.sqrt(a * a)
    assert r is not None and r * r == a * a


@given(scalars)
def test_sqrt_of_squares_gaussian(a):
    r = QQI.sqrt(a * a)
    assert r is not None and r * r == a * a


def test_sqrt_failures():
    assert QQ.sqrt(Scalar(2)) is None
    assert QQ.sqrt(Scalar(-1)) is None
    assert QQI.sqrt(Scalar(-1)) == Scalar(0, 1) or QQI.sqrt(Scalar(-1)) == Scalar(0, -1)
    assert QQI.sqrt(Scalar(2)) is None


@given(scalars)
def test_str_repr_roundtrip_hash(a):
    assert Scalar.of(a) == a
    if a.im == 0:
        assert hash(a) == hash(a.re)
