"""Differential tests of `Scalar`, an integer triple, against a reference kept
here in which a scalar is a pair (re, im) of Fractions.

The operator and matrix tests check their integer paths against Scalar
arithmetic; this file is what checks Scalar itself."""

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intdiffops.scalars import QQ, QQI, Scalar

# -- the reference: (re, im) pairs of Fractions ------------------------------


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def ref_pow(x, k):
    out = (Fraction(1), Fraction(0))
    base = x if k >= 0 else ref_div((Fraction(1), Fraction(0)), x)
    for _ in range(abs(k)):
        out = ref_mul(out, base)
    return out


def ref_str(x):
    re, im = x
    if im == 0:
        return str(re)
    ims = "i" if im == 1 else "-i" if im == -1 else f"{im}*i"
    if re == 0:
        return ims
    return f"{re}{'+' if im > 0 else ''}{ims}"


def ref_hash(x):
    return hash(x[0]) if x[1] == 0 else hash(x)


def _ref_sqrt_rational(q):
    if q < 0:
        return None
    n, d = isqrt(q.numerator), isqrt(q.denominator)
    return Fraction(n, d) if n * n == q.numerator and d * d == q.denominator else None


def ref_sqrt(x, has_i):
    """The principal root: u >= 0, and u > 0 off the imaginary axis."""
    re, im = x
    if re == 0 and im == 0:
        return (Fraction(0), Fraction(0))
    if im == 0:
        r = _ref_sqrt_rational(abs(re))
        if r is None:
            return None
        if re > 0:
            return (r, Fraction(0))
        return (Fraction(0), r) if has_i else None
    if not has_i:
        return None
    norm = _ref_sqrt_rational(re * re + im * im)
    if norm is None:
        return None
    u = _ref_sqrt_rational((re + norm) / 2)
    if u is None or u == 0:
        return None
    return (u, im / (2 * u))


# -- draws ---------------------------------------------------------------------

# parts weighted toward 0 and +-1, with small and very large denominators
parts = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
)
pairs = st.one_of(
    st.sampled_from([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]).map(lambda p: tuple(map(Fraction, p))),
    st.tuples(parts, st.just(Fraction(0))),
    st.tuples(st.just(Fraction(0)), parts),
    st.tuples(parts, parts),
)


def _arg(q: Fraction, as_int: bool):
    """q as the int or the Fraction a caller might pass."""
    return q.numerator if as_int and q.denominator == 1 else q


def make(x, as_int=(True, True)) -> Scalar:
    return Scalar(_arg(x[0], as_int[0]), _arg(x[1], as_int[1]))


scalars = st.tuples(pairs, st.tuples(st.booleans(), st.booleans())).map(lambda p: (p[0], make(*p)))


def same(s: Scalar, x) -> bool:
    """s holds exactly the pair x, in a normalized triple."""
    assert s.den > 0 and gcd(s.nre, s.nim, s.den) == 1
    assert type(s.re) is Fraction and type(s.im) is Fraction
    assert type(s.nre) is int and type(s.nim) is int and type(s.den) is int
    return (s.re, s.im) == x


@given(scalars, scalars)
@settings(max_examples=300)
def test_field_operations_match_the_fraction_pair_reference(xa, yb):
    x, a = xa
    y, b = yb
    assert same(a, x) and same(b, y)
    assert same(a + b, ref_add(x, y))
    assert same(a - b, ref_sub(x, y))
    assert same(a * b, ref_mul(x, y))
    assert same(-a, (-x[0], -x[1]))
    assert same(a.conj(), (x[0], -x[1]))
    if y != (0, 0):
        assert same(a / b, ref_div(x, y))
    for k in (x[0], x[1]):
        if k.denominator == 1 and abs(k) < 10**6:
            # int operands on either side
            assert same(a + int(k), ref_add(x, (k, Fraction(0))))
            assert same(int(k) - a, ref_sub((k, Fraction(0)), x))
            assert same(a * int(k), ref_mul(x, (k, Fraction(0))))
    assert (a == b) == (x == y)
    assert (a == b) <= (hash(a) == hash(b))


@given(scalars, st.integers(-4, 4))
def test_powers_match_the_reference(xa, k):
    x, a = xa
    if k < 0 and x == (0, 0):
        return
    assert same(a**k, ref_pow(x, k))


@given(scalars)
@settings(max_examples=300)
def test_comparison_hash_and_printing_match_the_reference(xa):
    x, a = xa
    re, im = x
    assert (a == re) == (im == 0)
    if re.denominator == 1:
        assert (a == re.numerator) == (im == 0)
    assert hash(a) == ref_hash(x)
    if im == 0:
        assert hash(a) == hash(re)
    assert str(a) == ref_str(x)
    assert a.sort_key() == x
    assert a.is_zero() == (x == (0, 0))
    assert a.is_one() == (x == (1, 0))
    assert a.is_integer() == (im == 0 and re.denominator == 1)


@given(scalars)
def test_sqrt_matches_the_reference(xa):
    x, a = xa
    for field in (QQ, QQI):
        want = ref_sqrt(x, field.has_i)
        got = field.sqrt(a)
        assert (got is None) == (want is None)
        if got is not None:
            assert same(got, want)
        square = ref_mul(x, x)
        r = field.sqrt(make(square))
        if field.has_i or x[1] == 0:
            assert r is not None and same(r * r, square)


def test_frac_normalizes():
    s = Scalar.frac(6, -4, -10)
    assert (s.nre, s.nim, s.den) == (-3, 2, 5)
    zero = Scalar.frac(0, 0, 7)
    assert (zero.nre, zero.nim, zero.den) == (0, 0, 1)
    assert Scalar.frac(4, 0, 6) == Fraction(2, 3)
    with pytest.raises(ZeroDivisionError):
        Scalar.frac(1, 0, 0)
    with pytest.raises(AttributeError):
        s.den = 1
