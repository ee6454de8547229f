from hypothesis import given, settings
from hypothesis import strategies as st

from intdiffops.poly import MultiPoly, UniPoly, graded_lex_key, monomials_below
from intdiffops.scalars import Scalar

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4).map(Scalar)


def unipolys(max_deg=4):
    return st.dictionaries(st.integers(0, max_deg), coeffs, max_size=4).map(UniPoly)


@given(unipolys(), unipolys(), unipolys())
@settings(max_examples=60)
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


@given(unipolys(), coeffs, coeffs)
@settings(max_examples=60)
def test_shift_is_substitution(p, d, x):
    # p.shift(d) evaluates like p at x + d
    assert p.shift(d).eval(x) == p.eval(x + d)


@given(unipolys(), unipolys())
@settings(max_examples=60)
def test_divmod(p, q):
    if q.is_zero():
        return
    quo, rem = p.divmod(q)
    assert quo * q + rem == p
    if not rem.is_zero():
        assert rem.degree() < q.degree()
    assert p.divisible_by(q) == rem.is_zero()


def test_linear_shifted():
    # H + shift, evaluated at H = x
    p = UniPoly.linear_shifted(Scalar(3))
    assert p.eval(Scalar(2)) == Scalar(5)
    assert p.degree() == 1


@given(coeffs, coeffs, coeffs)
def test_multipoly_shift_slot(a, d, x):
    p = MultiPoly.var(2, 1) ** 2 + MultiPoly.var(2, 2).scale(a)
    shifted = p.shift_slot(1, d)
    assert shifted.eval([x, a]) == p.eval([x + d, a])


def test_truncate_drops_high_degrees():
    p = (MultiPoly.var(2, 1) + MultiPoly.const(2, 1)) ** 3
    t = p.truncate(2)
    assert t.total_degree() <= 1
    assert (p - t).truncate(2).is_zero() or all(
        sum(e) >= 2 for e in (p - t).coeffs
    )


def test_monomials_below_graded_lex():
    ms = monomials_below(2, 3)
    assert ms[0] == (0, 0)
    assert ms == sorted(ms, key=graded_lex_key)
    assert all(sum(e) < 3 for e in ms)
    assert len(ms) == 6


def test_printing_joins_negative_terms_with_a_minus():
    two, i = Scalar(2), Scalar(0, 1)
    # negative constant
    assert str(UniPoly({2: Scalar(1), 0: -two})) == "H^2 - 2"
    # negative leading coefficient
    assert str(UniPoly({3: -two, 1: Scalar(1), 0: Scalar(5)})) == "-2*H^3 + H + 5"
    assert str(UniPoly({1: Scalar(-1)})) == "-H"
    # non-real coefficients, parenthesized when both parts are nonzero
    assert str(UniPoly({1: Scalar(1, 1), 0: -i})) == "(1+i)*H - i"
    assert str(UniPoly({0: Scalar(1, -1)})) == "(1-i)"
    assert str(UniPoly()) == "0"
    H1, H2 = MultiPoly.var(2, 1), MultiPoly.var(2, 2)
    assert str(H1 * H2 - MultiPoly.const(2, 3)) == "H_1*H_2 - 3"
    assert str((H1 * H1).scale(-1) + H2.scale(Scalar(1, 1))) == "-H_1^2 + (1+i)*H_2"
    assert str(MultiPoly(2, {})) == "0"
