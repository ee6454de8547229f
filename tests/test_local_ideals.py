import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intdiffops.classify import tame_local_ideal
from intdiffops.linalg import DomainError
from intdiffops.local_ideals import LocalIdeal, MaxIdeal, QuotientBasis
from intdiffops.poly import MultiPoly, monomials_below
from intdiffops.scalars import QQ, QQI, Scalar
from local_ideals_reference import HandQuotient, hand_tame_verdict


def h(n, j):
    return MultiPoly.var(n, j)


def test_power_quotient_dimension():
    # K[h]/(h^s) has dimension s
    for s in (1, 2, 3, 4):
        ideal = LocalIdeal.from_shifted(MaxIdeal([0]), s, [h(1, 1) ** s])
        assert QuotientBasis(ideal).dim == s


def test_center_shift():
    # the same quotient at a shifted center
    lam = Scalar(5)
    ideal = LocalIdeal.from_shifted(MaxIdeal([lam]), 2, [h(1, 1) ** 2])
    qb = QuotientBasis(ideal)
    assert qb.dim == 2
    m = qb.multiplication_matrix(1)
    # multiplication by h = H - 5 is nilpotent on the quotient
    assert (m @ m).is_zero()


def test_two_variable_quotient():
    # K[h1,h2]/(h1 h2, h1^2 - h2^2, m^3): basis 1, h1, h2, h1^2
    ctr = MaxIdeal([0, 0])
    ideal = LocalIdeal.from_shifted(
        ctr, 3, [h(2, 1) * h(2, 2), h(2, 1) ** 2 - h(2, 2) ** 2]
    )
    qb = QuotientBasis(ideal)
    assert qb.dim == 4
    m1 = qb.multiplication_matrix(1)
    m2 = qb.multiplication_matrix(2)
    assert (m1 @ m2) == (m2 @ m1)
    assert (m1 @ m2).is_zero()
    # nilpotency at the order
    p = m1
    for _ in range(ideal.order - 1):
        p = p @ m1
    assert p.is_zero()


def test_reduce_idempotent():
    ideal = LocalIdeal.from_shifted(MaxIdeal([0, 0]), 3, [h(2, 1) * h(2, 2)])
    qb = QuotientBasis(ideal)
    p = (h(2, 1) + h(2, 2)) ** 2
    r = qb.reduce(p)
    assert qb.reduce(r) == r
    # the difference lies in the ideal row space: reducing it gives zero
    assert qb.reduce(p - r).is_zero()


def test_generator_outside_maximal_ideal_rejected():
    with pytest.raises(ValueError):
        LocalIdeal(MaxIdeal([0]), 2, [MultiPoly.const(1, 1)])


# -- the one-product normal forms against the hand reduction -----------------

_coeff = st.builds(Scalar, st.integers(-3, 3), st.sampled_from([0, 0, 1, -2]))


@st.composite
def local_ideals(draw):
    """A local ideal of arity 1-3 and order 1-4 at an integer center, with
    up to three generators in m that may reach past the order."""
    n = draw(st.integers(1, 3))
    order = draw(st.integers(1, 4))
    monos = [e for e in monomials_below(n, order + 2) if sum(e)]
    supports = draw(st.lists(st.lists(st.sampled_from(monos), min_size=1, max_size=4), max_size=3))
    gens = [MultiPoly(n, {e: draw(_coeff) for e in support}) for support in supports]
    center = MaxIdeal([draw(st.integers(-2, 2)) for _ in range(n)])
    return LocalIdeal.from_shifted(center, order, gens)


@given(local_ideals(), st.data())
@settings(max_examples=120, deadline=None)
def test_normal_forms_match_the_hand_reduction(ideal, data):
    qb, ref = QuotientBasis(ideal), HandQuotient(ideal)
    assert qb.basis_monomials == ref.basis_monomials
    for j in range(1, ideal.n + 1):
        got, want = qb.multiplication_matrix(j), ref.multiplication_matrix(j)
        assert got == want and got._int() == want._int()
    monos = data.draw(st.lists(st.sampled_from(monomials_below(ideal.n, ideal.order + 1)), max_size=6))
    p = MultiPoly(ideal.n, {e: data.draw(_coeff) for e in monos})
    assert qb.reduce(p) == ref.reduce(p)
    assert qb.coordinates(p) == ref.coordinates(p)
    if ideal.n == 2:
        for field in (QQ, QQI):
            assert tame_local_ideal(ideal, field) == hand_tame_verdict(ideal, field)
    else:
        with pytest.raises(DomainError):
            tame_local_ideal(ideal)
