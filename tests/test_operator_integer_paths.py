"""Differential tests of the integer arithmetic behind operator products and
the action oracle, against term-by-term Scalar references kept here.  Scalar
itself is checked against Fraction pairs in test_scalar_reference.py."""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from intdiffops.action import act_monomial, act_slot_term
from intdiffops.operators import Operator, mul_slot_terms
from intdiffops.scalars import ZERO, Scalar


def reference_mul(a: Operator, b: Operator) -> dict:
    """The product with one Scalar per term pair and per spread term."""
    out = {}
    for ta, ca in a.terms.items():
        for tb, cb in b.terms.items():
            partial = [((), ca * cb)]
            for sa, sb in zip(ta, tb):
                combo = mul_slot_terms(sa, sb)
                partial = [(p + (s,), c * Scalar(k)) for p, c in partial for s, k in combo.items()]
            for term, c in partial:
                cur = out.get(term, ZERO) + c
                if cur.is_zero():
                    out.pop(term, None)
                else:
                    out[term] = cur
    return out


def reference_act(a: Operator, alpha) -> dict:
    """x^[alpha] under a, every coefficient a Scalar."""
    out = {}
    for term, c in a.terms.items():
        beta = []
        for slot, s in zip(term, alpha):
            kind = slot[0]
            if kind == "H":
                c, s = c * Scalar(s + 1) ** slot[1], s
            elif kind == "D":
                if s < slot[1]:
                    break
                c, s = c * Scalar(s - slot[1] + 1) ** slot[2], s - slot[1]
            elif kind == "I":
                c, s = c * Scalar(s + 1) ** slot[2], s + slot[1]
            elif s == slot[2]:
                s = slot[1]
            else:
                break
            beta.append(s)
        else:
            beta = tuple(beta)
            cur = out.get(beta, ZERO) + c
            if cur.is_zero():
                out.pop(beta, None)
            else:
                out[beta] = cur
    return out


def slot_terms(top: int):
    """Every canonical slot term with indices and H-powers up to top."""
    r, pos = range(top + 1), range(1, top + 1)
    return (
        [("D", i, k) for i in pos for k in r]
        + [("H", k) for k in r]
        + [("I", i, k) for i in pos for k in r]
        + [("E", s, t) for s in r for t in r]
    )


SLOTS = slot_terms(2)
# distinct small denominators, so common denominators are real lcms
rational = st.fractions(min_value=-4, max_value=4, max_denominator=7).filter(bool).map(Scalar)
gaussian = st.builds(
    Scalar, st.fractions(min_value=-3, max_value=3, max_denominator=5), st.fractions(min_value=-3, max_value=3, max_denominator=5)
).filter(lambda c: c.im != 0)


def operators(n: int, coeffs):
    term = st.tuples(*[st.sampled_from(SLOTS)] * n)
    return st.dictionaries(term, coeffs, max_size=5).map(lambda terms: Operator(n, terms))


def operator_pairs():
    """(a, b) at arity 1-3: rational, Gaussian and mixed, zero allowed."""
    def pair(n):
        kinds = st.sampled_from([(rational, rational), (gaussian, gaussian), (rational, gaussian), (gaussian, rational)])
        return kinds.flatmap(lambda k: st.tuples(operators(n, k[0]), operators(n, k[1])))

    return st.integers(1, 3).flatmap(pair)


def _is_canonical(op: Operator) -> bool:
    return all(
        type(c) is Scalar and type(c.re) is Fraction and type(c.im) is Fraction and not c.is_zero()
        for c in op.terms.values()
    )


@given(operator_pairs())
@settings(max_examples=150, deadline=None)
def test_product_matches_scalar_reference(ab):
    a, b = ab
    got = a * b
    assert got.terms == reference_mul(a, b)
    assert _is_canonical(got)
    assert got == Operator(a.n, got.terms)


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(operators(n, rational), operators(n, gaussian), st.integers(1, n), st.integers(0, 2))))
@settings(max_examples=60, deadline=None)
def test_products_that_cancel_to_zero(case):
    # d_j * e[0,t]_j = d^(t+1) - d*int*d^(t+1) = 0, so (X*d_j) * (e[0,t]_j*Y) = 0
    x, y, j, t = case
    n = x.n
    left = x * Operator.gen_d(n, j)
    right = Operator.gen_e(n, 0, t, j) * y
    assert reference_mul(left, right) == {}
    assert (left * right).is_zero()
    assert (x * Operator.zero(n)).is_zero() and (Operator.zero(n) * y).is_zero()


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            operators(n, st.one_of(rational, gaussian)), st.tuples(*[st.integers(0, 4)] * n)
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_action_matches_scalar_reference(case):
    a, alpha = case
    got = act_monomial(a, alpha)
    assert got == reference_act(a, alpha)
    assert all(type(c) is Scalar and not c.is_zero() for c in got.values())


def test_structure_constants_are_ints_and_compose_the_action():
    slots = slot_terms(3)
    for a, b in product(slots, slots):
        combo = mul_slot_terms(a, b)
        assert all(type(k) is int and k for k in combo.values()), (a, b, combo)
        for s in range(9):
            expected = {}
            inner = act_slot_term(b, s)
            if inner is not None:
                outer = act_slot_term(a, inner[0])
                if outer is not None:
                    expected = {outer[0]: inner[1] * outer[1]}
            got = {}
            for slot, k in combo.items():
                hit = act_slot_term(slot, s)
                if hit is not None:
                    got[hit[0]] = got.get(hit[0], 0) + k * hit[1]
            assert {e: v for e, v in got.items() if v} == expected, (a, b, s)


def test_zero_operator_numerators():
    for n in (1, 2, 3):
        assert Operator.zero(n).numerators() == (1, [])


def test_mixed_denominators_and_gaussian_coefficients():
    h, d, e = (("H", 1),), (("D", 1, 0),), (("E", 0, 1),)
    a = Operator(1, {h: Fraction(1, 2), d: Scalar(Fraction(1, 3), Fraction(2, 5)), e: Scalar(0, Fraction(-1, 4))})
    b = Operator(1, {h: Scalar(Fraction(-1, 2), 1), d: Fraction(5, 6)})
    den, items = a.numerators()
    assert den == 60
    assert sorted(items) == sorted([(h, 30, 0), (d, 20, 24), (e, 0, -15)])
    assert (a * b).terms == reference_mul(a, b)
    assert (a + b).terms == {h: Scalar(0, 1), d: Scalar(Fraction(7, 6), Fraction(2, 5)), e: Scalar(0, Fraction(-1, 4))}
    assert (a - a).is_zero() and (a + (-a)).is_zero()
    assert _is_canonical(a * b) and _is_canonical(a + b) and _is_canonical(a - b)


@given(operator_pairs())
@settings(max_examples=40, deadline=None)
def test_difference_is_sum_with_the_negation(ab):
    a, b = ab
    got = a - b
    assert got == a + (-b)
    assert _is_canonical(got)
    want = {}
    for t in {*a.terms, *b.terms}:
        c = a.terms.get(t, ZERO) - b.terms.get(t, ZERO)
        if not c.is_zero():
            want[t] = c
    assert got.terms == want
