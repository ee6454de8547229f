"""Differential tests of the integer arithmetic behind operator products and
the action oracle, against term-by-term Scalar references kept here, and of
the integer form against the Scalar-dict arithmetic it replaced.  Scalar
itself is checked against Fraction pairs in test_scalar_reference.py."""

from fractions import Fraction
from itertools import product
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from intdiffops import action
from intdiffops.action import act_monomial, act_slot_term, is_zero_by_action
from intdiffops.operators import Operator, mul_slot_terms
from intdiffops.scalars import ZERO, Scalar, common_den


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
        assert Operator.zero(n).numerators() == (1, {}, None)
        assert (Operator.one(n) - Operator.one(n)).numerators() == (1, {}, None)


def test_mixed_denominators_and_gaussian_coefficients():
    h, d, e = (("H", 1),), (("D", 1, 0),), (("E", 0, 1),)
    a = Operator(1, {h: Fraction(1, 2), d: Scalar(Fraction(1, 3), Fraction(2, 5)), e: Scalar(0, Fraction(-1, 4))})
    b = Operator(1, {h: Scalar(Fraction(-1, 2), 1), d: Fraction(5, 6)})
    assert a.numerators() == (60, {h: 30, d: 20, e: 0}, {d: 24, e: -15})
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


# -- the Scalar-dict arithmetic the integer form replaced -------------------
# Operators as {term: Scalar} dicts, with the product spread slot by slot
# into integer sums over the operands' common denominators.


def _spread(ta, tb, c):
    out = [((), c)]
    for a, b in zip(ta, tb):
        combo = mul_slot_terms(a, b).items()
        out = [(p + (s,), v * k) for p, v in out for s, k in combo]
    return out


def _numerators(terms):
    den = common_den(terms.values())
    return den, [(t, c.nre * (den // c.den), c.nim * (den // c.den)) for t, c in terms.items()]


def ref_mul(x: dict, y: dict) -> dict:
    da, xs = _numerators(x)
    db, ys = _numerators(y)
    re, im = {}, {}
    rational = not any(v[2] for v in xs) and not any(v[2] for v in ys)
    for ta, ar, ai in xs:
        for tb, br, bi in ys:
            if rational:
                for t, k in _spread(ta, tb, ar * br):
                    re[t] = re.get(t, 0) + k
            else:
                cr, ci = ar * br - ai * bi, ar * bi + ai * br
                for t, k in _spread(ta, tb, 1):
                    re[t] = re.get(t, 0) + cr * k
                    im[t] = im.get(t, 0) + ci * k
    return {t: Scalar.frac(r, im.get(t, 0), da * db) for t, r in re.items() if r or im.get(t, 0)}


def ref_plus(x: dict, y: dict, negate: bool = False) -> dict:
    out = dict(x)
    for t, c in y.items():
        cur = out.get(t)
        if cur is None:
            out[t] = -c if negate else c
            continue
        cur = cur - c if negate else cur + c
        if cur.is_zero():
            del out[t]
        else:
            out[t] = cur
    return out


def ref_neg(x: dict) -> dict:
    return {t: -c for t, c in x.items()}


def ref_scale(x: dict, c) -> dict:
    c = Scalar.of(c)
    return {} if c.is_zero() else {t: c * v for t, v in x.items()}


def ref_commutator(x: dict, y: dict) -> dict:
    return ref_plus(ref_mul(x, y), ref_mul(y, x), True)


def assert_canonical_form(op: Operator):
    """den > 0; every live term in re, 0 there only for a pure imaginary
    coefficient; im None or its nonzero imaginary numerators; no common
    factor."""
    den, re, im = op.numerators()
    assert type(den) is int and den > 0
    assert all(type(v) is int and len(t) == op.n for t, v in re.items())
    if im is None:
        assert all(re.values())
    else:
        assert type(im) is dict and im, "im must be None when every coefficient is rational"
        assert all(type(v) is int and v for v in im.values()) and set(im) <= set(re)
        assert all(v or t in im for t, v in re.items())
    assert gcd(den, *re.values(), *(im or {}).values()) == 1


def assert_matches(got: Operator, want: dict):
    """got is canonical, reads as `want`, and equals and hashes like the
    Operator built from want's Scalars."""
    assert_canonical_form(got)
    assert got.terms == want
    built = Operator(got.n, want)
    assert_canonical_form(built)
    assert got == built and hash(got) == hash(built)
    assert str(got) == str(built)


# numerators and denominators up to 10^30, next to small ones
big = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30))
big_gaussian = st.builds(Scalar, big, big).filter(lambda c: not c.is_zero())
coefficients = st.one_of(rational, gaussian, big.filter(bool).map(Scalar), big_gaussian)


def wide_triples():
    """(a, b, c) at arity 1-3 over Q or Q(i), c a scalar, zero allowed."""
    def triple(n):
        field = st.sampled_from([st.one_of(rational, big.filter(bool).map(Scalar)), coefficients])
        return field.flatmap(lambda k: st.tuples(operators(n, k), operators(n, k), st.one_of(st.just(ZERO), k)))

    return st.integers(1, 3).flatmap(triple)


@given(wide_triples())
@settings(max_examples=150, deadline=None)
def test_integer_form_matches_scalar_dict_arithmetic(case):
    a, b, c = case
    x, y = a.terms, b.terms
    assert_matches(a * b, ref_mul(x, y))
    assert_matches(b * a, ref_mul(y, x))
    assert_matches(a.commutator(b), ref_commutator(x, y))
    assert_matches(a + b, ref_plus(x, y))
    assert_matches(a - b, ref_plus(x, y, True))
    assert_matches(-a, ref_neg(x))
    assert_matches(a.scale(c), ref_scale(x, c))
    # one pass or two, the commutator is the same value, form and text
    two = a * b - b * a
    assert a.commutator(b) == two and hash(a.commutator(b)) == hash(two)
    assert str(a.commutator(b)) == str(two)


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(1, n), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
            operators(n, coefficients), operators(n, coefficients),
        )
    )
)
@settings(max_examples=80, deadline=None)
@example((2, 1, 0, 1, 2, 0, Operator(2, {(("H", 0), ("H", 0)): 1}), Operator(2, {(("H", 0), ("H", 0)): 1})))
def test_mismatched_e_indices_give_zero_products(case):
    # e[s,t]_j * e[u,v]_j = 0 for t != u, whatever the other slots hold
    n, j, s, t, u, v, x, y = case
    if t == u:
        u = t + 1
    left = x * Operator.gen_e(n, s, t, j)
    right = Operator.gen_e(n, u, v, j) * y
    for got, want in ((left * right, ref_mul(left.terms, right.terms)), (left.commutator(right) + right * left, {})):
        assert want == {}
        assert got.numerators() == (1, {}, None)
        assert got.is_zero() and got.terms == {} and str(got) == "0"
        assert got == Operator.zero(n) and hash(got) == hash(Operator.zero(n))


@given(wide_triples())
@settings(max_examples=80, deadline=None)
def test_sums_that_cancel(case):
    a, b, c = case
    zero = Operator.zero(a.n)
    again = Operator(a.n, a.terms)
    for got in (a - again, a + (-a), a.scale(c) - again.scale(c), (a * b).scale(c) - (again * b).scale(c)):
        assert_canonical_form(got)
        assert got == zero and hash(got) == hash(zero) and got.numerators() == (1, {}, None)
    # partial cancellation leaves the other summand, however it was built
    got = (a + b) - b
    assert_matches(got, a.terms)
    assert got == again and hash(got) == hash(again)


def test_products_build_scalars_only_on_read(monkeypatch):
    # integer-born operands: results of arithmetic, whose Scalars were never read
    n = 2
    d1, x2, e1 = Operator.gen_d(n, 1), Operator.gen_x(n, 2), Operator.gen_e(n, 0, 1, 1)
    a = (d1 * x2 + e1 * x2 * x2).scale(Fraction(3, 4)) - Operator.gen_H(n, 2).scale(Scalar(Fraction(2, 3), 1))
    b = (x2 * d1 + Operator.gen_int(n, 1) * e1).scale(Fraction(-5, 6))
    calls = []
    frac = Scalar.frac
    monkeypatch.setattr(Scalar, "frac", staticmethod(lambda *args: calls.append(args) or frac(*args)))
    ab = a * b
    c = a.commutator(b)
    assert calls == []
    assert not is_zero_by_action(c) and is_zero_by_action(ab - b * a - c)
    assert calls == []
    terms = ab.terms
    assert len(calls) == len(terms) > 0
    assert ab.terms is terms and str(ab) and len(calls) == len(terms)


def test_zero_test_stops_at_the_first_nonzero_image(monkeypatch):
    images = []
    image = action._image
    monkeypatch.setattr(action, "_image", lambda a, alpha: images.append(alpha) or image(a, alpha))
    # d x^[0] = 0 and d x^[1] = x^[0]: two of the window's three monomials
    assert not is_zero_by_action(Operator.gen_d(1))
    assert images == [(0,), (1,)]
    # a zero operator is probed on the whole window
    images.clear()
    assert is_zero_by_action(Operator.gen_d(1) * Operator.gen_int(1) - Operator.one(1))
    assert images == [(0,), (1,)]
