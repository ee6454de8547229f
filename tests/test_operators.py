import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intdiffops.action import (
    is_zero_by_action,
    matrices_equal_on_overlap,
    to_matrix,
)
from intdiffops.operators import (
    Operator,
    from_expression,
    principal_left_ideal_membership,
)
from intdiffops.poly import MultiPoly, UniPoly
from intdiffops.scalars import Scalar


def gens(n):
    out = {}
    for i in range(1, n + 1):
        out[f"H_{i}"] = Operator.gen_H(n, i)
        out[f"d_{i}"] = Operator.gen_d(n, i)
        out[f"int_{i}"] = Operator.gen_int(n, i)
    return out


def test_defining_relations_arity1():
    g = gens(1)
    one = Operator.one(1)
    d, I, H = g["d_1"], g["int_1"], g["H_1"]
    assert d * I == one
    assert H.commutator(I) == I
    assert H.commutator(d) == -d
    proj = one - I * d
    assert H * proj == proj
    assert proj * H == proj


@pytest.mark.parametrize("n", [2, 3])
def test_defining_relations_higher_arity(n):
    g = gens(n)
    one = Operator.one(n)
    for i in range(1, n + 1):
        d, I, H = g[f"d_{i}"], g[f"int_{i}"], g[f"H_{i}"]
        assert d * I == one
        assert H.commutator(I) == I
        assert H.commutator(d) == -d
        proj = one - I * d
        assert H * proj == proj
    # cross-slot commutation
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                assert g[f"d_{i}"] * g[f"int_{j}"] == g[f"int_{j}"] * g[f"d_{i}"]
                assert g[f"H_{i}"] * g[f"d_{j}"] == g[f"d_{j}"] * g[f"H_{i}"]


def test_matrix_unit_calculus():
    e = lambda s, t: Operator.gen_e(1, s, t, 1)
    d = Operator.gen_d(1, 1)
    I = Operator.gen_int(1, 1)
    H = Operator.gen_H(1, 1)
    for s in range(3):
        for t in range(3):
            for u in range(3):
                for v in range(3):
                    prod = e(s, t) * e(u, v)
                    assert prod == (e(s, v) if t == u else Operator.zero(1))
            assert I * e(s, t) == e(s + 1, t)
            assert d * e(s + 1, t) == e(s, t)
            assert e(s, t) * I == (e(s, t - 1) if t >= 1 else Operator.zero(1))
            assert e(s, t) * d == e(s, t + 1)
            assert H * e(s, t) == e(s, t).scale(Scalar(s + 1))
            assert e(s, t) * H == e(s, t).scale(Scalar(t + 1))


def test_x_eliminated():
    x = Operator.gen_x(1, 1)
    assert x == Operator.gen_int(1, 1) * Operator.gen_H(1, 1)
    d = Operator.gen_d(1, 1)
    assert d * x - x * d == Operator.one(1)
    assert x * d == Operator.gen_H(1, 1) - Operator.one(1)


word_strategy = st.lists(
    st.sampled_from(["H", "d", "int", "x"]), min_size=1, max_size=6
)


@given(word_strategy, word_strategy)
@settings(max_examples=120, deadline=None)
def test_product_matches_action_oracle(w1, w2):
    n = 1

    def from_word(w):
        a = Operator.one(n)
        for name in w:
            a = a * getattr(Operator, f"gen_{name}")(n, 1)
        return a

    a, b = from_word(w1), from_word(w2)
    prod = a * b
    N = 8
    lhs = to_matrix(prod, N)
    rhs_b = to_matrix(b, N)
    rhs_a = to_matrix(a, N + b.max_positive_degree())
    from intdiffops.action import compose

    composed = compose(rhs_a, rhs_b)
    assert matrices_equal_on_overlap(
        lhs,
        type(lhs)(rhs_b.domain, rhs_a.codomain, composed),
    )


@given(word_strategy)
@settings(max_examples=60, deadline=None)
def test_faithfulness(w):
    a = Operator.one(1)
    for name in w:
        a = a * getattr(Operator, f"gen_{name}")(1, 1)
    assert a.is_zero() == is_zero_by_action(a)


def test_grading():
    a = Operator.gen_int(1, 1) ** 2 * Operator.gen_H(1, 1)
    b = Operator.gen_d(1, 1) + Operator.gen_e(1, 2, 0, 1)
    comps = (a + b).graded_components()
    assert set(comps) == {(2,), (-1,)}
    for deg, c in comps.items():
        assert c.is_homogeneous()
    # grading is multiplicative on homogeneous parts
    prod = a * Operator.gen_e(1, 0, 3, 1)
    for deg in prod.graded_components():
        assert deg == (2 + (0 - 3),)


def test_involution():
    d = Operator.gen_d(1, 1)
    I = Operator.gen_int(1, 1)
    H = Operator.gen_H(1, 1)
    e = Operator.gen_e(1, 1, 2, 1)
    assert d.involution() == I
    assert I.involution() == d
    assert H.involution() == H
    assert e.involution() == Operator.gen_e(1, 2, 1, 1)
    a = H ** 2 * d ** 3
    b = I * H
    assert (a * b).involution() == b.involution() * a.involution()
    assert a.involution().involution() == a


def test_prime_ideal_membership():
    e = Operator.gen_e(2, 0, 0, 1)
    assert e.in_prime_ideal((1,))
    assert not e.in_prime_ideal(())
    H = Operator.gen_H(2, 2)
    assert not H.in_prime_ideal((1, 2))


def test_principal_ideal_membership_d():
    d = Operator.gen_d(1, 1)
    H = Operator.gen_H(1, 1)
    member, wit = principal_left_ideal_membership(d ** 2 + H * d, "d")
    assert member
    assert wit * d == d ** 2 + H * d
    member, _ = principal_left_ideal_membership(Operator.one(1), "d")
    assert not member


def test_principal_ideal_membership_H_minus_lambda():
    H = Operator.gen_H(1, 1)
    d = Operator.gen_d(1, 1)
    lam = Scalar(1)
    member, wit = principal_left_ideal_membership(H * d, ("H", lam))
    assert member
    assert wit * (H - Operator.one(1)) == H * d
    e = Operator.gen_e(1, 2, 0, 1)
    member, _ = principal_left_ideal_membership(e, ("H", lam))
    assert not member


def test_parser_examples():
    from intdiffops.parser import parse_expression

    ast = parse_expression("d_1*int_1")
    assert from_expression(ast, 1) == Operator.one(1)
    ast = parse_expression("e[0,0]_2")
    assert from_expression(ast, 2) == Operator.gen_e(2, 0, 0, 2)


def test_nesting_limit_covers_parentheses_and_unary_minus():
    from intdiffops.parser import MAX_NESTING, ParseError, parse_expression

    at_limit = "(" * MAX_NESTING + "-x_1" + ")" * MAX_NESTING
    with pytest.raises(ParseError, match=f"MAX_NESTING = {MAX_NESTING}"):
        parse_expression(at_limit)
    ok = "(" * (MAX_NESTING - 1) + "-x_1" + ")" * (MAX_NESTING - 1)
    assert from_expression(parse_expression(ok), 1) == -Operator.gen_x(1, 1)
    with pytest.raises(ParseError, match=f"column {MAX_NESTING + 1}"):
        parse_expression("-" * 3000 + "x_1")


def test_check_slots_reports_the_leftmost_fault_of_a_chain():
    from intdiffops.parser import check_slots, parse_expression

    terms = ["x_1"] * 3000
    terms[1000], terms[2000] = "x_5", "e[-1,0]_1"
    with pytest.raises(ValueError, match="slot index 5 out of range 1..1"):
        check_slots(parse_expression("*".join(terms)), 1)
    with pytest.raises(ValueError, match="matrix-unit indices must be non-negative"):
        check_slots(parse_expression("x_1 - (H_1 + e[-1,0]_1)"), 1)


def test_print_parse_roundtrip():
    from intdiffops.parser import parse_expression

    a = (
        Operator.gen_int(2, 1) ** 2 * Operator.gen_H(2, 1)
        + Operator.gen_e(2, 1, 3, 2).scale(Scalar(-2))
        + Operator.from_scalar(2, Scalar(7))
    )
    assert from_expression(parse_expression(str(a)), 2) == a


def test_gaussian_coefficients_print():
    d = Operator.gen_d(1, 1)
    cases = {
        Scalar(1, 2): "(1+2*i)*d_1",
        Scalar(0, -2): "-2*i*d_1",
        Scalar(0, 1): "i*d_1",
        Scalar(-1): "-d_1",
    }
    for c, text in cases.items():
        assert str(d.scale(c)) == text
    assert str(Operator.from_scalar(1, Scalar(-1, 1))) == "(-1+i)"


small = st.fractions(min_value=-3, max_value=3, max_denominator=3).map(Scalar)
gaussian = st.builds(Scalar, st.integers(-2, 2), st.integers(-2, 2))
# one element of each ring that has a __pow__, with its unit
powered = st.one_of(
    st.tuples(st.one_of(small, gaussian), st.just(Scalar(1))),
    st.tuples(st.dictionaries(st.integers(0, 2), small, max_size=3).map(UniPoly), st.just(UniPoly.const(1))),
    st.tuples(
        st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)), small, max_size=3).map(lambda c: MultiPoly(2, c)),
        st.just(MultiPoly.const(2, 1)),
    ),
    st.tuples(
        st.lists(st.sampled_from(["H", "d", "int"]), min_size=1, max_size=2).map(
            lambda w: sum((getattr(Operator, f"gen_{g}")(1, 1) for g in w), Operator.one(1))
        ),
        st.just(Operator.one(1)),
    ),
)


@given(powered, st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_power_is_repeated_product(xo, k):
    x, one = xo
    expected = one
    for _ in range(k):
        expected = expected * x
    assert x**k == expected


@pytest.mark.parametrize("x", [Scalar(2, 1), UniPoly({0: Scalar(1), 1: Scalar(2)}), MultiPoly.var(2, 1), gens(1)["d_1"] + gens(1)["H_1"]])
def test_power_forms_no_product_above_its_degree(monkeypatch, x):
    # each product's degree in x is the sum of its factors' degrees; the unit has degree 0
    cls = type(x)
    mul = cls.__mul__
    degree = {}
    made = []

    def counted(a, b):
        out = mul(a, b)
        made.append((a, b, out))  # keeps ids alive
        degree[id(out)] = degree.get(id(a), 0) + degree.get(id(b), 0)
        return out

    monkeypatch.setattr(cls, "__mul__", counted)
    for k in range(7):
        degree.clear()
        made.clear()
        degree[id(x)] = 1
        x**k
        assert max(degree.values()) <= max(k, 1), (k, sorted(degree.values()))
        assert len(made) <= 2 * k.bit_length()
        if cls is Operator:
            # left to right: k - 1 products, the sparse base always on the right
            assert len(made) == max(k - 1, 0)
            assert all(b is x for _, b, _ in made)


def _single_term_bases():
    for n in (1, 2, 3):
        for i in sorted({1, n}):
            yield Operator.gen_int(n, i)
            yield Operator.gen_d(n, i)
            yield Operator.gen_H(n, i)
            yield Operator.gen_x(n, i)
            for s, t in ((0, 0), (1, 2), (2, 1), (3, 3)):
                yield Operator.gen_e(n, s, t, i)
        # a coefficient, and a term over two slots
        yield Operator.gen_int(n, 1).scale(Scalar(-2, 3) if n == 2 else Scalar(1, 1))
        if n > 1:
            yield Operator.gen_int(n, 1) * Operator.gen_d(n, n)


@pytest.mark.parametrize("base", list(_single_term_bases()), ids=lambda a: f"n{a.n}:{a}")
def test_power_of_a_single_term_is_the_repeated_product(base):
    # binary powering while the squares stay single terms; x's square has two
    expected = Operator.one(base.n)
    for k in range(14):
        assert base**k == expected, k
        expected = expected * base


def test_power_squares_only_single_terms(monkeypatch):
    mul = Operator.__mul__
    sizes = []

    def counted(a, b):
        sizes.append((len(a.terms), len(b.terms)))
        return mul(a, b)

    monkeypatch.setattr(Operator, "__mul__", counted)
    Operator.gen_int(1, 1) ** 10000
    assert len(sizes) == 17 and set(sizes) == {(1, 1)}
    sizes.clear()
    Operator.gen_x(1, 1) ** 64
    # one squaring of x, then 62 products with x itself
    assert sizes[0] == (1, 1) and sizes[1:] == [(j, 1) for j in range(2, 64)]


def test_slot_product_cache_is_bounded():
    from intdiffops import operators

    g = gens(2)
    a = g["d_1"] * g["H_2"] + g["int_1"] * g["int_2"]
    b = g["H_1"] * g["int_1"] + g["d_2"] * g["d_2"]
    operators._MUL1_CACHE.clear()
    cold = a * b
    try:
        bound = operators._MUL1_CACHE_MAX
        # distinct keys (H^k, 1), each a trivial product
        for k in range(bound + 10):
            operators.mul_slot_terms(("H", k), ("H", 0))
            assert len(operators._MUL1_CACHE) <= bound
        assert a * b == cold
    finally:
        operators._MUL1_CACHE.clear()
