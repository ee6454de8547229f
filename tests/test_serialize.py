from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from intdiffops.modules import DSet, Orbit, build_Ms, build_simple
from intdiffops.operators import Operator
from intdiffops.scalars import Scalar, scalar_from_str
from intdiffops.serialize import (
    dumps,
    module_from_json,
    module_to_json,
    operator_from_json,
    operator_to_json,
)

fracs = st.fractions(min_value=-99, max_value=99, max_denominator=12)


@given(st.builds(Scalar, fracs, fracs))
@settings(max_examples=100)
def test_scalar_string_roundtrip(c):
    assert scalar_from_str(str(c)) == c


def test_operator_roundtrip():
    a = (
        Operator.gen_int(2, 1) ** 2 * Operator.gen_H(2, 1)
        + Operator.gen_e(2, 1, 3, 2).scale(Scalar(0, 1))
        - Operator.gen_d(2, 2).scale(Scalar(Fraction(5, 3)))
    )
    assert operator_from_json(operator_to_json(a)) == a


def test_module_roundtrip():
    M = build_Ms(2, Scalar(0), [(-2, 2)])
    assert module_from_json(module_to_json(M)) == M
    orb = Orbit.from_reps([0, "1/2"])
    S = build_simple(DSet(orb, {1}), [(-2, 2), (-2, 2)])
    assert module_from_json(module_to_json(S)) == S


def test_dumps_deterministic_sorted():
    M = build_Ms(2, Scalar(0), [(-1, 1)])
    s1 = dumps(module_to_json(M))
    s2 = dumps(module_to_json(M))
    assert s1 == s2
    doc = module_to_json(M)
    assert "schema" in doc and doc["schema"].startswith("intdiffops.")
