"""The benchmark wraps and imports library names from outside; a rename must
fail here, not silently in `perfbench/run.py --trace 1`."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_layer_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYER_FUNCTIONS
    for owner, attr, _, _ in spans.LAYER_FUNCTIONS:
        # Tracer.install reads owner.__dict__[attr]
        assert attr in vars(owner), f"{owner.__name__}.{attr}"


def test_imported_names_exist():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("intdiffops"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    name = f"{node.module}.{alias.name}"
                    assert hasattr(module, alias.name) or importlib.util.find_spec(name), f"{path.name}: {name}"


def test_scalar_and_mat_contract():
    """What the benchmark reads of Scalar and Mat: construction from Fractions
    and ints, Fraction parts, rational hashes, and writes into a fresh Mat."""
    from fractions import Fraction

    from intdiffops.linalg import Mat
    from intdiffops.scalars import ONE, Scalar

    q = Fraction(-5, 3)
    h = Fraction(1, 2)
    for s, re, im in ((Scalar(q, 2), q, 2), (Scalar(q), q, 0), (Scalar(7, h), 7, h), (Scalar(h, h), h, h)):
        assert type(s.re) is Fraction and type(s.im) is Fraction
        assert (s.re, s.im) == (re, im)
    for v in (q, Fraction(7), Fraction(0), Fraction(1, 10**20)):
        assert hash(Scalar(v)) == hash(v) and Scalar(v) == v
    m = Mat.identity(2)
    m.data[0][1] = Scalar(q)
    m.data[1][0] = Scalar(0, 1)
    assert (m @ Mat.identity(2)).data == [[ONE, Scalar(q)], [Scalar(0, 1), ONE]]
    assert (m + Mat.zero(2, 2)) == m and m.scale(2).data[0][1] == 2 * q


def test_operator_contract():
    """What the benchmark reads of operators: the one/zero/from_scalar and
    gen_* constructors, `scale` by a Scalar, +, -, *, `commutator`, the
    structure bounds, principal ideal witnesses, `len(op.terms)` (its trace
    counter), and `act_monomial` images whose values are Scalars with
    `.is_zero()`, summed with `ZERO`."""
    from fractions import Fraction

    from intdiffops.action import act_monomial, is_zero_by_action
    from intdiffops.operators import Operator, principal_left_ideal_membership
    from intdiffops.scalars import ZERO, Scalar

    n = 2
    w = Operator.one(n)
    for g in (Operator.gen_H(n, 2), Operator.gen_d(n, 1), Operator.gen_int(n, 2), Operator.gen_x(n, 1), Operator.gen_e(n, 1, 0, 2)):
        w = w * g
    a = Operator.zero(n) + w.scale(Scalar(Fraction(-5, 3))) + Operator.gen_x(n, 2)
    b = Operator.gen_d(n, 1) - Operator.from_scalar(n, Scalar(Fraction(1, 2)))
    assert str(a) == "int_2*H_2 - 5*H_1*e[2,0]_2"
    c = a.commutator(b)
    assert str(c) == "5*d_1*e[2,0]_2" and len(a.terms) == 2 and len(c.terms) == 1
    assert (c.index_bound(), c.max_poly_degree()) == (2, 0)
    assert is_zero_by_action(a * b - b * a - c) and not is_zero_by_action(c)
    image = act_monomial(a, (1, 0))
    assert image == {(1, 2): Scalar(-10), (1, 1): Scalar(1)}
    assert all(type(v) is Scalar and not v.is_zero() for v in image.values())
    assert (ZERO + image[1, 2] * image[1, 1]).is_zero() is False
    lam = Scalar(Fraction(3, 2))
    g = Operator.gen_H(1) - Operator.from_scalar(1, lam)
    q = (Operator.gen_d(1) + Operator.gen_x(1)) * g
    member, witness = principal_left_ideal_membership(q, ("H", lam))
    assert member and witness * g == q
