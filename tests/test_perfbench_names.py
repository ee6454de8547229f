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
