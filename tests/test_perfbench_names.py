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
