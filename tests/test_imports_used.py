"""Every name a file under src/intdiffops/ or tests/ imports is used in that
file; the names `intdiffops/__init__.py` lists in `__all__` are its exports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "intdiffops").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    # names inside string annotations such as -> "Mat"
    for node in ast.walk(tree):
        for ann in _annotations(node):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _annotations(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args
        for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
            if a is not None and a.annotation is not None:
                yield from ast.walk(a.annotation)
        if node.returns is not None:
            yield from ast.walk(node.returns)
    elif isinstance(node, ast.AnnAssign):
        yield from ast.walk(node.annotation)


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in FILES
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "imported but never used:\n" + "\n".join(found)


def test_scan_sees_unused_and_used_names():
    source = "import os, sys\nfrom typing import List, Optional\n\ndef f(x: 'List[int]') -> Optional[int]:\n    return sys.maxsize\n"
    assert unused_imports(source) == [(1, "os")]
