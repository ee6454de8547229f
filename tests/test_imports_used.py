"""Every name a file under src/intdiffops/ or tests/ imports is used in that
file; the names `intdiffops/__init__.py` lists in `__all__` are its exports.
Every module-level private function and class of src/intdiffops/ is named
by some file under src/, tests/, scripts/ or perfbench/ outside its own
definition (dunders are exempt)."""

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


# -- module-level private functions and classes -----------------------------

SCANNED = [p for d in ("src", "tests", "scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


def named(node) -> set:
    """Every identifier a node names: variables, attributes, imported names
    and string constants that are identifiers (getattr, monkeypatch)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.asname or sub.name.split(".")[-1])
            out.add(sub.name.split(".")[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out.add(sub.value)
    return out


def unreferenced_privates(trees: dict, home) -> list:
    """(line, name) of each module-level private function or class of
    trees[home] that no tree names outside the definition itself."""
    elsewhere = set().union(*(named(tree) for path, tree in trees.items() if path != home))
    body = trees[home].body
    found = []
    for k, node in enumerate(body):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        name = node.name
        if not name.startswith("_") or name.startswith("__") and name.endswith("__"):
            continue
        if name in elsewhere or any(name in named(other) for j, other in enumerate(body) if j != k):
            continue
        found.append((node.lineno, name))
    return found


def test_no_unreferenced_private_definitions():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SCANNED}
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src" / "intdiffops").glob("*.py"))
        for line, name in unreferenced_privates(trees, path)
    ]
    assert not found, "defined but never named elsewhere:\n" + "\n".join(found)


def test_private_scan_sees_unreferenced_definitions():
    trees = {
        "a": ast.parse(
            "def _used():\n    pass\n\ndef _self_only():\n    return _self_only()\n\n"
            "class _Gone:\n    pass\n\ndef __dir__():\n    pass\n"
        ),
        "b": ast.parse("from a import _used\n"),
    }
    assert unreferenced_privates(trees, "a") == [(4, "_self_only"), (7, "_Gone")]
