"""No module under src/intdiffops/ writes into `Mat.data`: every matrix the
package makes is built from its entries or its integer rows."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "intdiffops"


def data_writes(source: str):
    """Line numbers of the assignments into <expr>.data[...] in the source,
    as plain, augmented, annotated or unpacking targets."""

    def writes(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(writes(t) for t in target.elts)
        if isinstance(target, ast.Starred):
            return writes(target.value)
        if not isinstance(target, ast.Subscript):
            return False
        while isinstance(target, ast.Subscript):
            target = target.value
        return isinstance(target, ast.Attribute) and target.attr == "data"

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(writes(t) for t in targets):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_data_writes_in_the_package():
    sites = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in data_writes(path.read_text(encoding="utf-8"))
    ]
    assert not sites, "Mat.data written at " + ", ".join(sites)


def test_scan_finds_writes_not_reads():
    source = (
        "m.data[0][1] = x\n"
        "y = m.data[0][1]\n"
        "a.data[i] = b.data[j] = row\n"
        "m._data[0][0] = x\n"
        "m.data += [row]\n"
        "m.data[0][0] += x\n"
        "p, q.data[0][0] = 1, 2\n"
        "f(m).data[k] = 0\n"
        "m.data = rows\n"
    )
    assert data_writes(source) == [1, 3, 6, 7, 8]
