"""Every Hom space under src/intdiffops/ comes from `linalg.hom_space`: the
package constructs `BlockSystem` in exactly one place."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "intdiffops"


def constructions(source: str, name: str):
    """Line numbers of the calls name(...) in the source."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    )


def test_block_system_is_built_once():
    sites = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in constructions(path.read_text(encoding="utf-8"), "BlockSystem")
    ]
    assert len(sites) == 1, "BlockSystem constructed at " + ", ".join(sites)


def test_scan_counts_calls_not_names():
    source = "from x import B\nB(1)\ny = B\nz = [B(2), f(B)]\nx.B(3)\n"
    assert constructions(source, "B") == [2, 4, 5]
