"""Versioned JSON serialization with exact rational payloads.

Every document carries a `schema` field; keys are emitted sorted so that
serialized output is byte-identical across runs.  Scalars travel as exact
rational strings ("3/2", "1/2+3/4*i"); nothing is ever converted to floats.
The matrix and module readers import `linalg` and `modules` in their
bodies, so serializing operators loads neither.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, List

from .operators import Operator, term_sort_key
from .scalars import scalar_from_str

if TYPE_CHECKING:
    from .linalg import Mat
    from .modules import ModuleWindow, Orbit

OPERATOR_SCHEMA = "intdiffops.operator/1"
MODULE_SCHEMA = "intdiffops.module/1"
REPORT_SCHEMA = "intdiffops.report/1"


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(", ", ": "))


# -- matrices ---------------------------------------------------------------


def mat_to_json(m: Mat) -> List[List[str]]:
    return [[str(c) for c in row] for row in m.data]


def mat_from_json(rows: List[List[str]], cols_hint: int = 0) -> Mat:
    """Entries are scalar strings; bare JSON integers are also accepted."""
    from .linalg import Mat

    if not rows:
        return Mat(0, cols_hint)
    data = [
        [scalar_from_str(c if isinstance(c, str) else str(c)) for c in row]
        for row in rows
    ]
    return Mat(len(data), len(data[0]), data)


# -- operators --------------------------------------------------------------


def _slot_to_json(slot) -> dict:
    kind = slot[0]
    if kind == "H":
        return {"k": slot[1], "kind": "H"}
    if kind in ("D", "I"):
        return {"i": slot[1], "k": slot[2], "kind": kind}
    return {"kind": "E", "s": slot[1], "t": slot[2]}


def _slot_from_json(d: dict):
    kind = d["kind"]
    if kind == "H":
        return ("H", d["k"])
    if kind in ("D", "I"):
        return (kind, d["i"], d["k"])
    return ("E", d["s"], d["t"])


def operator_to_json(a: Operator) -> dict:
    terms = []
    for term in sorted(a.terms, key=term_sort_key):
        terms.append(
            {
                "coeff": str(a.terms[term]),
                "slots": [_slot_to_json(s) for s in term],
            }
        )
    return {"n": a.n, "schema": OPERATOR_SCHEMA, "terms": terms}


def operator_from_json(doc: dict) -> Operator:
    if doc.get("schema") != OPERATOR_SCHEMA:
        raise ValueError(f"unexpected operator schema {doc.get('schema')!r}")
    n = doc["n"]
    terms = {}
    for t in doc["terms"]:
        term = tuple(_slot_from_json(s) for s in t["slots"])
        terms[term] = scalar_from_str(t["coeff"])
    return Operator(n, terms)


# -- module windows ---------------------------------------------------------


def _point_key(p) -> str:
    return ",".join(str(x) for x in p)


def _point_from_key(key: str):
    return tuple(int(x) for x in key.split(","))


def orbit_to_json(orbit: Orbit) -> dict:
    return {
        "integer": list(orbit.integer),
        "reps": [str(r) for r in orbit.reps],
    }


def orbit_from_json(doc: dict) -> Orbit:
    from .modules import Orbit

    return Orbit(
        [scalar_from_str(r) for r in doc["reps"]],
        [bool(b) for b in doc["integer"]],
    )


def module_to_json(m: ModuleWindow) -> dict:
    maps = []
    for (kind, slot, p) in sorted(m.maps):
        mat = m.maps[(kind, slot, p)]
        maps.append(
            {
                "kind": kind,
                "matrix": mat_to_json(mat),
                "point": list(p),
                "shape": list(mat.shape),
                "slot": slot,
            }
        )
    return {
        "maps": maps,
        "orbit": orbit_to_json(m.orbit),
        "schema": MODULE_SCHEMA,
        "side": m.side,
        "spaces": {_point_key(p): d for p, d in sorted(m.spaces.items())},
        "window": [list(iv) for iv in m.window],
    }


def module_from_json(doc: dict) -> ModuleWindow:
    if doc.get("schema") != MODULE_SCHEMA:
        raise ValueError(f"unexpected module schema {doc.get('schema')!r}")
    from .modules import ModuleWindow

    orbit = orbit_from_json(doc["orbit"])
    window = [tuple(iv) for iv in doc["window"]]
    spaces = {_point_from_key(k): d for k, d in doc["spaces"].items()}
    maps = {}
    for entry in doc["maps"]:
        rows, cols = entry["shape"]
        mat = mat_from_json(entry["matrix"], cols)
        if mat.shape != (rows, cols):
            raise ValueError("matrix payload does not match its declared shape")
        maps[(entry["kind"], entry["slot"], tuple(entry["point"]))] = mat
    return ModuleWindow(orbit, window, spaces, maps, side=doc.get("side", "left"))
