"""Exact computer algebra for polynomial integro-differential operators.

The public names load on first access (PEP 562 `__getattr__`): `import
intdiffops` imports none of the library's layers, and the first read of a
name imports only the submodule that defines it, so a program on the
operator algebra never loads the module or classification layers.
"""

from importlib import import_module

__all__ = [
    "Scalar", "Field", "QQ", "QQI",
    "Operator", "principal_left_ideal_membership",
    "is_zero_by_action", "to_matrix",
    "DSet", "Fiber", "ModuleWindow", "Orbit",
    "annihilator_dset", "block_decompose", "build_Ms", "build_simple",
    "decompose_weight", "dualize", "fiber", "induce",
    "split_extension", "window_isomorphism",
    "BandOrbit", "KroneckerBlockLabel", "KroneckerRep",
    "band_module", "is_indecomposable",
    "kronecker_decompose", "kronecker_decompose_with_iso",
    "modules_isomorphic", "rep_type", "string_module",
]
__version__ = "0.1.0"

# the submodule that defines each public name
_HOMES = {
    "Scalar": "scalars", "Field": "scalars", "QQ": "scalars", "QQI": "scalars",
    "Operator": "operators", "principal_left_ideal_membership": "operators",
    "is_zero_by_action": "action", "to_matrix": "action",
    "DSet": "modules", "Fiber": "modules", "ModuleWindow": "modules", "Orbit": "modules",
    "annihilator_dset": "modules", "block_decompose": "modules", "build_Ms": "modules",
    "build_simple": "modules", "decompose_weight": "modules", "dualize": "modules",
    "fiber": "modules", "induce": "modules", "split_extension": "modules",
    "window_isomorphism": "modules",
    "BandOrbit": "classify", "KroneckerBlockLabel": "classify", "KroneckerRep": "classify",
    "band_module": "classify", "is_indecomposable": "classify",
    "kronecker_decompose": "classify", "kronecker_decompose_with_iso": "classify",
    "modules_isomorphic": "classify", "rep_type": "classify", "string_module": "classify",
}


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    # later reads find the name bound here, as an eager import would have left it
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
