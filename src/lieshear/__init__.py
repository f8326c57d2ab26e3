"""Exact exterior calculus on Lie algebra duals, twist/shear constructions,
structure transfer, and geometric structure checks — all over the rationals.

Importing the package loads none of its submodules: each public name loads
its home submodule on first use (PEP 562), and `lieshear.<submodule>` loads
that submodule, so a caller pays only for the layers it touches.
"""

import importlib

# Each public name and the submodule that defines it, in `__all__` order.
_HOMES = {
    "KForm": "exterior",
    "Vector": "exterior",
    "wedge": "exterior",
    "interior": "exterior",
    "hodge_star_orthonormal": "exterior",
    "pullback": "exterior",
    "LieAlgebra": "lie",
    "parse_salamon": "lie",
    "print_salamon": "lie",
    "SalamonError": "lie",
    "JacobiReport": "lie",
    "SeriesReport": "lie",
    "Filtration": "lie",
    "EigenSpace": "lie",
    "ShearLineError": "lie",
    "ShearLineReport": "lie",
    "ShearData": "shear",
    "ShearBase": "shear",
    "ShearDataError": "shear",
    "ShearReport": "shear",
    "InvalidShearError": "shear",
    "TwistError": "shear",
    "decompose_dalpha": "shear",
    "validate_shear": "shear",
    "apply_shear": "shear",
    "shear_candidate": "shear",
    "apply_twist": "shear",
    "ds_form": "shear",
    "is_automorphic": "shear",
    "invert_shear": "shear",
    "Metric": "geometry",
    "ComplexStructure": "geometry",
    "NijenhuisResult": "geometry",
    "KahlerReport": "geometry",
    "HalfFlatReport": "geometry",
    "PhiStabilityReport": "geometry",
    "is_closed": "geometry",
    "symplectic_check": "geometry",
    "nijenhuis": "geometry",
    "type_components": "geometry",
    "kahler_check": "geometry",
    "half_flat_check": "geometry",
    "g2_cocal_check": "geometry",
    "phi_stability": "geometry",
    "preserves_closure": "geometry",
    "SearchSpec": "search",
    "SearchHit": "search",
    "SearchSpaceError": "search",
    "SearchSpecError": "search",
    "enumerate_f0": "search",
}
_SUBMODULES = ("_value", "cli", "exterior", "geometry", "lie", "linalg", "literals", "search", "shear")

__all__ = list(_HOMES)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Load a public name's home submodule, or a submodule itself, on first use.

    A public name is then kept in the package globals, so later reads are
    plain attribute reads; importing a submodule binds it on the package.
    """
    if name in _HOMES:
        value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
