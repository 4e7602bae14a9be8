"""Exact characters of irreducible representations of simple Lie algebras.

The package computes the alternants of the classical character formula two
independent ways: by reconstructing them from a once-per-algebra table of
root-lattice vectors, and by summing over the enumerated Weyl group.  A
character is read off the denominator alternant alone, by Racah's
recursion, with no division.  All arithmetic is exact (integers and
fractions), and the two routes are cross-checked against each other,
against the Freudenthal multiplicity recursion, and against the Weyl
dimension formula.

Importing the package loads none of its modules.  Each public name below is
imported from its module the first time it is used (PEP 562), so a caller
compiles and runs only the modules it needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it provides
_EXPORTS = {
    "algebra": (
        "Algebra",
        "WeightVec",
        "bilinear",
        "build_algebra",
        "dominant_reduce",
        "is_dominant",
        "orbit",
        "parse_algebra",
        "reflect",
        "to_basis",
        "weyl_dimension",
        "weyl_order",
    ),
    "characters": (
        "CharacterResult",
        "character",
        "multiplicities",
        "present_alpha_basis",
    ),
    "errors": (
        "EnvelopeError",
        "InputError",
        "IntegrityError",
        "WeylcharError",
    ),
    "laurent": ("LaurentPoly",),
    "tables": (
        "AlternantTable",
        "alternant",
        "build_table",
        "exponent_forms",
        "orbit_drops",
    ),
    "tensor": ("Decomposition", "tensor_decompose"),
    "verify": ("check_signatures_by_expansion",),
    "weylgroup": (
        "WeylGroup",
        "alternant_direct",
        "freudenthal_multiplicities",
        "generate",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
