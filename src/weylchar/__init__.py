"""Exact characters of irreducible representations of simple Lie algebras.

The package computes the numerator of the classical character formula two
independent ways: by reconstructing it from a once-per-algebra table of
root-lattice vectors, and by summing over the enumerated Weyl group.  All
arithmetic is exact (integers and fractions), and the two routes are
cross-checked against each other, against the Freudenthal multiplicity
recursion, and against the Weyl dimension formula.
"""

from .algebra import (
    Algebra,
    WeightVec,
    bilinear,
    build_algebra,
    dominant_reduce,
    is_dominant,
    orbit,
    parse_algebra,
    reflect,
    to_basis,
    weyl_order,
)
from .characters import (
    CharacterResult,
    character,
    multiplicities,
    present_alpha_basis,
)
from .errors import (
    EnvelopeError,
    InputError,
    IntegrityError,
    NotDivisibleError,
    WeylcharError,
)
from .laurent import LaurentPoly, exact_div
from .tables import (
    AlternantTable,
    alternant,
    build_table,
    check_signatures_by_expansion,
    entry_exponents,
    exponent_forms,
    orbit_drops,
)
from .tensor import Decomposition, tensor_decompose
from .weylgroup import (
    WeylGroup,
    alternant_direct,
    freudenthal_multiplicities,
    generate,
    weyl_dimension,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "AlternantTable",
    "CharacterResult",
    "Decomposition",
    "EnvelopeError",
    "InputError",
    "IntegrityError",
    "LaurentPoly",
    "NotDivisibleError",
    "WeightVec",
    "WeylGroup",
    "WeylcharError",
    "alternant",
    "alternant_direct",
    "bilinear",
    "build_algebra",
    "build_table",
    "character",
    "check_signatures_by_expansion",
    "dominant_reduce",
    "entry_exponents",
    "exact_div",
    "exponent_forms",
    "freudenthal_multiplicities",
    "generate",
    "is_dominant",
    "multiplicities",
    "orbit",
    "orbit_drops",
    "parse_algebra",
    "present_alpha_basis",
    "reflect",
    "tensor_decompose",
    "to_basis",
    "weyl_dimension",
    "weyl_order",
]
