"""Characters of irreducible highest-weight modules.

A character is the exact Laurent-polynomial quotient of the alternant built
at the highest weight by the Weyl denominator.  By Weyl's denominator
identity that denominator is e^rho prod_(a > 0) (1 - e^-a) =
e^-rho prod_(a > 0) (e^a - 1), so the numerator is divided by one binomial
e^a - 1 per positive root and the quotient translated by rho; the
denominator alternant is never built.  Exponent rows of the quotient are
weight-basis coordinates of genuine weights of the module, so the
coefficient map *is* the multiplicity map with no re-centering left to the
caller.

Two construction routes exist for the numerator and must agree: "gamma"
reconstructs it from the per-algebra table, "weyl" sums over the enumerated
group.  The division itself is route-independent.
"""

from functools import lru_cache
from math import gcd

from . import linalg, tables
from .algebra import WeightVec, _require_dominant_integral
from .errors import InputError, IntegrityError
from .frozen import Frozen
from .laurent import LaurentPoly, divide_by_binomials

METHODS = ("gamma", "weyl")


class CharacterResult(Frozen):
    __slots__ = (
        "algebra",          # Algebra
        "highest_weight",   # WeightVec
        "poly",             # LaurentPoly; exponent rows are weight-basis coords
        "dimension",        # int
        "method",           # str
    )

    def __init__(self, algebra, highest_weight, poly, dimension, method):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "highest_weight", highest_weight)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "method", method)

    def __repr__(self):
        coords = list(self.highest_weight.coords)
        return (
            f"CharacterResult({self.algebra.name}, {coords}, "
            f"dim={self.dimension})"
        )


def divide_by_denominator(a, num):
    """Exact quotient of an alternant by the Weyl denominator of a.

    Divides by e^a - 1 for each positive root a, highest roots first (ties
    in descending root coordinates), then multiplies by e^rho.  The order is
    fixed because it keeps the intermediate quotients small (F4 at
    (0,0,0,1): at most 3588 terms, against 8766 lowest roots first).  A
    numerator that is not divisible raises NotDivisibleError, an
    IntegrityError.
    """
    quotient = divide_by_binomials(num, reversed(a.positive_roots_weight))
    return quotient.translate((1,) * a.rank)


def character(a, weight, method="gamma"):
    """Character of the irreducible module with the given highest weight.

    weight may be a WeightVec or a row of weight-basis coordinates.  Method
    "gamma" reads the process-wide table, "weyl" sums over a Weyl group
    generated for the call.  The result is cached per (algebra, weight,
    method).
    """
    if not isinstance(weight, WeightVec):
        weight = WeightVec.weight(tuple(weight))
    m = _require_dominant_integral(a, weight, what="highest weight")
    return _character_cached(a, m, method)


@lru_cache(maxsize=None)
def _character_cached(a, m, method):
    if method == "gamma":
        num = tables.alternant(tables.shared_table(a), WeightVec.weight(m))
    elif method == "weyl":
        from . import weylgroup  # only this route enumerates the group

        num = weylgroup.alternant_direct(a, WeightVec.weight(m))
    else:
        raise InputError(
            f"unknown method {method!r}; expected one of {METHODS}"
        )
    poly = divide_by_denominator(a, num)
    top = poly.coeff(m)
    if top != 1:
        raise IntegrityError(
            f"character of {a.name} at {m} has coefficient {top} at its "
            "highest weight; expected exactly 1"
        )
    if any(c <= 0 for c in poly.terms.values()):
        raise IntegrityError("character has a non-positive multiplicity")
    return CharacterResult(
        algebra=a,
        highest_weight=WeightVec.weight(m),
        poly=poly,
        dimension=poly.eval_ones(),
        method=method,
    )


def multiplicities(result):
    """Weight-to-multiplicity map of a character.

    Keys are weight-basis coordinate rows; this is exactly the coefficient
    map of the character polynomial.
    """
    return dict(result.poly.terms)


def _scaled_root_terms(a, poly):
    """Terms of poly with root-basis exponent rows scaled by cartan_det.

    A weight-basis row e has root-basis row e @ cartan_adjugate / cartan_det;
    this returns the integer rows e @ cartan_adjugate, which order the terms
    as the root-basis rows do since cartan_det > 0.  Sorted descending by
    total degree then lexicographically.
    """
    return sorted(
        (
            (linalg.vec_mat(e, a.cartan_adjugate), c)
            for e, c in poly.terms.items()
        ),
        key=lambda t: (sum(t[0]), t[0]),
        reverse=True,
    )


def alpha_variables(rank):
    """Variable names for root-basis rendering; the rank-2 case reads x, y."""
    if rank == 1:
        return ("u",)
    if rank == 2:
        return ("x", "y")
    return tuple(f"u{i + 1}" for i in range(rank))


def _fmt_exponent(n, det):
    """The exponent n / det in lowest terms, parenthesised when not whole."""
    g = gcd(n, det)
    if g == det:
        return str(n // det)
    return f"({n // g}/{det // g})"


def render_root_basis(a, poly):
    """Human-readable root-basis rendering of a Laurent polynomial.

    One formal exponential per variable: for rank 2 the monomial e^(p a_1 +
    q a_2) prints as x^p y^q.
    """
    if poly.is_zero():
        return "0"
    names = alpha_variables(a.rank)
    det = a.cartan_det
    chunks = []
    for exps, coeff in _scaled_root_terms(a, poly):
        factors = []
        for name, n in zip(names, exps):
            if n == 0:
                continue
            if n == det:
                factors.append(name)
            else:
                factors.append(f"{name}^{_fmt_exponent(n, det)}")
        mag = abs(coeff)
        body = " ".join(factors) if factors else "1"
        if mag != 1 or not factors:
            body = f"{mag} {body}" if factors else str(mag)
        chunks.append(("+" if coeff > 0 else "-", body))
    sign, first = chunks[0]
    text = f"-{first}" if sign == "-" else first
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text


def present_alpha_basis(result):
    """Root-basis string form of a character (x, y at rank 2, else u_i)."""
    return render_root_basis(result.algebra, result.poly)


def alpha_basis_terms(result):
    """Structured root-basis terms of a character, for exact comparisons.

    Each exponent row holds ints where the division by cartan_det is exact
    and Fractions elsewhere, which happens whenever the weight and root
    lattices differ.
    """
    from fractions import Fraction

    det = result.algebra.cartan_det
    return [
        (tuple([Fraction(x, det) if x % det else x // det for x in n]), c)
        for n, c in _scaled_root_terms(result.algebra, result.poly)
    ]
