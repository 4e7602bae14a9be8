"""Characters of irreducible highest-weight modules.

A character is computed from the Weyl denominator A_rho alone, by Racah's
recursion.  Comparing the coefficients of e^(mu + rho) in
chi_lambda A_rho = A_(lambda + rho) (Humphreys, Introduction to Lie Algebras
and Representation Theory, section 24) gives, for every dominant mu other
than lambda,

    m(mu) = - sum over w != 1 of sgn(w) m(dom(mu + rho - w rho)),

where dom is the dominant representative of a Weyl orbit.  Only the w with
rho - w rho <= lambda - mu in the root order contribute, so the recursion
keeps the shifts no deeper than the deepest lambda - mu, and each mu reads
those below lambda - mu.  Each dominant multiplicity is spread over its orbit
as it is found, so m(mu + rho - w rho) is one read of the W-invariant map
built so far, with no reduction to dom.  That map is the coefficient map of
the character: exponent rows are weight-basis coordinates of the weights of
the module.

Two construction routes exist for the shifts and must agree: "gamma" reads
them off the per-algebra table, "weyl" sums A_rho over the enumerated group.
The recursion itself is route-independent.  Every multiplicity must come out
positive and their sum must equal the Weyl dimension; otherwise
IntegrityError is raised, as a corrupted A_rho would cause.
"""

from functools import lru_cache
from math import gcd
from operator import add, le

from .algebra import (
    WeightVec,
    _dominant_weights_below,
    _require_dominant_integral,
    _root_key,
    _root_row,
    _spread_orbit,
    weyl_dimension,
)
from .errors import InputError, IntegrityError
from .frozen import Frozen
from .laurent import LaurentPoly
from .linalg import vec_mat

METHODS = ("gamma", "weyl")


class CharacterResult(Frozen):
    __slots__ = (
        "algebra",          # Algebra
        "highest_weight",   # WeightVec
        "poly",             # LaurentPoly; exponent rows are weight-basis coords
        "dimension",        # int
        "method",           # str
    )

    def __repr__(self):
        coords = list(self.highest_weight.coords)
        return (
            f"CharacterResult({self.algebra.name}, {coords}, "
            f"dim={self.dimension})"
        )


def character(a, weight, method="gamma"):
    """Character of the irreducible module with the given highest weight.

    weight may be a WeightVec or a row of weight-basis coordinates.  Method
    "gamma" reads the terms of A_rho from the process-wide table, "weyl" sums
    them over a Weyl group generated for the call.  The result is cached per
    (algebra, weight, method).
    """
    if not isinstance(weight, WeightVec):
        weight = WeightVec.weight(tuple(weight))
    m = _require_dominant_integral(a, weight, what="highest weight")
    if method not in METHODS:
        raise InputError(
            f"unknown method {method!r}; expected one of {METHODS}"
        )
    return _character_cached(a, m, method)


@lru_cache(maxsize=None)
def _character_cached(a, m, method):
    if method == "gamma":
        from . import tables  # only this route reads the table

        shifts = tables.rho_shifts(tables.shared_table(a))
    else:
        from . import weylgroup  # only this route enumerates the group

        zero = WeightVec.weight((0,) * a.rank)
        shifts = [
            (_root_row(a, [1 - x for x in e]), sign)
            for e, sign in weylgroup.alternant_direct(a, zero).terms.items()
        ]
    highest = WeightVec.weight(m)
    terms = _racah(a, _dominant_weights_below(a, m), shifts)
    dimension = sum(terms.values())
    if dimension != weyl_dimension(a, highest):
        raise IntegrityError(
            f"character of {a.name} at {m} has dimension {dimension}, "
            "not the Weyl dimension"
        )
    return CharacterResult(
        algebra=a,
        highest_weight=highest,
        poly=LaurentPoly._raw(a.rank, terms),
        dimension=dimension,
        method=method,
    )


def _racah(a, below, shifts):
    """The full weight map of the module whose descent is below, by Racah's
    recursion on the pairs (root row of rho - w rho, sgn w), kept where the
    row is nonzero and no deeper than reach, the componentwise maximum of
    the depths.  The weights come in order of increasing depth, and each
    multiplicity is spread over its orbit once it is found.  dom(mu + s)
    lies strictly higher than mu, so the orbit of mu + s is in the map when
    mu is reached; a weight missing from the map is no weight of the module
    and counts 0.
    """
    reach = [max(col) for col in zip(*[depth for _, depth in below])]
    kept = [
        (root, vec_mat(root, a.cartan), sign)
        for root, sign in shifts
        if any(root) and all(map(le, root, reach))
    ]
    full = {}
    for mu, depth in below:
        acc = 0 if any(depth) else 1   # m(top) = 1: no kept row is <= 0
        for root, row, sign in kept:
            if all(map(le, root, depth)):
                acc -= sign * full.get(tuple(map(add, mu, row)), 0)
        if acc <= 0:
            raise IntegrityError("character has a non-positive multiplicity")
        _spread_orbit(full, a.cartan, mu, acc)
    return full


def multiplicities(result):
    """Weight-to-multiplicity map of a character.

    Keys are weight-basis coordinate rows; this is exactly the coefficient
    map of the character polynomial.
    """
    return dict(result.poly.terms)


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


def present_alpha_basis(result):
    """Root-basis string form of a character (x, y at rank 2, else u_i).

    One formal exponential per variable: for rank 2 the monomial e^(p a_1 +
    q a_2) prints as x^p y^q.  The terms run down from the highest root-basis
    row (_root_key), whose rows are cartan_det times the root coordinates.
    """
    a = result.algebra
    names = alpha_variables(a.rank)
    det = a.cartan_det
    chunks = []
    ranked = sorted([(_root_key(a, e), c) for e, c in result.poly.terms.items()])
    for (_, exps), coeff in reversed(ranked):
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
