"""Tensor product decomposition by character arithmetic.

The product of two characters is again a non-negative integer combination of
irreducible characters.  The decomposition peels summands greedily: among
the remaining monomials whose exponent row is dominant, the maximal one
under graded lexicographic order on *root-basis* coordinates is a genuine
highest weight of the remainder (that order refines the dominance order,
which graded-lex on weight coordinates does not once a node of the diagram
has three neighbours).  Its coefficient is the exact multiplicity.

Every intermediate coefficient must stay non-negative; a negative value
means an upstream bug and raises IntegrityError rather than being patched.
"""

from __future__ import annotations

from functools import cache

from . import linalg, weylgroup
from .algebra import WeightVec, _require_dominant_integral
from .characters import character
from .errors import IntegrityError
from .frozen import Frozen


class Decomposition(Frozen):
    __slots__ = (
        "algebra",    # Algebra
        "left",       # weight coords
        "right",      # weight coords
        "summands",   # ((weight coords, multiplicity), ...) in peel order
    )

    def __init__(self, algebra, left, right, summands):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "summands", summands)

    def as_dict(self):
        return dict(self.summands)

    @property
    def total_dimension(self):
        a = self.algebra
        return sum(
            mult * weylgroup.weyl_dimension(a, WeightVec.weight(w))
            for w, mult in self.summands
        )


def _root_key(a, e):
    # root coordinates times cartan_det > 0, which keeps their order
    n = linalg.vec_mat(e, a.cartan_adjugate)
    return (sum(n), n)


def tensor_decompose(a, left, right, method="gamma"):
    """Decompose the tensor product of two irreducible modules.

    left and right are highest weights (WeightVec or coordinate rows).
    Summands come out in peel order: descending graded-lex on root-basis
    coordinates, a linear extension of dominance.  Method "gamma" reads the
    process-wide table; with method "weyl" the Weyl group is generated once
    here and passed on to every character computation.
    """
    if not isinstance(left, WeightVec):
        left = WeightVec.weight(tuple(left))
    if not isinstance(right, WeightVec):
        right = WeightVec.weight(tuple(right))
    lm = _require_dominant_integral(a, left, what="left highest weight")
    rm = _require_dominant_integral(a, right, what="right highest weight")

    group = weylgroup.generate(a) if method == "weyl" else None

    @cache  # left, right and the peeled tops may coincide
    def char(m):
        return character(a, m, method, group=group).poly

    product = char(lm) * char(rm)
    remainder = dict(product.terms)
    summands = []
    while remainder:
        dominant = [e for e in remainder if all(x >= 0 for x in e)]
        if not dominant:
            raise IntegrityError(
                "tensor remainder has no dominant monomial but is nonzero"
            )
        top = max(dominant, key=lambda e: _root_key(a, e))
        mult = remainder[top]
        if mult <= 0:
            raise IntegrityError(
                f"tensor peeling met multiplicity {mult} at {top}; "
                "coefficients must stay positive"
            )
        summands.append((top, mult))
        for e, c in char(top).terms.items():
            s = remainder.get(e, 0) - mult * c
            if s > 0:
                remainder[e] = s
            elif s == 0:
                remainder.pop(e, None)
            else:
                raise IntegrityError(
                    f"tensor peeling drove the coefficient at {e} below zero"
                )
    return Decomposition(
        algebra=a, left=lm, right=rm, summands=tuple(summands)
    )
