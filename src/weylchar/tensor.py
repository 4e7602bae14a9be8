"""Tensor product decomposition by the Brauer–Klimyk formula.

Only the character of the smaller factor (by Weyl dimension) is computed.
For each of its weights nu with multiplicity m, the vector lambda + nu + rho
(lambda the other highest weight) is reflected into the dominant chamber.  A
result with a zero coordinate lies on a wall and contributes nothing;
otherwise the result minus rho receives +m or -m, by the parity of the
reflections made (Humphreys, Introduction to Lie Algebras and Representation
Theory, section 24).  The net coefficients are the multiplicities of the
irreducible summands.

Every net coefficient must come out non-negative; a negative value means an
upstream bug and raises IntegrityError rather than being patched.
"""

from .algebra import (
    WeightVec,
    _dominant_coords,
    _require_dominant_integral,
    _root_key,
    weyl_dimension,
)
from .characters import character
from .errors import IntegrityError
from .frozen import Frozen


class Decomposition(Frozen):
    __slots__ = (
        "algebra",    # Algebra
        "left",       # weight coords
        "right",      # weight coords
        "summands",   # ((weight coords, multiplicity), ...) in descending
                      # graded-lex order on root-basis coordinates
    )

    def as_dict(self):
        return dict(self.summands)


def tensor_decompose(a, left, right, method="gamma"):
    """Decompose the tensor product of two irreducible modules.

    left and right are highest weights (WeightVec or coordinate rows).  The
    character of the smaller factor is computed once, by method.  Summands
    come out in descending graded-lex order on root-basis coordinates, a
    linear extension of dominance.
    """
    if not isinstance(left, WeightVec):
        left = WeightVec.weight(tuple(left))
    if not isinstance(right, WeightVec):
        right = WeightVec.weight(tuple(right))
    lm = _require_dominant_integral(a, left, what="left highest weight")
    rm = _require_dominant_integral(a, right, what="right highest weight")

    small, big = lm, rm
    if weyl_dimension(a, left) > weyl_dimension(a, right):
        small, big = rm, lm
    shifted = tuple(x + 1 for x in big)  # lambda + rho
    cartan = a.cartan
    net = {}
    for nu, mult in character(a, small, method).poly.terms.items():
        top, steps = _dominant_coords(
            cartan, [x + y for x, y in zip(shifted, nu)]
        )
        if 0 in top:
            continue  # on a wall: fixed by a reflection, so it cancels
        w = tuple(x - 1 for x in top)
        net[w] = net.get(w, 0) + (-mult if steps % 2 else mult)
    summands = []
    for w, mult in net.items():
        if mult < 0:
            raise IntegrityError(
                f"tensor product has net multiplicity {mult} at {w}; "
                "multiplicities must be non-negative"
            )
        if mult:
            summands.append((w, mult))
    summands.sort(key=lambda t: _root_key(a, t[0]), reverse=True)
    return Decomposition(
        algebra=a, left=lm, right=rm, summands=tuple(summands)
    )
