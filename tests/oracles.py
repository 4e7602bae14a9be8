"""Independent exact oracles that the library itself no longer needs."""

from fractions import Fraction

from weylchar.characters import character
from weylchar.errors import IntegrityError
from weylchar.tensor import _root_key


def inverse_frac(m):
    """Exact inverse via Gauss-Jordan over Fraction.  Raises on singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            raise ZeroDivisionError("matrix is singular")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return tuple(tuple(row) for row in inv)


def peel_decompose(a, left, right, method="gamma"):
    """Tensor product summands by peeling the product of two characters.

    Among the remaining monomials whose exponent row is dominant, the
    maximal one under graded lexicographic order on *root-basis* coordinates
    is a genuine highest weight of the remainder (that order refines the
    dominance order, which graded-lex on weight coordinates does not once a
    node of the diagram has three neighbours).  Its coefficient is the exact
    multiplicity, and its character is subtracted that many times.  Every
    intermediate coefficient must stay non-negative.  Returns the
    ((weight coords, multiplicity), ...) summands in the order peeled.
    """
    def char(m):
        return character(a, m, method).poly

    remainder = dict((char(tuple(left)) * char(tuple(right))).terms)
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
    return tuple(summands)
