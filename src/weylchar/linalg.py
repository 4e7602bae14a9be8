"""Small exact linear algebra helpers on tuple-of-tuple matrices.

Row convention throughout: vectors are rows, and a matrix M acts on a row
vector v as v @ M.  Row i of M is the image of the i-th basis vector.
There is no matrix product: no table entry's map U^-1 is formed, and
weylgroup.generate applies each reflection row by row.
"""

from operator import mul


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def vec_mat(v, m):
    """Row vector times matrix."""
    return tuple([sum(map(mul, v, col)) for col in zip(*m)])


def det_int(m):
    """Determinant of an integer matrix, fraction-free Bareiss elimination."""
    n = len(m)
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]

