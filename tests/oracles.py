"""Independent exact oracles that the library itself no longer needs."""

import heapq
import itertools
from fractions import Fraction

from weylchar import linalg
from weylchar.algebra import WeightVec, _root_key, _root_row, bilinear
from weylchar.characters import character
from weylchar.errors import InputError, IntegrityError
from weylchar.laurent import LaurentPoly
from weylchar.tables import alternant


# the types the oracle suites cover, each small enough for every check
ORACLE_ALGEBRAS = [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "D5",
    "G2", "F4",
]


class NotDivisibleError(IntegrityError):
    """Exact polynomial division left a nonzero remainder."""


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


def _support_min(p):
    its = iter(p.terms)
    first = next(its)
    lo = list(first)
    for e in its:
        for k, x in enumerate(e):
            if x < lo[k]:
                lo[k] = x
    return tuple(lo)


def exact_div(num, den):
    """Exact quotient num / den in the Laurent ring over the integers.

    Generic long division under graded-lex order.  Both operands are shifted
    into the ordinary polynomial ring by their per-coordinate support minima;
    over an integral domain the support minimum of a product is the sum of
    the factors' minima, so the shifted quotient never needs negative
    exponents.  A nonzero remainder or a non-integral coefficient raises
    NotDivisibleError.
    """
    if not isinstance(num, LaurentPoly) or not isinstance(den, LaurentPoly):
        raise InputError("exact_div expects LaurentPoly operands")
    num._check(den)
    if den.is_zero():
        raise InputError("division by the zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero(num.rank)

    rank = num.rank
    r = range(rank)

    shift_num = _support_min(num)
    shift_den = _support_min(den)
    rem = {
        tuple(e[k] - shift_num[k] for k in r): c for e, c in num.terms.items()
    }
    den_terms = sorted(
        (
            (tuple(e[k] - shift_den[k] for k in r), c)
            for e, c in den.terms.items()
        ),
        key=lambda t: (sum(t[0]), t[0]),
        reverse=True,
    )
    lt_exp, lt_coeff = den_terms[0]
    tail = den_terms[1:]

    # max-heap by pushing negated grlex keys; lazy deletion of stale keys
    def hkey(e):
        return (-sum(e), tuple(-x for x in e))

    heap = [(hkey(e), e) for e in rem]
    heapq.heapify(heap)
    quotient = {}
    while heap:
        _, e = heapq.heappop(heap)
        c = rem.get(e)
        if c is None:
            continue  # stale entry
        del rem[e]
        q_exp = tuple(e[k] - lt_exp[k] for k in r)
        if any(x < 0 for x in q_exp) or c % lt_coeff != 0:
            raise NotDivisibleError(
                f"remainder has irreducible leading term at exponent {e}"
            )
        q_c = c // lt_coeff
        quotient[q_exp] = q_c
        for f, d in tail:
            key = tuple(q_exp[k] + f[k] for k in r)
            s = rem.get(key, 0) - q_c * d
            if s:
                if key not in rem:
                    heapq.heappush(heap, (hkey(key), key))
                rem[key] = s
            else:
                rem.pop(key, None)
    if rem:
        raise NotDivisibleError("division left a nonzero remainder")

    delta = tuple(shift_num[k] - shift_den[k] for k in r)
    return LaurentPoly._raw(
        rank, {tuple(e[k] + delta[k] for k in r): c for e, c in quotient.items()}
    )


def alternant_shifts(table):
    """The sorted pairs (root row of rho - w rho, sgn w) of the Weyl
    denominator: each term sgn(w) e^(w rho) of the table's alternant at
    weight zero gives rho - w rho, converted exactly to the root basis."""
    a = table.algebra
    den = alternant(table, WeightVec.weight((0,) * a.rank))
    return sorted(
        (_root_row(a, [1 - x for x in e]), sign) for e, sign in den.terms.items()
    )


def dominant_weights_in_box(a, top):
    """Dominant weights mu with top - mu in the non-negative root lattice.

    Scans the box of root-lattice depths c with c_i <= (top, l_i) / d_i and
    keeps the dominant results.  Returns (weight coords, depth coords) sorted
    by increasing depth height, then lexicographically.
    """
    r = a.rank
    lam = WeightVec.weight(top)
    bounds = []
    for i in range(r):
        cap = bilinear(a, lam, a.fundamental_weights[i]) / Fraction(a.root_norms[i], 2)
        bounds.append(int(cap))
    out = []
    for depth in itertools.product(*(range(b + 1) for b in bounds)):
        mu = tuple(
            top[k] - sum(depth[i] * a.cartan[i][k] for i in range(r))
            for k in range(r)
        )
        if all(x >= 0 for x in mu):
            out.append((mu, depth))
    out.sort(key=lambda t: (sum(t[1]), t[1]))
    return out


def root_string_positive_roots(cartan):
    """All positive roots in root-basis coordinates, built height by height.

    Uses the string property: for a root b and simple root a_j with p the
    length of the string below b, the string above has length p - <b, a_j*>.
    """
    r = len(cartan)
    roots = {tuple(1 if k == i else 0 for k in range(r)) for i in range(r)}
    level = sorted(roots)
    while level:
        nxt = []
        for n in level:
            m = linalg.vec_mat(n, cartan)  # weight coords of the root
            for j in range(r):
                p = 0
                probe = list(n)
                while True:
                    probe[j] -= 1
                    if probe[j] < 0 or tuple(probe) not in roots:
                        break
                    p += 1
                if p - m[j] >= 1:
                    up = list(n)
                    up[j] += 1
                    t = tuple(up)
                    if t not in roots:
                        roots.add(t)
                        nxt.append(t)
        level = sorted(set(nxt))
    return sorted(roots, key=lambda n: (sum(n), n))


def walked_orbit_drops(a, i):
    """Root rows of l_i - mu over the orbit of l_i, sorted by height then lex.

    Walks the orbit downwards from l_i and carries the root coordinates
    along: reflecting mu in a_j subtracts mu_j a_j, so it adds mu_j > 0 to
    coordinate j of l_i - mu.  No change of basis is made.
    """
    cartan = a.cartan
    lam = a.fundamental_weights[i].coords
    depth = {lam: (0,) * a.rank}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for j, c in enumerate(mu):
                if c <= 0:
                    continue
                img = tuple([x - c * y for x, y in zip(mu, cartan[j])])
                if img not in depth:
                    n = list(depth[mu])
                    n[j] += c
                    depth[img] = tuple(n)
                    nxt.append(img)
        frontier = nxt
    return sorted(depth.values(), key=lambda n: (sum(n), n))


def weight_row_compatibility(a, cands):
    """The cross-condition sets of tables._compatibility, on weight rows.

    For each candidate g of slot i, takes the weight row v of l_i - g and
    its image under gram_weight_scaled, the form on weight rows times
    cartan_det.  compat[(i, j)][x] is the frozenset of indices y of slot j
    with (l_i - g_x, l_j - g_y) = (l_i, l_j), and compat[(j, i)] holds the
    same pairs the other way round.
    """
    r = a.rank
    vrows = []
    grows = []
    for i in range(r):
        vs = []
        for g in cands[i]:
            gw = linalg.vec_mat(g.coords, a.cartan)
            vs.append(tuple([(1 if k == i else 0) - gw[k] for k in range(r)]))
        vrows.append(vs)
        grows.append([linalg.vec_mat(v, a.gram_weight_scaled) for v in vs])
    compat = {}
    for i in range(r):
        for j in range(i + 1, r):
            target = a.gram_weight_scaled[i][j]
            fwd = []
            back = [set() for _ in vrows[j]]
            for x, gv in enumerate(grows[i]):
                ok = frozenset(
                    y for y, v in enumerate(vrows[j])
                    if sum(p * q for p, q in zip(gv, v)) == target
                )
                fwd.append(ok)
                for y in ok:
                    back[y].add(x)
            compat[(i, j)] = fwd
            compat[(j, i)] = [frozenset(b) for b in back]
    return compat
