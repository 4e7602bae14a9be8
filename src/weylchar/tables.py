"""Reconstruction tables for the character-formula numerator.

The numerator (alternant) of the character of a highest-weight module is
classically a signed sum over the whole Weyl group.  This module builds, once
per algebra, a table that reproduces that sum, and the shifts rho - w rho
that Racah's recursion reads, without enumerating the group:

* For each slot i the candidate vectors are the differences l_i - mu with mu
  running over the Weyl orbit of the i-th fundamental weight l_i.  Each
  candidate lies in the positive root lattice (one exact division turns the
  weight rows of algebra._orbit_rows into root rows) and satisfies the
  diagonal quadratic condition (l_i - g, l_i - g) = (l_i, l_i) automatically.
* A table entry selects one candidate per slot such that all cross products
  match: (l_i - g_i, l_j - g_j) = (l_i, l_j).  The selections are found by
  backtracking over the slots in order, pruning with pairwise compatibility
  sets computed on the candidates' root rows.
* Each entry determines a linear map U on weight space by U(l_i) = l_i - g_i:
  the Weyl group element w it stands for.  Its monomial for a dominant
  weight L is e^(U^-1(rho + L)); with g_i in coroot coordinates, scaled by
  1/d_i, as the rows h_i of H, U^-1 = I - H^T C for the Cartan matrix C.
  The rows h_i are derived from the candidates when needed, never kept.
* The table keeps each selector once, as a leaf of the trie of sorted
  selectors that the search writes as it finds them (selectors reads them
  back), and one sign det U = (-1)^l(w) per leaf, read off the pairings of
  U^-1 rho with the positive roots (_signatures): no determinant is taken,
  no map is stored.

The number of entries must equal the Weyl group order exactly; any excess or
deficit is reported as corruption rather than repaired.  Tables live in
memory only: shared_table builds each algebra's table once per process,
which takes milliseconds up to rank 5 (scripts/time_tables.py).
"""

import struct
from functools import lru_cache
from itertools import repeat
from operator import mul, sub, xor

from . import linalg
from .algebra import (
    WeightVec,
    _orbit_rows,
    _require_dominant_integral,
    _root_row,
    check_envelope,
    root_coords,
)
from .errors import EnvelopeError, InputError, IntegrityError
from .frozen import Frozen
from .laurent import LaurentPoly

_DIGIT = 64             # bits per coordinate in the packed rows of the trie walk
_HALF = 1 << (_DIGIT - 1)
EXPANSION_MAX_ROOTS = 12


def orbit_drops(a, i):
    """Candidate vectors for slot i: l_i - mu over the orbit of l_i.

    Returned in root-basis coordinates (always non-negative integers),
    sorted by height and then lexicographically.  The one-based position in
    this list is the index entries refer to.  The orbit comes from
    _orbit_rows, and _root_row converts each l_i - mu exactly.
    """
    if not 0 <= i < a.rank:
        raise InputError(f"slot {i} out of range for rank {a.rank}")
    lam = a.fundamental_weights[i].coords
    drops = [tuple(map(sub, lam, mu)) for mu in _orbit_rows(a.cartan, lam)]
    out = sorted(map(_root_row, repeat(a), drops), key=lambda n: (sum(n), n))
    return tuple(map(WeightVec.root, out))


class AlternantTable(Frozen):
    """The table of one algebra: candidates per slot and the |W| entries.

    levels is the trie of the sorted selectors, written by build_table's
    search and the only place the selectors are kept; signatures holds each
    entry's sign, +1 or -1, in the order of the trie's leaves.  No coroot
    row is kept: each is derived from its candidate (_slot_scalars).
    """

    __slots__ = (
        "algebra",      # Algebra
        "candidates",   # per slot: tuple of WeightVec (root basis)
        "levels",       # per slot: (parents, candidates) of the selector trie
        "signatures",   # +1 or -1 per entry, in leaf order
    )

    @property
    def size(self):
        return len(self.signatures)

    def __repr__(self):
        return f"AlternantTable({self.algebra.name}, entries={self.size})"


def _require_coroot_rows(a, cands):
    """Check that every candidate g of slot i has an integral coroot row h.

    With g = sum_k g_k a_k and d_k = (a_k, a_k) / 2, h_k = g_k d_k / d_i:
    the coordinates of (l_i - w l_i) / d_i in the simple coroots a_k / d_k.
    They are integers, because l_i / d_i is a fundamental coweight and w
    moves it by an element of the coroot lattice; so is every h . v, which
    _slot_scalars divides exactly.
    """
    for i, slot in enumerate(cands):
        for g in slot:
            if any(x * dk % a.d[i] for x, dk in zip(g.coords, a.d)):
                raise IntegrityError(
                    f"drop {g.coords} of slot {i + 1} has no integral coroot row"
                )


def _slot_scalars(a, cands, vec):
    """Per slot i and candidate g: h . vec for g's coroot row h, that is
    (g . (d o vec)) / d_i, exact once _require_coroot_rows has passed."""
    dv = list(map(mul, a.d, vec))
    return [
        [sum(map(mul, g.coords, dv)) // di for g in slot]
        for di, slot in zip(a.d, cands)
    ]


def _compatibility(a, cands):
    """Which candidates of two slots meet the cross quadratic condition.

    For i < j, compat[(i, j)][x] is the frozenset of indices y of slot j
    with (l_i - g_x, l_j - g_y) = (l_i, l_j).  As (l_i, g) = d_i g_i, that
    is (g_x, g_y) - d_i (g_y)_i = d_j (g_x)_j on the root rows, with the
    form gram_root.  Indices are zero-based.  The diagonal condition holds
    for every candidate, as each is l_i - w l_i.
    """
    r = a.rank
    compat = {}
    for i in range(r):
        forms = []
        for g in cands[i]:
            gx = list(linalg.vec_mat(g.coords, a.gram_root))
            gx[i] -= a.d[i]
            forms.append(gx)
        for j in range(i + 1, r):
            rows = [g.coords for g in cands[j]]
            targets = [a.d[j] * g.coords[j] for g in cands[i]]
            compat[(i, j)] = [
                frozenset(
                    y for y, gy in enumerate(rows) if sum(map(mul, gx, gy)) == t
                )
                for gx, t in zip(forms, targets)
            ]
    return compat


def selectors(levels):
    """The one-based selectors of a trie's leaves, rebuilt level by level."""
    prefix = [()]
    for parents, cands in levels:
        prefix = [prefix[p] + (c + 1,) for p, c in zip(parents, cands)]
    return prefix


def _pack(row):
    """One integer holding the coordinates of row as 64-bit digits."""
    return sum(x << (_DIGIT * k) for k, x in enumerate(row))


def _walk(levels, start, scalars, rows):
    """Packed rows of the trie's last level: start minus each path's shifts.

    Candidate c of slot k subtracts scalars[k][c] times rows[k], integer rows
    as wide as start.  A node's row is one subtraction of packed integers
    (_pack), shared by every selector through it.  Each coordinate e comes
    back as the 64-bit digit e + 2^63, whose top bit is clear exactly when
    e < 0 (_unpack decodes them).  Every coordinate along the way must fit a
    signed 64-bit digit, or an EnvelopeError is raised up front.
    """
    bound = max(map(abs, start)) + sum(
        max(map(abs, ts)) * max(map(abs, row)) for ts, row in zip(scalars, rows)
    )
    if bound >= _HALF:
        raise EnvelopeError(
            f"exponent rows may reach {bound}, past the signed 64-bit "
            "coordinates of the table walk"
        )
    shifts = [[t * p for t in ts] for ts, p in zip(scalars, map(_pack, rows))]
    out = [_pack([x + _HALF for x in start])]   # every digit non-negative
    for (parents, cands), shift in zip(levels, shifts):
        out = [out[p] - shift[c] for p, c in zip(parents, cands)]
    return out


def _unpack(rows, width):
    """The coordinate tuples of packed rows from _walk."""
    offset = _pack([_HALF] * width)
    # flipping the top bits back leaves each digit e in two's complement
    blob = b"".join(
        map(int.to_bytes, map(xor, rows, repeat(offset)),
            repeat(8 * width), repeat("little"))
    )
    flat = struct.unpack(f"<{len(rows) * width}q", blob)
    return list(zip(*[iter(flat)] * width))


def _signatures(a, levels, cands):
    """The sign of each entry of the selector trie, in leaf order.

    An entry stands for the Weyl group element U, whose sign det U is
    (-1)^l, where l counts the positive roots alpha with (U^-1 rho, alpha)
    < 0 (Humphreys, Reflection Groups and Coxeter Groups, 1.6-1.7).  As
    U^-1 rho = rho - sum_i (h_i . rho) a_i (alternant), one walk down the
    selector trie carries these pairings, one digit per positive root:
    (rho, alpha) minus (h_i . rho) (a_i, alpha) per slot, with rho the row
    (1, ..., 1) of weight coordinates (_slot_scalars).  l is the count of
    negative digits, one & and one bit_count per entry.

    The count needs U^-1 rho off every wall, as it is for a Weyl group
    element; a zero digit, which subtracting (1, ..., 1) turns negative,
    raises IntegrityError.  det U = +-1 needs no check of its own: the
    quadratic conditions of build_table's search make U orthogonal.
    """
    roots = [n.coords for n in a.positive_roots]
    npos = len(roots)
    rho = [sum(map(mul, n, a.d)) for n in roots]   # (rho, alpha)
    simple = [[sum(map(mul, row, n)) for n in roots] for row in a.gram_root]
    totals = _slot_scalars(a, cands, [1] * a.rank)
    top = _pack([_HALF] * npos)   # the top bit of every digit
    ones = _pack([1] * npos)
    signs = []
    for n, row in enumerate(_walk(levels, rho, totals, simple)):
        kept = (row & top).bit_count()   # digits >= 0
        if ((row - ones) & top).bit_count() != kept:
            raise IntegrityError(
                f"entry {selectors(levels)[n]} maps rho onto a wall; it is no "
                "Weyl group element"
            )
        signs.append(-1 if (npos - kept) & 1 else 1)
    return tuple(signs)


def build_table(a):
    """Assemble the full reconstruction table for one algebra.

    The search takes the slots in their natural order and each slot's
    candidates in increasing index, pruning the later slots' domains with
    the compatibility sets, so it meets the selectors sorted.  It writes
    the trie as it goes: at each selector found, the nodes of its path not
    yet in the trie.  Node n of level k extends node parents[n] of level
    k - 1 by the zero-based candidate candidates[n] of slot k; the last
    level has one node per selector.

    Deterministic output.  Raises EnvelopeError for groups past the supported
    size, and IntegrityError if the number of selectors found differs from
    the classical Weyl group order in either direction.
    """
    expected = check_envelope(a)
    r = a.rank
    cands = tuple(orbit_drops(a, i) for i in range(r))
    _require_coroot_rows(a, cands)
    compat = _compatibility(a, cands)
    levels = tuple(([], []) for _ in range(r))
    choice = [0] * r
    made = 0   # levels of the current path already in the trie

    def descend(k, domains):
        nonlocal made
        if k == r:
            for j in range(made, r):
                parents, nodes = levels[j]
                parents.append(len(levels[j - 1][0]) - 1 if j else 0)
                nodes.append(choice[j])
            made = r
            return
        for idx in sorted(domains[0]):
            choice[k] = idx
            made = min(made, k)
            narrowed = []
            for s, dom in enumerate(domains[1:], k + 1):
                nd = dom & compat[(k, s)][idx]
                if not nd:
                    break
                narrowed.append(nd)
            else:
                descend(k + 1, narrowed)

    descend(0, [frozenset(range(len(slot))) for slot in cands])

    found = len(levels[-1][0])
    if found != expected:
        raise IntegrityError(
            f"table for {a.name} has {found} entries but |W| = {expected}; "
            "the quadratic conditions admit no repair, this is corruption"
        )
    levels = tuple((tuple(p), tuple(c)) for p, c in levels)
    return AlternantTable(
        algebra=a,
        candidates=cands,
        levels=levels,
        signatures=_signatures(a, levels, cands),
    )


@lru_cache(maxsize=None)
def shared_table(a):
    """The table of a, built on first use and kept for the process.

    Every caller that does not pass its own table reads this one, so a
    process builds each algebra's table at most once.
    """
    return build_table(a)


def alternant(table, weight):
    """Reconstruct the alternant for a dominant integral weight.

    Exactly one monomial per entry; for strictly dominant rho + weight the
    exponent rows are pairwise distinct, which is asserted.  With v = rho +
    weight, the row of an entry is v @ (I - H^T C) = v - sum_i (h_i . v) C[i]
    (_monomial_map), so each candidate's shift (h . v) C[i] is computed once
    per call and the entries subtract theirs down the selector trie.  A weight
    so large that an exponent coordinate could pass 2^63 - 1 in absolute
    value is refused with EnvelopeError.
    """
    a = table.algebra
    m = _require_dominant_integral(a, weight)
    vec = tuple([x + 1 for x in m])
    dots = _slot_scalars(a, table.candidates, vec)
    rows = _unpack(_walk(table.levels, vec, dots, a.cartan), a.rank)
    terms = dict(zip(rows, table.signatures))
    if len(terms) != len(rows):
        raise IntegrityError("table produced a repeated exponent row")
    return LaurentPoly._raw(a.rank, terms)


def rho_shifts(table):
    """(root row of rho - U^-1 rho, sgn U) per entry U, in leaf order: its
    coordinate k is h_k . rho for the candidate U selects in slot k."""
    a = table.algebra
    scalars = _slot_scalars(a, table.candidates, (1,) * a.rank)
    rows = [()]
    for (parents, cands), ts in zip(table.levels, scalars):
        rows = [rows[p] + (ts[c],) for p, c in zip(parents, cands)]
    if len(set(rows)) != len(rows):
        raise IntegrityError("table produced a repeated row of rho - w rho")
    return list(zip(rows, table.signatures))


def _monomial_map(table, selector):
    """The integer weight-basis matrix U^-1 of one entry, from its selector.

    Row j of U^-1 is l_j - sum_i ((l_j, g_i) / d_i) a_i, that is
    U^-1 = I - H^T C, and H^T C is the sum over slots of the outer products
    h_i C[i], with h_i = g_i o d / d_i the coroot row of the candidate g_i
    (_require_coroot_rows).  The entry's exponent row for L is
    (rho + L) @ U^-1.
    """
    a = table.algebra
    m = [list(row) for row in linalg.identity(a.rank)]
    for slot, x, di, crow in zip(table.candidates, selector, a.d, a.cartan):
        for row, gk, dk in zip(m, slot[x - 1].coords, a.d):
            y = gk * dk // di
            for k, c in enumerate(crow):
                row[k] -= y * c
    return m


def entry_exponents(table, selector, weight):
    """Root-basis exponent row of one selector's monomial, exact rationals.

    Equals 2 (l_i - g_i, rho + weight) / (a_i, a_i) coordinate by
    coordinate.
    """
    a = table.algebra
    m = _require_dominant_integral(a, weight)
    vec = tuple(x + 1 for x in m)
    e = linalg.vec_mat(vec, _monomial_map(table, selector))
    return WeightVec.root(root_coords(a, WeightVec.weight(e)))


class AffineExponents(Frozen):
    """Symbolic exponent rows of one entry, affine in the weight coords s.

    Coordinate i of the root-basis exponent is
    constant[i] + sum_j s[j] * linear[j][i].
    """

    __slots__ = ("signature", "constant", "linear")

    def evaluate(self, s):
        r = len(self.constant)
        if len(s) != len(self.linear):
            raise InputError("wrong number of weight coordinates")
        coords = list(self.constant)
        for j, sj in enumerate(s):
            row = self.linear[j]
            for i in range(r):
                coords[i] += sj * row[i]
        return WeightVec.root(coords)

    def as_rows(self):
        """Per-coordinate view: (constant_i, coefficients over s)."""
        r = len(self.constant)
        return tuple(
            (self.constant[i], tuple(row[i] for row in self.linear))
            for i in range(r)
        )


def exponent_forms(table):
    """Symbolic alternant: one signed affine exponent row per entry.

    Substituting concrete coordinates reproduces alternant() exactly after
    the root-to-weight basis change.
    """
    from fractions import Fraction

    a = table.algebra
    out = []
    for selector, sign in zip(selectors(table.levels), table.signatures):
        mc = [
            [Fraction(x, a.cartan_det) for x in row]
            for row in linalg.mat_mul(_monomial_map(table, selector), a.cartan_adjugate)
        ]
        constant = linalg.vec_mat((1,) * a.rank, mc)
        out.append(
            AffineExponents(
                signature=sign,
                constant=tuple(constant),
                linear=tuple(tuple(row) for row in mc),
            )
        )
    return tuple(out)


def check_signatures_by_expansion(table):
    """Cross-validate every signature against the root-product expansion.

    Expands prod_(a > 0) (e^a - 1) times e^(-rho), which must equal the
    alternant at weight zero term by term.  Capped by the positive-root
    count; the product has at most 2^EXPANSION_MAX_ROOTS raw terms.
    """
    a = table.algebra
    npos = len(a.positive_roots)
    if npos > EXPANSION_MAX_ROOTS:
        raise EnvelopeError(
            f"{a.name} has {npos} positive roots; the expansion check is "
            f"capped at {EXPANSION_MAX_ROOTS}"
        )
    prod = LaurentPoly.one(a.rank)
    for aw in a.positive_roots_weight:
        factor = LaurentPoly(
            a.rank, {aw: 1, (0,) * a.rank: -1}
        )
        prod = prod * factor
    prod = prod.translate((-1,) * a.rank)  # divide by e^rho

    zero = WeightVec.weight((0,) * a.rank)
    reference = alternant(table, zero)
    if prod == reference:
        return True
    diff = prod - reference
    first = min(diff.terms, key=lambda e: (sum(e), e))
    raise IntegrityError(
        f"signature cross-check failed for {a.name}: expansion and table "
        f"disagree first at exponent row {first} "
        f"(expansion {prod.coeff(first)}, table {reference.coeff(first)})"
    )
