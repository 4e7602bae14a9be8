"""Reconstruction tables for the character-formula numerator.

The numerator (alternant) of the character of a highest-weight module is
classically a signed sum over the whole Weyl group.  This module builds, once
per algebra, a table that reproduces that sum without ever enumerating the
group when reconstructing:

* For each slot i the candidate vectors are the differences l_i - mu with mu
  running over the Weyl orbit of the i-th fundamental weight l_i.  Each
  candidate lies in the positive root lattice (one exact division turns the
  weight rows of algebra._orbit_rows into root rows) and satisfies the
  diagonal quadratic condition (l_i - g, l_i - g) = (l_i, l_i) automatically.
* A table entry selects one candidate per slot such that all cross products
  match: (l_i - g_i, l_j - g_j) = (l_i, l_j).  The selections are found by
  backtracking over slots ordered by ascending candidate count, pruning with
  precomputed pairwise compatibility sets.
* Each entry determines a linear map U on weight space by U(l_i) = l_i - g_i:
  the Weyl group element w it stands for.  Its monomial for a dominant
  weight L is e^(U^-1(rho + L)); with g_i in coroot coordinates, scaled by
  1/d_i, as the rows h_i of H, U^-1 = I - H^T C for the Cartan matrix C.
* The table keeps each selector once, as a leaf of the trie of sorted
  selectors (_selector_trie; selectors reads them back), and one sign
  det U = (-1)^l(w) per leaf, read off the pairings of U^-1 rho with the
  positive roots (_signatures): no determinant is taken, no map is stored.

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

    coroots holds the coroot row h of every candidate, slot by slot
    (_candidate_profiles).  levels is the trie of the sorted selectors
    (_selector_trie), the only place the selectors are kept; signatures
    holds each entry's sign, +1 or -1, in the order of the trie's leaves.
    """

    __slots__ = (
        "algebra",      # Algebra
        "candidates",   # per slot: tuple of WeightVec (root basis)
        "coroots",      # per slot: integer rows h, one per candidate
        "levels",       # per slot: (parents, candidates) of the selector trie
        "signatures",   # +1 or -1 per entry, in leaf order
    )

    @property
    def size(self):
        return len(self.signatures)

    def __repr__(self):
        return f"AlternantTable({self.algebra.name}, entries={self.size})"


def _candidate_profiles(a, cands):
    """Per slot i and candidate g: the weight row of l_i - g, its image under
    the scaled Gram matrix, and the coroot row h of g.

    With g = sum_k g_k a_k and d_k = (a_k, a_k) / 2, h_k = g_k d_k / d_i:
    the coordinates of (l_i - w l_i) / d_i in the simple coroots a_k / d_k.
    They are integers, because l_i / d_i is a fundamental coweight and w
    moves it by an element of the coroot lattice.
    """
    r = a.rank
    d = [n // 2 for n in a.root_norms]
    vrows = []
    grows = []
    hrows = []
    for i in range(r):
        vs = []
        gs = []
        hs = []
        for g in cands[i]:
            gw = linalg.vec_mat(g.coords, a.cartan)
            v = tuple([(1 if k == i else 0) - gw[k] for k in range(r)])
            vs.append(v)
            gs.append(linalg.vec_mat(v, a.gram_weight_scaled))
            h = [x * d[k] for k, x in enumerate(g.coords)]
            if any(y % d[i] for y in h):
                raise IntegrityError(
                    f"drop {g.coords} of slot {i + 1} has no integral coroot row"
                )
            hs.append(tuple([y // d[i] for y in h]))
        vrows.append(vs)
        grows.append(gs)
        hrows.append(tuple(hs))
    return vrows, grows, tuple(hrows)


def _compatibility(a, vrows, grows):
    """Which candidates of two slots meet the cross quadratic condition.

    For i != j, compat[(i, j)][x] is the frozenset of indices y of slot j
    with (l_i - g_x, l_j - g_y) = (l_i, l_j); both directions are stored.
    Indices are zero-based.  build_table searches these sets.  The diagonal
    condition holds for every candidate, as each is l_i - w l_i.
    """
    r = a.rank
    compat = {}
    for i in range(r):
        for j in range(i + 1, r):
            target = a.gram_weight_scaled[i][j]
            fwd = []
            back = [set() for _ in vrows[j]]
            for x, gv in enumerate(grows[i]):
                ok = frozenset(
                    y for y, v in enumerate(vrows[j])
                    if sum(map(mul, gv, v)) == target
                )
                fwd.append(ok)
                for y in ok:
                    back[y].add(x)
            compat[(i, j)] = fwd
            compat[(j, i)] = [frozenset(b) for b in back]
    return compat


def _selector_trie(found, r):
    """The trie of sorted zero-based selectors: a (parents, candidates) per slot.

    Node n of level k extends node parents[n] of level k - 1 by the
    zero-based candidate candidates[n] of slot k.  Consecutive selectors
    share the nodes of their common prefix, and the last level has one node
    per selector, in the same order.
    """
    parents = [[] for _ in range(r)]
    cands = [[] for _ in range(r)]
    prev = None
    for s in found:
        k = 0
        if prev is not None:
            while k < r - 1 and s[k] == prev[k]:
                k += 1
        for j in range(k, r):
            parents[j].append(len(parents[j - 1]) - 1 if j else 0)
            cands[j].append(s[j])
        prev = s
    return tuple(zip(map(tuple, parents), map(tuple, cands)))


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


def _signatures(a, levels, hrows):
    """The sign of each entry of the selector trie, in leaf order.

    An entry stands for the Weyl group element U, whose sign det U is
    (-1)^l, where l counts the positive roots alpha with (U^-1 rho, alpha)
    < 0 (Humphreys, Reflection Groups and Coxeter Groups, 1.6-1.7).  As
    U^-1 rho = rho - sum_i (h_i . rho) a_i (alternant), one walk down the
    selector trie carries these pairings, one digit per positive root:
    (rho, alpha) minus (sum h_i) (a_i, alpha) per slot.  l is the count of
    negative digits, one & and one bit_count per entry.

    The count needs U^-1 rho off every wall, as it is for a Weyl group
    element; a zero digit, which subtracting (1, ..., 1) turns negative,
    raises IntegrityError.  det U = +-1 needs no check of its own: the
    quadratic conditions of build_table's search make U orthogonal.
    """
    roots = [n.coords for n in a.positive_roots]
    npos = len(roots)
    d = [n // 2 for n in a.root_norms]
    rho = [sum(map(mul, n, d)) for n in roots]   # (rho, alpha)
    simple = [[sum(map(mul, row, n)) for n in roots] for row in a.gram_root]
    totals = [[sum(h) for h in hats] for hats in hrows]
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

    Deterministic output.  Raises EnvelopeError for groups past the supported
    size, and IntegrityError if the completed entry count differs from the
    classical Weyl group order in either direction.
    """
    expected = check_envelope(a)
    r = a.rank
    cands = tuple(orbit_drops(a, i) for i in range(r))
    vrows, grows, hrows = _candidate_profiles(a, cands)
    compat = _compatibility(a, vrows, grows)
    slots_sorted = sorted(range(r), key=lambda i: (len(cands[i]), i))

    found = []
    choice = [0] * r

    def descend(level, domains):
        if level == r:
            found.append(tuple(choice))
            return
        slot = slots_sorted[level]
        rest = slots_sorted[level + 1 :]
        for idx in sorted(domains[slot]):
            choice[slot] = idx
            narrowed = {}
            for s in rest:
                nd = domains[s] & compat[(slot, s)][idx]
                if not nd:
                    break
                narrowed[s] = nd
            else:
                descend(level + 1, narrowed)

    descend(0, {s: frozenset(range(len(cands[s]))) for s in slots_sorted})

    if len(found) != expected:
        raise IntegrityError(
            f"table for {a.name} has {len(found)} entries but |W| = {expected}; "
            "the quadratic conditions admit no repair, this is corruption"
        )
    found.sort()
    levels = _selector_trie(found, r)
    del found   # the trie holds every selector from here on
    return AlternantTable(
        algebra=a,
        candidates=cands,
        coroots=hrows,
        levels=levels,
        signatures=_signatures(a, levels, hrows),
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
    dots = [[sum(map(mul, h, vec)) for h in hats] for hats in table.coroots]
    rows = _unpack(_walk(table.levels, vec, dots, a.cartan), a.rank)
    terms = dict(zip(rows, table.signatures))
    if len(terms) != len(rows):
        raise IntegrityError("table produced a repeated exponent row")
    return LaurentPoly._raw(a.rank, terms)


def _monomial_map(table, selector):
    """The integer weight-basis matrix U^-1 of one entry, from its selector.

    Row j of U^-1 is l_j - sum_i ((l_j, g_i) / d_i) a_i, that is
    U^-1 = I - H^T C, and H^T C is the sum over slots of the outer products
    h_i C[i].  The entry's exponent row for L is (rho + L) @ U^-1.
    """
    a = table.algebra
    m = [list(row) for row in linalg.identity(a.rank)]
    for slot, x, crow in zip(table.coroots, selector, a.cartan):
        for row, y in zip(m, slot[x - 1]):
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
