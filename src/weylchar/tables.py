"""Reconstruction tables for the character-formula numerator.

The numerator (alternant) of the character of a highest-weight module is
classically a signed sum over the whole Weyl group.  This module builds, once
per algebra, a table that reproduces that sum without ever enumerating the
group when reconstructing:

* For each slot i the candidate vectors are the differences l_i - mu with mu
  running over the Weyl orbit of the i-th fundamental weight l_i.  Each
  candidate lies in the positive root lattice and satisfies the diagonal
  quadratic condition (l_i - g, l_i - g) = (l_i, l_i) automatically.
* A table entry selects one candidate per slot such that all cross products
  match: (l_i - g_i, l_j - g_j) = (l_i, l_j).  The selections are found by
  backtracking over slots ordered by ascending candidate count, pruning with
  precomputed pairwise compatibility sets.
* Each entry determines a linear map U on weight space by U(l_i) = l_i - g_i.
  U is orthogonal with determinant +-1; the determinant is the entry's
  signature, and the entry's monomial for a dominant weight L is
  e^(U^-1(rho + L)), computed integrally in weight-basis coordinates.

The number of entries must equal the Weyl group order exactly; any excess or
deficit is reported as corruption rather than repaired.  Tables serialize to
a compact, checksummed JSON file.  Loading one revalidates every entry, so a
load costs about as much as a build (scripts/time_tables.py).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import lru_cache
from operator import mul

from . import linalg
from .algebra import (
    WeightVec,
    _require_dominant_integral,
    build_algebra,
    orbit,
    root_coords,
    weight_coords,
    weyl_order,
)
from .errors import EnvelopeError, InputError, IntegrityError, TableCacheError
from .frozen import Frozen
from .laurent import LaurentPoly
from .weylgroup import check_envelope

FORMAT_VERSION = 1
EXPANSION_MAX_ROOTS = 12
CACHE_DIR_ENV = "WEYLCHAR_CACHE_DIR"


def orbit_drops(a, i):
    """Candidate vectors for slot i: l_i - mu over the orbit of l_i.

    Returned in root-basis coordinates (always non-negative integers),
    sorted by height and then lexicographically.  The one-based position in
    this list is the index entries refer to.
    """
    if not 0 <= i < a.rank:
        raise InputError(f"slot {i} out of range for rank {a.rank}")
    lam = a.fundamental_weights[i]
    out = []
    for mu in orbit(a, lam):
        diff = tuple(x - y for x, y in zip(lam.coords, mu.coords))
        n = root_coords(a, WeightVec.weight(diff))
        if any(not isinstance(x, int) or x < 0 for x in n):
            raise IntegrityError(
                f"orbit difference {diff} is not in the positive root lattice"
            )
        out.append(n)
    out.sort(key=lambda n: (sum(n), n))
    return tuple(WeightVec.root(n) for n in out)


class TableEntry(Frozen):
    """One signed term of the reconstructed alternant.

    selector holds one-based candidate indices, slot by slot.  monomial_map
    is the integer weight-basis matrix of U^-1, so the exponent row for a
    dominant weight L is (rho + L) @ monomial_map.
    """

    __slots__ = ("selector", "signature", "monomial_map")

    def __init__(self, selector, signature, monomial_map):
        object.__setattr__(self, "selector", selector)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "monomial_map", monomial_map)


class AlternantTable(Frozen):
    __slots__ = (
        "algebra",      # Algebra
        "candidates",   # per slot: tuple of WeightVec (root basis)
        "entries",      # TableEntry, sorted by selector
    )

    def __init__(self, algebra, candidates, entries):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "entries", entries)

    @property
    def size(self):
        return len(self.entries)

    def __repr__(self):
        return f"AlternantTable({self.algebra.name}, entries={self.size})"


def _candidate_profiles(a, cands):
    """Weight rows of l_i - g and their scaled-Gram images, per slot."""
    r = a.rank
    vrows = []
    grows = []
    for i in range(r):
        vs = []
        gs = []
        for g in cands[i]:
            gw = weight_coords(a, g)
            v = tuple((1 if k == i else 0) - gw[k] for k in range(r))
            vs.append(v)
            gs.append(linalg.vec_mat(v, a.gram_weight_scaled))
        vrows.append(vs)
        grows.append(gs)
    return vrows, grows


def _entry_from_rows(a, selector, rows, grows):
    """Table entry of the map M with the given rows; grows are the rows of M S.

    Precondition: M satisfies the quadratic conditions M S M^T = S for the
    scaled Gram matrix S = a.gram_weight_scaled.  build_table's search and
    load_table's revalidation both establish them before calling here.  Then
    M^-1 = S M^T S^-1 = (adj(S) (M S))^T / det(S), which costs one integer
    matrix product and an exact division per entry.
    """
    m = tuple(rows)
    det = linalg.det_int(m)
    if det not in (1, -1):
        raise IntegrityError(
            f"entry {selector} does not define an orthogonal map (det {det})"
        )
    # row j of M^-1 is adj(S) times column j of M S, over det(S); adj(S) is
    # symmetric, so its rows serve as its columns
    inverse = []
    for col in zip(*grows):
        row = []
        for adj_row in a.gram_adjugate:
            q, rem = divmod(sum(map(mul, adj_row, col)), a.gram_det)
            if rem:
                raise IntegrityError(f"entry {selector} has no integral inverse")
            row.append(q)
        inverse.append(tuple(row))
    return TableEntry(
        selector=selector,
        signature=det,
        monomial_map=tuple(inverse),
    )


def build_table(a):
    """Assemble the full reconstruction table for one algebra.

    Deterministic output.  Raises EnvelopeError for groups past the supported
    size, and IntegrityError if the completed entry count differs from the
    classical Weyl group order in either direction.
    """
    expected = check_envelope(a)
    r = a.rank
    cands = tuple(orbit_drops(a, i) for i in range(r))
    vrows, grows = _candidate_profiles(a, cands)

    # pairwise compatibility: cross products must reproduce (l_i, l_j).
    # Stored in both directions so the search loop stays branch-free.
    slots_sorted = sorted(range(r), key=lambda i: (len(cands[i]), i))
    compat_dir = {}
    for ai in range(r):
        for bi in range(ai + 1, r):
            target = a.gram_weight_scaled[ai][bi]
            fwd = []
            back = [set() for _ in vrows[bi]]
            for x, gv in enumerate(grows[ai]):
                ok = frozenset(
                    y
                    for y, v in enumerate(vrows[bi])
                    if sum(p * q for p, q in zip(gv, v)) == target
                )
                fwd.append(ok)
                for y in ok:
                    back[y].add(x)
            compat_dir[(ai, bi)] = fwd
            compat_dir[(bi, ai)] = [frozenset(s) for s in back]

    entries = []
    choice = [0] * r

    def descend(level, domains):
        if level == r:
            selector = tuple(choice[i] + 1 for i in range(r))
            rows = [vrows[i][choice[i]] for i in range(r)]
            images = [grows[i][choice[i]] for i in range(r)]
            entries.append(_entry_from_rows(a, selector, rows, images))
            return
        slot = slots_sorted[level]
        rest = slots_sorted[level + 1 :]
        for idx in sorted(domains[slot]):
            choice[slot] = idx
            narrowed = {}
            dead = False
            for s in rest:
                nd = domains[s] & compat_dir[(slot, s)][idx]
                if not nd:
                    dead = True
                    break
                narrowed[s] = nd
            if not dead:
                descend(level + 1, narrowed)

    initial = {s: frozenset(range(len(cands[s]))) for s in slots_sorted}
    descend(0, initial)

    if len(entries) != expected:
        raise IntegrityError(
            f"table for {a.name} has {len(entries)} entries but |W| = {expected}; "
            "the quadratic conditions admit no repair, this is corruption"
        )
    entries.sort(key=lambda e: e.selector)
    return AlternantTable(algebra=a, candidates=cands, entries=tuple(entries))


@lru_cache(maxsize=None)
def shared_table(a):
    """Process-wide table per algebra (no disk involved)."""
    return build_table(a)


def alternant(table, weight):
    """Reconstruct the alternant for a dominant integral weight.

    Exactly one monomial per entry; for strictly dominant rho + weight the
    exponent rows are pairwise distinct, which is asserted.
    """
    a = table.algebra
    m = _require_dominant_integral(a, weight)
    vec = tuple(x + 1 for x in m)
    terms = {}
    for entry in table.entries:
        e = linalg.vec_mat(vec, entry.monomial_map)
        if e in terms:
            raise IntegrityError("table produced a repeated exponent row")
        terms[e] = entry.signature
    return LaurentPoly._raw(a.rank, terms)


def entry_exponents(table, entry, weight):
    """Root-basis exponent row of one entry's monomial, exact rationals.

    Equals 2 (l_i - g_i, rho + weight) / (a_i, a_i) coordinate by
    coordinate.
    """
    a = table.algebra
    m = _require_dominant_integral(a, weight)
    vec = tuple(x + 1 for x in m)
    e = linalg.vec_mat(vec, entry.monomial_map)
    return WeightVec.root(linalg.vec_mat(e, a.cartan_inv))


class AffineExponents(Frozen):
    """Symbolic exponent rows of one entry, affine in the weight coords s.

    Coordinate i of the root-basis exponent is
    constant[i] + sum_j s[j] * linear[j][i].
    """

    __slots__ = ("signature", "constant", "linear")

    def __init__(self, signature, constant, linear):
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "linear", linear)

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
    a = table.algebra
    out = []
    for entry in table.entries:
        mc = linalg.mat_mul(entry.monomial_map, a.cartan_inv)
        constant = linalg.vec_mat((1,) * a.rank, mc)
        out.append(
            AffineExponents(
                signature=entry.signature,
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


# ---------------------------------------------------------------------------
# disk cache

def default_cache_dir():
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "weylchar")


def table_cache_path(a, cache_dir=None):
    base = cache_dir if cache_dir is not None else default_cache_dir()
    return os.path.join(base, f"{a.name.lower()}.v{FORMAT_VERSION}.json")


def _payload(table):
    a = table.algebra
    return {
        "format_version": FORMAT_VERSION,
        "family": a.family,
        "rank": a.rank,
        "cartan": [list(row) for row in a.cartan],
        "candidates": [
            [list(g.coords) for g in slot] for slot in table.candidates
        ],
        "entries": [
            {"selector": list(e.selector), "signature": e.signature}
            for e in table.entries
        ],
    }


def _checksum(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def save_table(table, path=None, cache_dir=None):
    """Serialize a table, atomically (write to temp file, then rename)."""
    if path is None:
        path = table_cache_path(table.algebra, cache_dir)
    payload = _payload(table)
    payload["checksum"] = _checksum(payload)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    # compact separators keep json on its C encoder; indent would not
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(blob)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_table(path):
    """Load a serialized table, re-validating every invariant.

    Checks, in order: JSON shape, format version, checksum, algebra identity,
    candidate lists against freshly recomputed orbits, the full quadratic
    conditions and determinant signature of every entry, and the entry count
    against the classical group order.  Any failure raises TableCacheError.
    """
    try:
        with open(path, "r") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise TableCacheError(f"cannot read table cache {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TableCacheError(f"table cache {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise TableCacheError(f"table cache {path} has the wrong shape")

    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise TableCacheError(
            f"table cache {path} has format version {version!r}, "
            f"this build reads {FORMAT_VERSION}"
        )
    stored_sum = data.get("checksum")
    payload = {k: v for k, v in data.items() if k != "checksum"}
    if stored_sum != _checksum(payload):
        raise TableCacheError(f"table cache {path} fails its checksum")

    try:
        a = build_algebra(data["family"], data["rank"])
    except (KeyError, InputError) as exc:
        raise TableCacheError(f"table cache {path} names no valid algebra: {exc}") from exc
    if [list(row) for row in a.cartan] != data.get("cartan"):
        raise TableCacheError(
            f"table cache {path} carries a Cartan matrix that does not match {a.name}"
        )

    raw_c = data.get("candidates")
    fresh = tuple(orbit_drops(a, i) for i in range(a.rank))
    if (
        not isinstance(raw_c, list)
        or len(raw_c) != a.rank
        or [
            [list(g.coords) for g in slot] for slot in fresh
        ] != raw_c
    ):
        raise TableCacheError(
            f"table cache {path}: candidate lists disagree with the orbits of {a.name}"
        )

    vrows, grows = _candidate_profiles(a, fresh)
    raw_e = data.get("entries")
    if not isinstance(raw_e, list):
        raise TableCacheError(f"table cache {path}: entries missing")
    expected = weyl_order(a.family, a.rank)
    if len(raw_e) != expected:
        raise TableCacheError(
            f"table cache {path}: {len(raw_e)} entries, but |W({a.name})| = {expected}"
        )
    entries = []
    prev = None
    for rec in raw_e:
        try:
            selector = tuple(int(x) for x in rec["selector"])
            signature = int(rec["signature"])
        except (TypeError, KeyError, ValueError) as exc:
            raise TableCacheError(f"table cache {path}: malformed entry {rec!r}") from exc
        if len(selector) != a.rank or any(
            not 1 <= s <= len(fresh[i]) for i, s in enumerate(selector)
        ):
            raise TableCacheError(f"table cache {path}: selector {selector} out of range")
        if prev is not None and selector <= prev:
            raise TableCacheError(f"table cache {path}: entries not in canonical order")
        prev = selector
        rows = [vrows[i][selector[i] - 1] for i in range(a.rank)]
        images = [grows[i][selector[i] - 1] for i in range(a.rank)]
        for i, gv in enumerate(images):
            for j in range(i, a.rank):
                got = sum(p * q for p, q in zip(gv, rows[j]))
                if got != a.gram_weight_scaled[i][j]:
                    raise TableCacheError(
                        f"table cache {path}: entry {selector} violates the "
                        f"quadratic condition at slots ({i + 1}, {j + 1})"
                    )
        try:
            entry = _entry_from_rows(a, selector, rows, images)
        except IntegrityError as exc:
            raise TableCacheError(f"table cache {path}: {exc}") from exc
        if entry.signature != signature:
            raise TableCacheError(
                f"table cache {path}: entry {selector} stores signature "
                f"{signature} but the determinant is {entry.signature}"
            )
        entries.append(entry)
    return AlternantTable(algebra=a, candidates=fresh, entries=tuple(entries))


def load_or_build(a, cache_dir=None, write=True):
    """Load the cached table for a, building and caching it when absent."""
    path = table_cache_path(a, cache_dir)
    if os.path.exists(path):
        table = load_table(path)
        if table.algebra is not a:
            raise TableCacheError(
                f"table cache {path} is for {table.algebra.name}, not {a.name}"
            )
        return table
    table = build_table(a)
    if write:
        save_table(table, path)
    return table
