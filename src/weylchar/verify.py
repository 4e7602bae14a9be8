"""The invariant suite of `weylchar verify`: the table against the Weyl-group
sum it replaces.

For one algebra and a depth N, the suite checks the table's size against
the group order, its candidate counts against the orbit sizes of the
enumerated group, and, at every dominant weight with coordinates up to N,
the table's alternant against the direct sum over the group and the
character against the Freudenthal recursion and the Weyl dimension.  Up to
EXPANSION_MAX_ROOTS positive roots it also expands the Weyl denominator as
a product over the positive roots and compares it with the table's
alternant at weight 0, term by term.

One envelope bounds a request: the work model _verify_work, capped at
VERIFY_MAX_WORK.  A request past it is refused with EnvelopeError before
any table, group or grid is made.
"""

from . import tables, weylgroup
from .algebra import WeightVec, _dominant_weights_below, weyl_order
from .characters import character, multiplicities
from .errors import EnvelopeError, IntegrityError
from .laurent import LaurentPoly

EXPANSION_MAX_ROOTS = 12
# the most work verify may take on, in the units of _verify_work; past the
# fixed cost of the group and the table, a unit took 0.9 to 1.5
# microseconds of a whole request at F4, D5 and A6 (depth 1), and 3.5 to 8.1
# at E6 (depth 0), where that fixed cost is three quarters of the request,
# on a 2-core machine
VERIFY_MAX_WORK = 5_000_000


def _grid(rank, depth):
    """The weights with rank coordinates from 0 to depth, in lexicographic
    order, one at a time: no range is held, however large the depth."""
    if rank == 0:
        yield ()
        return
    for head in range(depth + 1):
        for tail in _grid(rank - 1, depth):
            yield (head, *tail)


def _verify_work(a, depth):
    """The work verify --depth sets itself on a, counted until it passes
    VERIFY_MAX_WORK.

    A grid weight lam costs |W| for its two alternants, and then, for each
    dominant mu below lam, |W| (a bound on the orbit mu's multiplicity
    spreads over) plus N (1 + ht(lam - mu)) for the N positive roots, as
    Freudenthal walks up each root string from mu and none is longer than
    ht(lam - mu).  The dominant mu are the descent the character and
    Freudenthal both make; the grid is walked lazily, and the count stops
    as soon as it passes the budget.  On every supported type, the smallest
    grid of more than 4,096 weights already passes it, in at most 0.25 s
    on a 2-core machine (A2 at depth 64).
    """
    order = weyl_order(a.family, a.rank)
    npos = len(a.positive_roots)
    work = 0
    for coords in _grid(a.rank, depth):
        below = _dominant_weights_below(a, coords)
        work += order * (1 + len(below))
        work += npos * sum(1 + sum(dp) for _, dp in below)
        if work > VERIFY_MAX_WORK:
            break
    return work


def report(a, depth):
    """The (name, passed, detail) of each check of verify --depth on a.

    Raises EnvelopeError, before anything is made, when the work model
    passes VERIFY_MAX_WORK.
    """
    if _verify_work(a, depth) > VERIFY_MAX_WORK:
        raise EnvelopeError(
            f"verify --depth {depth} on {a.name} would take on more than "
            f"{VERIFY_MAX_WORK} units of work, past the verify envelope"
        )
    return list(_verify_checks(a, tables.shared_table(a), depth))


def _verify_checks(a, table, depth):
    """Run the invariant suite; yields (name, passed, detail)."""
    group = weylgroup.generate(a)
    expected = weyl_order(a.family, a.rank)

    yield (
        "entry-count-matches-group-order",
        table.size == expected == group.order,
        f"entries {table.size}, formula {expected}, enumerated {group.order}",
    )

    orbit_ok = True
    details = []
    for i in range(a.rank):
        n_orbit = len({m[i] for m in group.elements})  # images of l_i
        n_cand = len(table.candidates[i])
        details.append(f"slot {i + 1}: {n_cand}/{n_orbit}")
        if n_cand != n_orbit:
            orbit_ok = False
    yield ("candidate-counts-match-orbit-sizes", orbit_ok, ", ".join(details))

    grid = list(_grid(a.rank, depth))
    bad = None
    for coords in grid:
        w = WeightVec.weight(coords)
        if tables.alternant(table, w) != weylgroup.alternant_direct(a, w, group=group):
            bad = coords
            break
    yield (
        "alternant-routes-agree",
        bad is None,
        f"{len(grid)} weights at depth {depth}" if bad is None else f"first mismatch at {list(bad)}",
    )

    bad = None
    try:  # character() itself checks positivity and the Weyl dimension
        for coords in grid:
            ch = character(a, coords, method="gamma")
            want = weylgroup.freudenthal_multiplicities(a, WeightVec.weight(coords))
            if multiplicities(ch) != want:
                bad = f"first mismatch (multiplicities) at {list(coords)}"
                break
    except IntegrityError as exc:
        bad = f"{exc} (at {list(coords)})"
    yield (
        "characters-match-recursion-and-dimension",
        bad is None,
        f"{len(grid)} weights at depth {depth}" if bad is None else bad,
    )

    if len(a.positive_roots) <= EXPANSION_MAX_ROOTS:
        try:
            ok = check_signatures_by_expansion(table)
            detail = f"{len(a.positive_roots)} positive roots expanded"
        except IntegrityError as exc:
            ok = False
            detail = str(exc)
        yield ("signatures-match-expansion", ok, detail)
    else:
        yield (
            "signatures-match-expansion",
            True,
            f"skipped: {len(a.positive_roots)} positive roots exceed the "
            f"cap of {EXPANSION_MAX_ROOTS}",
        )


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
    reference = tables.alternant(table, zero)
    if prod == reference:
        return True
    diff = prod - reference
    first = min(diff.terms, key=lambda e: (sum(e), e))
    raise IntegrityError(
        f"signature cross-check failed for {a.name}: expansion and table "
        f"disagree first at exponent row {first} "
        f"(expansion {prod.coeff(first)}, table {reference.coeff(first)})"
    )
