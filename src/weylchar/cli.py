"""Command-line interface.

Commands: character, gamma, tensor, verify, dimension.  Exit codes: 0 on
success, 2 for bad input, 3 for integrity failures (including failed
verification), 4 when the request exceeds the supported size envelope.
Tables are built in memory, once per process; nothing is read from or
written to disk.

JSON output is canonical: keys sorted, monomial lists ascending by total
degree then lexicographically, so identical invocations are byte-identical.

Each command imports the modules it runs inside its handler, so a request
compiles and loads no module that it does not use: `dimension` never loads
the tables, `gamma` never loads the Weyl group.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import WeightVec, parse_algebra
from .errors import EnvelopeError, InputError, IntegrityError


def _is_integer(text):
    """True for ASCII decimal digits with an optional leading '-'.

    int() also takes '_' between digits, a leading '+' and digits of other
    scripts, none of which is a weight coordinate.
    """
    digits = text[1:] if text[:1] == "-" else text
    return digits.isascii() and digits.isdigit()


def _parse_weight(a, text, what="--weight"):
    parts = [p.strip() for p in str(text).split(",")]
    if not all(map(_is_integer, parts)):
        raise InputError(f"{what} must be comma-separated integers, got {text!r}")
    coords = tuple(int(p) for p in parts)
    if len(coords) != a.rank:
        raise InputError(
            f"{what} has {len(coords)} coordinates but {a.name} has rank {a.rank}"
        )
    if any(c < 0 for c in coords):
        raise InputError(f"{what} must be dominant (non-negative), got {list(coords)}")
    return coords


def _emit_json(obj):
    print(json.dumps(obj, sort_keys=True, indent=2))


def _sorted_monomials(poly):
    return sorted(poly.terms.items(), key=lambda t: (sum(t[0]), t[0]))


def _cmd_character(args):
    from .characters import character, present_alpha_basis

    a = parse_algebra(args.algebra)
    m = _parse_weight(a, args.weight)
    result = character(a, m, method=args.method)
    if args.format == "json":
        _emit_json(
            {
                "algebra": a.name,
                "weight": list(m),
                "method": args.method,
                "dimension": result.dimension,
                "monomials": [
                    {"exponents": list(e), "coeff": c}
                    for e, c in _sorted_monomials(result.poly)
                ],
                "presentation": present_alpha_basis(result),
            }
        )
        return 0
    print(f"algebra: {a.name}")
    print(f"highest weight: {list(m)}")
    print(f"method: {args.method}")
    print(f"dimension: {result.dimension}")
    print(f"alpha-basis: {present_alpha_basis(result)}")
    print("multiplicities (weight basis):")
    for e, c in sorted(
        result.poly.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True
    ):
        print(f"  {list(e)}  {c}")
    return 0


def _cmd_gamma(args):
    from . import tables

    a = parse_algebra(args.algebra)
    table = tables.shared_table(a)
    if args.format == "json":
        _emit_json(
            {
                "algebra": a.name,
                "order": table.size,
                "candidates": [
                    [list(g.coords) for g in slot] for slot in table.candidates
                ],
                "entries": [
                    {"selector": list(e.selector), "signature": e.signature}
                    for e in table.entries
                ],
            }
        )
        return 0
    print(f"algebra: {a.name}")
    print(f"entries: {table.size} (= |W|)")
    print("candidates (root basis, one-based):")
    for i, slot in enumerate(table.candidates, start=1):
        print(f"  slot {i}:")
        for k, g in enumerate(slot, start=1):
            print(f"    {k}: {list(g.coords)}")
    print("entries (selector -> signature):")
    for e in table.entries:
        sign = "+1" if e.signature > 0 else "-1"
        print(f"  {list(e.selector)}  {sign}")
    return 0


def _cmd_tensor(args):
    from .tensor import tensor_decompose
    from .weylgroup import weyl_dimension

    a = parse_algebra(args.algebra)
    lm = _parse_weight(a, args.left, what="--left")
    rm = _parse_weight(a, args.right, what="--right")
    dec = tensor_decompose(a, lm, rm, method=args.method)
    dims = {
        w: weyl_dimension(a, WeightVec.weight(w)) for w, _ in dec.summands
    }
    left_dim = weyl_dimension(a, WeightVec.weight(lm))
    right_dim = weyl_dimension(a, WeightVec.weight(rm))
    total = sum(mult * dims[w] for w, mult in dec.summands)
    if total != left_dim * right_dim:
        raise IntegrityError(
            f"tensor dimensions do not balance: {left_dim} * {right_dim} "
            f"!= {total}"
        )
    if args.format == "json":
        _emit_json(
            {
                "algebra": a.name,
                "left": list(lm),
                "right": list(rm),
                "summands": [
                    {
                        "weight": list(w),
                        "multiplicity": mult,
                        "dimension": dims[w],
                    }
                    for w, mult in dec.summands
                ],
                "dimension_check": {
                    "left": left_dim,
                    "right": right_dim,
                    "product": left_dim * right_dim,
                    "sum": total,
                },
            }
        )
        return 0
    print(f"algebra: {a.name}")
    print(f"product: {list(lm)} (x) {list(rm)}")
    print("summands:")
    for w, mult in dec.summands:
        print(f"  {mult} x {list(w)}  dim {dims[w]}")
    print(f"dimension check: {left_dim} * {right_dim} = {total}")
    return 0


def _cmd_dimension(args):
    from .weylgroup import weyl_dimension

    a = parse_algebra(args.algebra)
    m = _parse_weight(a, args.weight)
    dim = weyl_dimension(a, WeightVec.weight(m))
    if args.format == "json":
        _emit_json({"algebra": a.name, "weight": list(m), "dimension": dim})
        return 0
    print(f"algebra: {a.name}")
    print(f"highest weight: {list(m)}")
    print(f"dimension: {dim}")
    return 0


def _verify_checks(a, table, depth):
    """Run the invariant suite; yields (name, passed, detail)."""
    import itertools

    from . import tables, weylgroup
    from .algebra import orbit, weyl_order
    from .characters import character, multiplicities
    from .weylgroup import freudenthal_multiplicities, weyl_dimension

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
        n_orbit = len(orbit(a, a.fundamental_weights[i]))
        n_cand = len(table.candidates[i])
        details.append(f"slot {i + 1}: {n_cand}/{n_orbit}")
        if n_cand != n_orbit:
            orbit_ok = False
    yield ("candidate-counts-match-orbit-sizes", orbit_ok, ", ".join(details))

    grid = list(itertools.product(range(depth + 1), repeat=a.rank))
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
    for coords in grid:
        ch = character(a, coords, method="gamma")
        if multiplicities(ch) != freudenthal_multiplicities(a, WeightVec.weight(coords)):
            bad = ("multiplicities", coords)
            break
        if ch.dimension != weyl_dimension(a, WeightVec.weight(coords)):
            bad = ("dimension", coords)
            break
    yield (
        "characters-match-recursion-and-dimension",
        bad is None,
        f"{len(grid)} weights at depth {depth}" if bad is None else f"first mismatch ({bad[0]}) at {list(bad[1])}",
    )

    if len(a.positive_roots) <= tables.EXPANSION_MAX_ROOTS:
        try:
            ok = tables.check_signatures_by_expansion(table)
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
            f"cap of {tables.EXPANSION_MAX_ROOTS}",
        )


def _cmd_verify(args):
    from . import tables

    a = parse_algebra(args.algebra)
    if args.depth < 0:
        raise InputError(f"--depth must be non-negative, got {args.depth}")
    table = tables.shared_table(a)
    checks = [
        {"name": name, "passed": passed, "detail": detail}
        for name, passed, detail in _verify_checks(a, table, args.depth)
    ]
    all_ok = all(c["passed"] for c in checks)
    if args.format == "json":
        _emit_json(
            {
                "algebra": a.name,
                "depth": args.depth,
                "passed": all_ok,
                "checks": checks,
            }
        )
    else:
        print(f"algebra: {a.name} (depth {args.depth})")
        for c in checks:
            mark = "ok  " if c["passed"] else "FAIL"
            print(f"  {mark} {c['name']}: {c['detail']}")
        print("result: " + ("all checks passed" if all_ok else "FAILED"))
    return 0 if all_ok else 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="weylchar",
        description=(
            "Exact characters of irreducible representations of the simple "
            "Lie algebras, via alternant-reconstruction tables built once "
            "per algebra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, method=False, weight=False):
        p.add_argument("--algebra", required=True, help="algebra label, e.g. G2 or B3")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        p.add_argument(
            "--cache-dir",
            default=None,
            help="ignored; accepted for compatibility (tables are built in "
            "memory and never written to disk)",
        )
        if method:
            p.add_argument(
                "--method",
                choices=("gamma", "weyl"),
                default="gamma",
                help="alternant construction route",
            )
        if weight:
            p.add_argument(
                "--weight", required=True, help="dominant weight, e.g. 0,1"
            )

    p = sub.add_parser("character", help="character of one irreducible module")
    common(p, method=True, weight=True)
    p.set_defaults(func=_cmd_character)

    p = sub.add_parser("gamma", help="print the reconstruction table")
    common(p)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("tensor", help="decompose a tensor product")
    common(p, method=True)
    p.add_argument("--left", required=True, help="left highest weight, e.g. 1,0")
    p.add_argument("--right", required=True, help="right highest weight, e.g. 1,1")
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("verify", help="run the invariant suite for one algebra")
    common(p)
    p.add_argument(
        "--depth",
        type=int,
        default=1,
        help="check all dominant weights with coordinates up to this value",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dimension", help="dimension of one irreducible module")
    common(p)
    p.add_argument("--weight", required=True, help="dominant weight, e.g. 1,1")
    p.set_defaults(func=_cmd_dimension)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnvelopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except IntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
