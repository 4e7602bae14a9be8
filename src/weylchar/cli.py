"""Command-line interface.

Commands: character, gamma, tensor, verify, dimension.  Exit codes: 0 on
success, 2 for bad input, 3 for integrity failures (including failed
verification), 4 when the request exceeds the supported size envelope
(for verify, its grid or its work budget), and 1 when stdout cannot take
the answer, as when `| head` closes it early or its device is full.  Tables
are built in memory, once per process; nothing is read from or written to
disk.

main(argv) runs one command line and returns its exit code.  run(), the
entry of `weylchar` and `python -m weylchar`, calls it, flushes stdout and
stderr and ends the process with os._exit, so the interpreter does not tear
its modules down after the answer is out.

JSON output is canonical: keys sorted, monomial lists ascending by total
degree then lexicographically, so identical invocations are byte-identical.
A small writer here produces exactly the bytes of json.dumps(obj,
sort_keys=True, indent=2).

The command line is read against one table of commands and options (see
_COMMANDS): exact long option names, as `--opt value` or `--opt=value`, no
abbreviations.  A usage error is bad input (exit 2, `error: ...` on
stderr); -h or --help prints the usage text and exits 0.

Each command imports the modules it runs inside its handler, so a request
compiles and loads no module that it does not use: `dimension` never loads
the tables, `gamma` never loads the Weyl group.  No request loads argparse,
json or fractions, which would cost more start-up than a small request's
arithmetic.
"""

import os
import sys
from types import SimpleNamespace

from .algebra import WeightVec, parse_algebra, read_int, weyl_dimension
from .errors import EnvelopeError, InputError, IntegrityError, WeylcharError

# the exit code of a request that ends with each error class
_EXIT_CODES = {InputError: 2, IntegrityError: 3, EnvelopeError: 4}


def _parse_weight(a, text, what="--weight"):
    parts = [p.strip() for p in str(text).split(",")]
    coords = tuple(read_int(p, f"a {what} coordinate") for p in parts)
    if None in coords:
        raise InputError(f"{what} must be comma-separated integers, got {text!r}")
    if len(coords) != a.rank:
        raise InputError(
            f"{what} has {len(coords)} coordinates but {a.name} has rank {a.rank}"
        )
    if any(c < 0 for c in coords):
        raise InputError(f"{what} must be dominant (non-negative), got {list(coords)}")
    return coords


# characters a JSON string escapes by name; json.dumps writes the same
_JSON_ESCAPES = {
    '"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n",
    "\r": "\\r", "\t": "\\t",
}


def _json_char(ch):
    escaped = _JSON_ESCAPES.get(ch)
    if escaped is not None:
        return escaped
    if " " <= ch <= "~":
        return ch
    n = ord(ch)
    if n > 0xFFFF:  # a UTF-16 surrogate pair
        n -= 0x10000
        return "\\u%04x\\u%04x" % (0xD800 | n >> 10, 0xDC00 | n & 0x3FF)
    return "\\u%04x" % n


def _json_str(text):
    """text as an ASCII JSON string literal."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    return '"' + "".join(map(_json_char, text)) + '"'


def _json(obj, pad):
    """obj as JSON, as json.dumps(obj, sort_keys=True, indent=2) writes it.

    Takes only what the commands emit: dicts with str keys, lists, str,
    bool and int.  pad is the indentation of the line obj starts on.
    """
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    kind = type(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return _json_str(obj)
    inner = pad + "  "
    if kind is list:
        if not obj:
            return "[]"
        items = [_json(x, inner) for x in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if kind is dict:
        if not obj:
            return "{}"
        if not all(type(key) is str for key in obj):
            raise TypeError("JSON object keys must be str")
        items = [_json_str(key) + ": " + _json(obj[key], inner) for key in sorted(obj)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot write {kind.__name__} as JSON")


def _emit_json(obj):
    print(_json(obj, ""))


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
    for e, c in reversed(_sorted_monomials(result.poly)):
        print(f"  {list(e)}  {c}")
    return 0


def _cmd_gamma(args):
    from . import tables

    a = parse_algebra(args.algebra)
    table = tables.shared_table(a)
    entries = zip(tables.selectors(table.levels), table.signatures)
    if args.format == "json":
        _emit_json(
            {
                "algebra": a.name,
                "order": table.size,
                "candidates": [
                    [list(g.coords) for g in slot] for slot in table.candidates
                ],
                "entries": [
                    {"selector": list(selector), "signature": sign}
                    for selector, sign in entries
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
    for selector, sign in entries:
        print(f"  {list(selector)}  {'+1' if sign > 0 else '-1'}")
    return 0


def _cmd_tensor(args):
    from .tensor import tensor_decompose

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


# the most weights verify's grid may hold: --depth N checks (N + 1)^rank
VERIFY_MAX_WEIGHTS = 4096
# the most work verify may take on, in the units of _verify_work; past the
# fixed cost of the group and the table, a unit took 0.9 to 1.5
# microseconds of a whole request at F4, D5 and A6 (depth 1), and 3.5 to 8.1
# at E6 (depth 0), where that fixed cost is three quarters of the request,
# on a 2-core machine
VERIFY_MAX_WORK = 5_000_000


def _verify_work(a, depth):
    """The work verify --depth sets itself on a, counted until it passes
    VERIFY_MAX_WORK.

    A grid weight lam costs |W| for its two alternants, and then, for each
    dominant mu below lam, |W| (a bound on the orbit mu's multiplicity
    spreads over) plus N (1 + ht(lam - mu)) for the N positive roots, as
    Freudenthal walks up each root string from mu and none is longer than
    ht(lam - mu).  The dominant mu are the descent the character and
    Freudenthal both make; the grid is walked lazily, and the count stops
    as soon as it passes the budget.
    """
    from itertools import product

    from .algebra import _dominant_weights_below, weyl_order

    order = weyl_order(a.family, a.rank)
    npos = len(a.positive_roots)
    work = 0
    for coords in product(range(depth + 1), repeat=a.rank):
        below = _dominant_weights_below(a, coords)
        work += order * (1 + len(below))
        work += npos * sum(1 + sum(dp) for _, dp in below)
        if work > VERIFY_MAX_WORK:
            break
    return work


def _verify_checks(a, table, depth):
    """Run the invariant suite; yields (name, passed, detail)."""
    import itertools

    from . import tables, weylgroup
    from .algebra import weyl_order
    from .characters import character, multiplicities
    from .weylgroup import freudenthal_multiplicities

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
    try:  # character() itself checks positivity and the Weyl dimension
        for coords in grid:
            ch = character(a, coords, method="gamma")
            if multiplicities(ch) != freudenthal_multiplicities(a, WeightVec.weight(coords)):
                bad = f"first mismatch (multiplicities) at {list(coords)}"
                break
    except IntegrityError as exc:
        bad = f"{exc} (at {list(coords)})"
    yield (
        "characters-match-recursion-and-dimension",
        bad is None,
        f"{len(grid)} weights at depth {depth}" if bad is None else bad,
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
    depth = read_int(args.depth, "--depth")
    if depth is None:
        raise InputError(f"--depth must be an integer, got {args.depth!r}")
    if depth < 0:
        raise InputError(f"--depth must be non-negative, got {depth}")
    if (depth + 1) ** a.rank > VERIFY_MAX_WEIGHTS:
        raise EnvelopeError(
            f"verify --depth N checks (N + 1)^{a.rank} weights of {a.name}, past "
            f"the grid envelope ({VERIFY_MAX_WEIGHTS})"
        )
    if _verify_work(a, depth) > VERIFY_MAX_WORK:
        raise EnvelopeError(
            f"verify --depth {depth} on {a.name} would take on more than "
            f"{VERIFY_MAX_WORK} units of work, past the verify envelope"
        )
    table = tables.shared_table(a)
    checks = [
        {"name": name, "passed": passed, "detail": detail}
        for name, passed, detail in _verify_checks(a, table, depth)
    ]
    all_ok = all(c["passed"] for c in checks)
    if args.format == "json":
        _emit_json(
            {
                "algebra": a.name,
                "depth": depth,
                "passed": all_ok,
                "checks": checks,
            }
        )
    else:
        print(f"algebra: {a.name} (depth {depth})")
        for c in checks:
            mark = "ok  " if c["passed"] else "FAIL"
            print(f"  {mark} {c['name']}: {c['detail']}")
        print("result: " + ("all checks passed" if all_ok else "FAILED"))
    return 0 if all_ok else 3


_DESCRIPTION = (
    "Exact characters of irreducible representations of the simple Lie\n"
    "algebras, via alternant-reconstruction tables built once per algebra."
)

_HELP_FLAGS = ("-h", "--help")

# option -> (its value's name in the usage text, or its choices; help)
_OPTIONS = {
    "--algebra": ("LABEL", "algebra label, e.g. G2 or B3"),
    "--weight": ("WEIGHT", "dominant weight, e.g. 0,1"),
    "--left": ("WEIGHT", "left highest weight, e.g. 1,0"),
    "--right": ("WEIGHT", "right highest weight, e.g. 1,1"),
    "--depth": ("N", "check all dominant weights with coordinates up to N, "
                f"at most {VERIFY_MAX_WEIGHTS} of them, within a work budget"),
    "--method": (("gamma", "weyl"), "alternant construction route"),
    "--format": (("text", "json"), "output format"),
    "--cache-dir": (
        "DIR",
        "ignored; accepted for compatibility (tables are built in memory "
        "and never written to disk)",
    ),
}

# command -> (handler, summary, required options, other options -> default)
_COMMANDS = {
    "character": (
        _cmd_character, "character of one irreducible module",
        ("--algebra", "--weight"), {"--method": "gamma"},
    ),
    "gamma": (_cmd_gamma, "print the reconstruction table", ("--algebra",), {}),
    "tensor": (
        _cmd_tensor, "decompose a tensor product",
        ("--algebra", "--left", "--right"), {"--method": "gamma"},
    ),
    "verify": (
        _cmd_verify, "run the invariant suite for one algebra",
        ("--algebra",), {"--depth": "1"},
    ),
    "dimension": (
        _cmd_dimension, "dimension of one irreducible module",
        ("--algebra", "--weight"), {},
    ),
}

# options every command takes, with their defaults
_COMMON = {"--format": "text", "--cache-dir": None}


def _usage(command=None):
    """Help text of the program, or of one command, from the tables above."""
    if command is None:
        lines = ["usage: weylchar COMMAND [OPTIONS]", "", _DESCRIPTION, "", "commands:"]
        lines += [f"  {name:<10}  {spec[1]}" for name, spec in _COMMANDS.items()]
        lines += ["", "Run 'weylchar COMMAND --help' for the options of one command."]
        return "\n".join(lines)
    _handler, summary, required, optional = _COMMANDS[command]
    optional = {**optional, **_COMMON}

    def flag(option):
        value = _OPTIONS[option][0]
        return f"{option} {'|'.join(value) if type(value) is tuple else value}"

    synopsis = [flag(o) for o in required] + [f"[{flag(o)}]" for o in optional]
    lines = [f"usage: weylchar {command} {' '.join(synopsis)}", "", summary, "", "options:"]
    rows = [("-h, --help", "show this help and exit")]
    rows += [(flag(o), f"{_OPTIONS[o][1]} (required)") for o in required]
    rows += [
        (flag(o), _OPTIONS[o][1] + ("" if d is None else f" (default: {d})"))
        for o, d in optional.items()
    ]
    width = max(len(left) for left, _ in rows)
    lines += [f"  {left:<{width}}  {text}" for left, text in rows]
    return "\n".join(lines)


def _parse_args(argv):
    """(handler, options) of one command line, or (None, help text).

    Help is asked for by -h or --help anywhere after the command, or in
    place of it.  Options are exact long names, given as `--opt value` or
    `--opt=value`; a value given separately may not start with '--'.  Any
    other form is a usage error, raised as InputError.
    """
    if not argv:
        raise InputError(f"no command given; expected one of {', '.join(_COMMANDS)}")
    command = argv[0]
    if command in _HELP_FLAGS:
        return None, _usage()
    if command not in _COMMANDS:
        raise InputError(
            f"unknown command {command!r}; expected one of {', '.join(_COMMANDS)}"
        )
    if any(arg in _HELP_FLAGS for arg in argv[1:]):
        return None, _usage(command)
    handler, _summary, required, optional = _COMMANDS[command]
    values = {**optional, **_COMMON}
    args = iter(argv[1:])
    for arg in args:
        option, eq, value = arg.partition("=")
        if option not in values and option not in required:
            if arg.startswith("-"):
                raise InputError(f"{command} takes no option {option}")
            raise InputError(f"unexpected argument {arg!r}")
        if not eq:
            value = next(args, None)
            if value is None or value.startswith("--"):
                raise InputError(f"{option} needs a value")
        choices = _OPTIONS[option][0]
        if type(choices) is tuple and value not in choices:
            raise InputError(
                f"{option} must be one of {', '.join(choices)}, got {value!r}"
            )
        values[option] = value
    missing = [o for o in required if o not in values]
    if missing:
        raise InputError(f"{command} needs {' and '.join(missing)}")
    return handler, SimpleNamespace(
        **{o[2:].replace("-", "_"): v for o, v in values.items()}
    )


def run():
    """The process entry of `weylchar` and `python -m weylchar`.

    Runs main on sys.argv, flushes stdout and stderr, and ends the process
    with os._exit(code), so that no module teardown runs after the answer,
    and no atexit hook either: to profile or trace a request, call main.
    A stdout that cannot take the answer (`| head` closed it, or its device
    is full) ends the request with exit code 1 and no traceback; what is
    still buffered is dropped.  An unwritable stderr keeps the request's
    code.  A closed stream (sys.stdout or sys.stderr is None) is not flushed.
    """
    try:
        code = main()
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:   # BrokenPipeError among them
        code = 1
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


def main(argv=None):
    """Run one command line; returns its exit code and never exits."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        handler, parsed = _parse_args(argv)
        if handler is None:
            print(parsed)  # the help text
            return 0
        return handler(parsed)
    except WeylcharError as exc:
        code = next(c for cls, c in _EXIT_CODES.items() if isinstance(exc, cls))
        try:
            print(f"error: {exc}", file=sys.stderr)
        except OSError:
            pass   # an unwritable stderr loses the line, not the code
        return code


if __name__ == "__main__":
    run()
