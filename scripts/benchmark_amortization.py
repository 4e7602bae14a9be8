"""Measure the payoff of the table route against direct summation.

Three routes build the same alternants for a fixed list of dominant weights:

* direct, regenerating W: alternant_direct generates the Weyl group on every
  call, which is what a caller who keeps nothing between calls pays;
* direct, W generated once: weylgroup.generate once, then
  alternant_direct(..., group=g) per weight;
* table: build_table once, then alternant per weight.

Each route's time includes its one-off cost (group generation or table
build) and is the best of REPEATS runs, so one slow spell of the host does
not set the ratio.  Both ratios are against the table route.  Usage:

    PYTHONPATH=src python3 scripts/benchmark_amortization.py [--count N] [--algebras G2 D4 ...] [--json PATH]

With --json PATH the rows are also appended, as one run, to the JSON record
at PATH (a BENCH_<date>.json file), which is created if missing; see
scripts/time_startup.py for what a run holds.
"""

import argparse
import itertools
import os
import time

from time_startup import append_record
from weylchar import tables
from weylchar.algebra import WeightVec, build_algebra, weyl_order
from weylchar.tables import alternant, build_table
from weylchar.weylgroup import alternant_direct, generate

DEFAULT = ["G2", "A3", "B3", "C3", "D4"]
REPEATS = 5


def sample_weights(rank, count):
    top = 4
    while top ** rank < count:
        top += 1
    box = sorted(
        itertools.product(range(top), repeat=rank), key=lambda c: (sum(c), c)
    )
    return [WeightVec.weight(c) for c in box[:count]]


def best_of(route):
    """Fastest of REPEATS runs of route(), with the result of the last run."""
    best = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = route()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100,
                        help="alternants per route (default 100)")
    parser.add_argument("--algebras", nargs="*", default=DEFAULT,
                        metavar="NAME")
    parser.add_argument("--json", metavar="PATH",
                        help="also append the rows to this JSON record")
    args = parser.parse_args()

    print(f"best of {REPEATS}, {args.count} alternants per route")
    print(
        f"{'algebra':>8} {'|W|':>6} {'regen W':>10} {'W once':>10} "
        f"{'build+alt':>10} {'regen/table':>12} {'once/table':>11}"
    )
    rows = {}
    for name in args.algebras:
        a = build_algebra(name[0], int(name[1:]))
        weights = sample_weights(a.rank, args.count)

        def table_route():
            table = build_table(a)
            return [alternant(table, w) for w in weights]

        def regenerated():
            return [alternant_direct(a, w) for w in weights]

        def group_once():
            group = generate(a)
            return [alternant_direct(a, w, group=group) for w in weights]

        table_time, want = best_of(table_route)
        regen_time, got_regen = best_of(regenerated)
        once_time, got_once = best_of(group_once)
        assert got_regen == want and got_once == want
        order = weyl_order(a.family, a.rank)
        print(
            f"{a.name:>8} {order:>6} {regen_time:>9.3f}s "
            f"{once_time:>9.3f}s {table_time:>9.3f}s "
            f"{regen_time / table_time:>11.1f}x "
            f"{once_time / table_time:>10.2f}x"
        )
        rows[a.name] = {
            "|W|": order, "regen W": regen_time, "W once": once_time,
            "build+alt": table_time,
            "regen/table": regen_time / table_time,
            "once/table": once_time / table_time,
        }
    if args.json:
        append_record(args.json, os.path.dirname(tables.__file__), {
            "script": "benchmark_amortization.py",
            "statistic": f"best wall time of {REPEATS} runs, s",
            "repeat": REPEATS,
            "count": args.count,
            "workloads": args.algebras,
            "results": rows,
        })


if __name__ == "__main__":
    main()
