"""Time the per-algebra set-up stages: table build, cache load, group generation.

Each stage is run --repeat times per algebra and the best wall time is
printed in milliseconds.  The load is of a table this script saved to a
temporary directory first, so it includes the full revalidation.  To compare
two checkouts, run the script against each source tree:

    PYTHONPATH=<checkout>/src python3 scripts/time_tables.py
"""

import argparse
import tempfile
import time

from weylchar.algebra import parse_algebra
from weylchar.tables import build_table, load_table, save_table
from weylchar.weylgroup import generate

DEFAULT = ["D4", "B4", "F4", "D5"]


def best_ms(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times) * 1e3


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5,
                        help="runs per stage; the best is printed (default 5)")
    parser.add_argument("--algebras", nargs="*", default=DEFAULT,
                        metavar="NAME")
    args = parser.parse_args()

    print(f"{'algebra':>8} {'|W|':>6} {'build':>9} {'load':>9} {'generate':>9}")
    with tempfile.TemporaryDirectory() as cache_dir:
        for name in args.algebras:
            a = parse_algebra(name)
            table = build_table(a)
            path = save_table(table, cache_dir=cache_dir)
            build = best_ms(lambda: build_table(a), args.repeat)
            load = best_ms(lambda: load_table(path), args.repeat)
            gen = best_ms(lambda: generate(a), args.repeat)
            print(
                f"{a.name:>8} {table.size:>6} {build:>7.0f}ms {load:>7.0f}ms "
                f"{gen:>7.0f}ms"
            )


if __name__ == "__main__":
    main()
