"""Time the per-algebra stages: orbit drops, table build, group generation,
one alternant by either route, the Freudenthal recursion and one character
at rho, and one character at l_1 from a built table; and measure what one
built table holds.

Each stage is run --repeat times per algebra and the best wall time is
printed in milliseconds:

    drops       orbit_drops for every slot
    build       build_table
    generate    weylgroup.generate
    alt table   one alternant from the table, averaged over --weights
                dominant weights (the first ones of the graded box)
    alt W       the same alternants summed directly over a group
                generated once, outside the timing
    freud ρ     freudenthal_multiplicities at the Weyl vector rho
    char ρ      characters.character at rho by the table route, from empty
                caches, so the table build is included
    char l1     characters.character at the first fundamental weight l_1 by
                the table route, with the table already built and only the
                character cache emptied

and, from one more build outside the timings,

    held        the memory one built table holds, in MB (10^6 bytes): what
                tracemalloc counts as allocated after the build and kept
                alive by the table, less what was allocated before it

To compare two checkouts, run the script against each source tree:

    PYTHONPATH=<checkout>/src python3 scripts/time_tables.py
"""

import argparse
import gc
import itertools
import time
import tracemalloc

from weylchar import characters, tables
from weylchar.algebra import WeightVec, parse_algebra
from weylchar.tables import alternant, build_table, orbit_drops
from weylchar.weylgroup import alternant_direct, freudenthal_multiplicities, generate

DEFAULT = ["D4", "B4", "F4", "D5"]


def best_ms(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times) * 1e3


def held_bytes(a):
    """Bytes allocated by one build_table(a) that the table keeps alive."""
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    table = build_table(a)   # alive until the count is read
    gc.collect()
    held = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    return held


def sample_weights(rank, count):
    top = 2
    while top ** rank < count:
        top += 1
    box = sorted(
        itertools.product(range(top), repeat=rank), key=lambda c: (sum(c), c)
    )
    return [WeightVec.weight(c) for c in box[:count]]


def character_from_empty_caches(a):
    characters._character_cached.cache_clear()
    tables.shared_table.cache_clear()
    characters.character(a, a.weyl_vector)


def character_from_built_table(a, weight):
    characters._character_cached.cache_clear()
    characters.character(a, weight)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5,
                        help="runs per stage; the best is printed (default 5)")
    parser.add_argument("--weights", type=int, default=10,
                        help="alternants per route and run (default 10)")
    parser.add_argument("--algebras", nargs="*", default=DEFAULT,
                        metavar="NAME")
    args = parser.parse_args()

    print(
        f"{'algebra':>8} {'|W|':>6} {'drops':>9} {'build':>9} "
        f"{'generate':>9} {'alt table':>10} {'alt W':>9} {'freud ρ':>9} "
        f"{'char ρ':>9} {'char l1':>9} {'held':>9}"
    )
    for name in args.algebras:
        a = parse_algebra(name)
        table = build_table(a)
        group = generate(a)
        weights = sample_weights(a.rank, args.weights)
        n = len(weights)
        drops = best_ms(
            lambda: [orbit_drops(a, i) for i in range(a.rank)], args.repeat
        )
        build = best_ms(lambda: build_table(a), args.repeat)
        gen = best_ms(lambda: generate(a), args.repeat)
        alt_table = best_ms(
            lambda: [alternant(table, w) for w in weights], args.repeat
        ) / n
        alt_w = best_ms(
            lambda: [alternant_direct(a, w, group=group) for w in weights],
            args.repeat,
        ) / n
        freud = best_ms(
            lambda: freudenthal_multiplicities(a, a.weyl_vector), args.repeat
        )
        char = best_ms(lambda: character_from_empty_caches(a), args.repeat)
        tables.shared_table(a)
        l1 = a.fundamental_weights[0]
        char_l1 = best_ms(lambda: character_from_built_table(a, l1), args.repeat)
        held = held_bytes(a) / 1e6
        print(
            f"{a.name:>8} {table.size:>6} {drops:>7.1f}ms {build:>7.1f}ms "
            f"{gen:>7.1f}ms {alt_table:>8.3f}ms {alt_w:>7.3f}ms {freud:>7.1f}ms "
            f"{char:>7.1f}ms {char_l1:>7.1f}ms {held:>7.3f}MB"
        )


if __name__ == "__main__":
    main()
