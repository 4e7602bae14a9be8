"""Time interpreter start-up, `import weylchar` and three small CLI requests.

Each of the five commands runs in a fresh process --repeat times, in
round-robin order so that a slow spell of the host falls on all of them
alike, and the best and the median wall time are printed in milliseconds:

    python -c pass                      the bare interpreter
    python -c "import weylchar"         interpreter plus package import, which
                                        loads none of the package's modules
    python -m weylchar dimension ...    a request that does no table work
    python -m weylchar character ...    a request that builds the G2 table and
                                        divides; it loads 8 of the 10 modules
    python -m weylchar tensor ...       G2 (1,1) x (0,2) in JSON, the median
                                        kind of request of the cli-cold and
                                        cli-warm benchmark workloads

The children inherit the environment unchanged, so they import whichever
source tree is on PYTHONPATH and keep the caller's bytecode-cache setting.
To compare two checkouts, run the script against each source tree:

    PYTHONPATH=<checkout>/src python3 scripts/time_startup.py
"""

import argparse
import os
import statistics
import subprocess
import sys
import time

COMMANDS = (
    ("interpreter", ["-c", "pass"]),
    ("import", ["-c", "import weylchar"]),
    ("dimension", ["-m", "weylchar", "dimension", "--algebra", "G2",
                   "--weight", "1,1"]),
    ("character", ["-m", "weylchar", "character", "--algebra", "G2",
                   "--weight", "1,1"]),
    ("tensor json", ["-m", "weylchar", "tensor", "--algebra", "G2",
                     "--left", "1,1", "--right", "0,2", "--format", "json"]),
)


def run_once(args):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=20,
                        help="fresh processes per command (default 20)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    source = subprocess.run(
        [sys.executable, "-c", "import weylchar; print(weylchar.__file__)"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    print(f"weylchar: {os.path.dirname(source)}")
    print(f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')}")

    times = {name: [] for name, _ in COMMANDS}
    for _ in range(args.repeat):
        for name, argv in COMMANDS:
            times[name].append(run_once(argv))

    print(f"{'command':>12} {'best':>9} {'median':>9}")
    for name, _ in COMMANDS:
        ts = times[name]
        print(f"{name:>12} {min(ts) * 1e3:>7.1f}ms "
              f"{statistics.median(ts) * 1e3:>7.1f}ms")


if __name__ == "__main__":
    main()
