"""Time interpreter start-up, `import weylchar` and three small CLI requests,
with and without cached bytecode.

Each of the five commands runs in a fresh process --repeat times in each of
two settings, in round-robin order so that a slow spell of the host falls on
all of them alike, and the median wall times are printed in milliseconds:

    python -c pass                      the bare interpreter
    python -c "import weylchar"         interpreter plus package import, which
                                        loads none of the package's modules
    python -m weylchar dimension ...    a request that does no table work
    python -m weylchar character ...    a request that builds the G2 table and
                                        runs Racah's recursion on its A_rho
    python -m weylchar tensor ...       G2 (1,1) x (0,2) in JSON, the median
                                        kind of request of the cli-cold and
                                        cli-warm benchmark workloads

The two settings are the two columns:

    no bytecode   PYTHONDONTWRITEBYTECODE=1, as in the benchmark: every
                  process compiles each package module it loads
    bytecode      a temporary PYTHONPYCACHEPREFIX, filled by one untimed run
                  of each command and deleted afterwards

Their difference is the time a request spends compiling.  The children
import the package found on PYTHONPATH, copied without its __pycache__ to a
temporary directory, so that no stale bytecode of the source tree is read.
To compare two checkouts, run the script against each source tree:

    PYTHONPATH=<checkout>/src python3 scripts/time_startup.py
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
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


def run_once(args, env):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], check=True, env=env,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=20,
                        help="fresh processes per command and setting (default 20)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    source = subprocess.run(
        [sys.executable, "-c", "import weylchar; print(weylchar.__file__)"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    print(f"weylchar: {os.path.dirname(source)}")

    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.dirname(source), os.path.join(src, "weylchar"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        settings = {
            "no bytecode": dict(env, PYTHONDONTWRITEBYTECODE="1"),
            "bytecode": dict(env, PYTHONPYCACHEPREFIX=os.path.join(tmp, "pyc")),
        }
        for _, argv in COMMANDS:
            run_once(argv, settings["bytecode"])   # fills the bytecode cache

        times = {(name, s): [] for name, _ in COMMANDS for s in settings}
        for _ in range(args.repeat):
            for name, argv in COMMANDS:
                for setting, child_env in settings.items():
                    times[name, setting].append(run_once(argv, child_env))

    print(f"median of {args.repeat} fresh processes, ms")
    print(f"{'command':>12} {'no bytecode':>12} {'bytecode':>9} {'compile':>8}")
    for name, _ in COMMANDS:
        off, on = (statistics.median(times[name, s]) * 1e3 for s in settings)
        print(f"{name:>12} {off:>12.1f} {on:>9.1f} {off - on:>8.1f}")


if __name__ == "__main__":
    main()
