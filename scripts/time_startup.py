"""Time interpreter start-up, `import weylchar` and seven small CLI requests,
with and without cached bytecode.

Each of the nine commands runs in a fresh process --repeat times in each of
two settings, in round-robin order so that a slow spell of the host falls on
all of them alike, and the median wall times are printed in milliseconds:

    python -c pass                      the bare interpreter
    python -c "import weylchar"         interpreter plus package import, which
                                        loads none of the package's modules
    python -m weylchar dimension ...    a request that does no table work
    python -m weylchar dimension ...    the same at A24, the largest rank kept;
                                        its time over the G2 request is mostly
                                        building A24's root data
    python -m weylchar character ...    a request that builds the G2 table and
                                        runs Racah's recursion on its A_rho
    python -m weylchar character ...    F4 (0,0,0,1) by the weyl route, which
      --method weyl                     generates the group and loads no table
    python -m weylchar gamma ...        prints the B4 table; loads no Laurent
                                        polynomials and no Weyl group
    python -m weylchar verify ...       B3 at depth 1, the one request that
                                        loads the invariant suite
    python -m weylchar tensor ...       G2 (1,1) x (0,2) in JSON, the median
                                        kind of request of the cli-cold and
                                        cli-warm benchmark workloads

The G2 dimension row and the last five rows time one request of each kind
the cli-cold and cli-warm workloads run.

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

With --json PATH the medians are also appended, as one run, to the JSON
record at PATH (a BENCH_<date>.json file), which is created if missing:
the commands, the repeat count, the measured tree's commit, the Python
version, the processor count and the PYTHONDONTWRITEBYTECODE setting.
"""

import argparse
import datetime
import json
import os
import platform
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
    ("dimension A24", ["-m", "weylchar", "dimension", "--algebra", "A24",
                       "--weight", ",".join(["1"] + ["0"] * 23)]),
    ("character", ["-m", "weylchar", "character", "--algebra", "G2",
                   "--weight", "1,1"]),
    ("character weyl", ["-m", "weylchar", "character", "--algebra", "F4",
                        "--weight", "0,0,0,1", "--method", "weyl"]),
    ("gamma", ["-m", "weylchar", "gamma", "--algebra", "B4"]),
    ("verify", ["-m", "weylchar", "verify", "--algebra", "B3", "--depth", "1"]),
    ("tensor json", ["-m", "weylchar", "tensor", "--algebra", "G2",
                     "--left", "1,1", "--right", "0,2", "--format", "json"]),
)


def run_once(args, env):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], check=True, env=env,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def append_record(path, package_dir, run):
    """Append one run, with where and how it was measured, to the JSON
    record at path: {"runs": [...]}, created if missing."""
    commit = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=12"],
        cwd=package_dir, capture_output=True, text=True,
    ).stdout.strip()
    run = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": commit or None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        **run,
    }
    record = {"runs": []}
    if os.path.exists(path):
        with open(path) as fh:
            record = json.load(fh)
    record["runs"].append(run)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=20,
                        help="fresh processes per command and setting (default 20)")
    parser.add_argument("--json", metavar="PATH",
                        help="also append the medians to this JSON record")
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

    medians = {
        name: {s: statistics.median(times[name, s]) * 1e3 for s in settings}
        for name, _ in COMMANDS
    }
    print(f"median of {args.repeat} fresh processes, ms")
    print(f"{'command':>14} {'no bytecode':>12} {'bytecode':>9} {'compile':>8}")
    for name, _ in COMMANDS:
        off, on = medians[name].values()
        print(f"{name:>14} {off:>12.1f} {on:>9.1f} {off - on:>8.1f}")
    if args.json:
        append_record(args.json, os.path.dirname(source), {
            "script": "time_startup.py",
            "statistic": "median wall time of fresh processes, ms",
            "repeat": args.repeat,
            "workloads": {name: ["python", *argv] for name, argv in COMMANDS},
            "results": medians,
        })


if __name__ == "__main__":
    main()
