"""The weylchar benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from ./src.
Each run makes its inputs from --seed, runs passes of its workload for about
--seconds (one request at a time; every pass repeats the same requests),
checks every output against an independent oracle outside the timed region,
prints a results record, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced.  With
--trace 1 passes alternate untraced and traced; the metrics are the per-layer
ones from the traced passes, and the spans are written to
perfbench/results/.  README.md maps each layer to the end-to-end metric it
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
RESULTS = os.path.join(HERE, "results")

# Each pass sets up once; a workload may add set-ups between passes, so the
# samples spread over the run.  A short run fills up to this many at the end.
SETUP_MIN_SAMPLES = 5

# End-to-end metrics: (name, unit, the workload's own metric that fills it).
# Every workload reports every one; README.md gives the meaning per workload.
E2E = (
    ("setup_s", "s", "setup_s"),
    ("request_ms_p50", "ms", "{kind}_ms_p50"),
    ("pass_s", "s", "pass_s"),
    ("peak_rss_mb", "MB", "peak_rss_mb"),
)

# Ratios printed with their base, per workload: (numerator, base).
RATIOS = {
    "alternant-sweep": ("weyl_route_s", "gamma_route_s"),
}

# Layers whose calls per CLI request show what the disk cache saves or costs.
CACHE_LAYERS = (
    "tables.load_table",
    "tables.build_table",
    "tables.save_table",
    "weylgroup.generate",
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import weylchar from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "weylchar", "__init__.py")):
        fail(f"no weylchar sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import weylchar

    if os.path.dirname(os.path.dirname(os.path.abspath(weylchar.__file__))) != SRC:
        fail(f"imported weylchar from {weylchar.__file__}, not from {SRC}")
    return weylchar


def commit_id():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"   # not a checkout of its own; git would look above it
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # kB on Linux


def measure(workload, seconds, trace):
    """Passes until about `seconds` have gone by; in trace mode odd passes are traced.

    A pass is not started if it would end more than half a pass after the
    deadline, unless the workload still lacks its fewest passes.
    """
    tracer = spans.Tracer() if trace else None
    need = 2 if trace else workload.min_passes
    passes = []
    setups = []
    start = time.perf_counter()
    while True:
        p = len(passes)
        traced = trace and p % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = workload.run_pass(p, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        result.wall_s = time.perf_counter() - t0
        result.traced = traced
        passes.append(result)
        if not traced:
            setups.append(result.setup_s)
        for _ in range(workload.extra_setups):
            setups.append(workload.setup()[1])
        elapsed = time.perf_counter() - start
        if len(passes) >= need and elapsed + result.wall_s / 2 >= seconds:
            break
    while len(setups) < SETUP_MIN_SAMPLES:
        setups.append(workload.setup()[1])
    return passes, setups, tracer


def layer_metrics(tracer, passes):
    """Per-layer metrics: medians over traced passes, plus tracing overhead."""
    by_pass = spans.split_by_pass(tracer.spans)
    traced = [p for p, r in enumerate(passes) if r.traced]
    per_pass = []
    for p in traced:
        m = spans.pass_metrics(by_pass.get(p, []))
        child = passes[p].child
        m["cli.process_wall_s"] = sum(w for w, _ in child)
        m["cli.startup_s"] = sum(s for _, s in child)
        per_pass.append(m)
    out = spans.median_over_passes(per_pass)
    # Fastest pass of each kind, as the end-to-end timings take best times.
    plain = min(r.wall_s for r in passes if not r.traced)
    with_trace = min(r.wall_s for r in passes if r.traced)
    out["trace.overhead_s"] = with_trace - plain
    out["trace.overhead_frac"] = with_trace / plain - 1.0
    return out


def write_spans(name, seed, tracer, record):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"trace-{name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"record": record, "spans": tracer.spans}, fh)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description="weylchar benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        cli = issubclass(cls, workloads.Cli)
        if cli:
            workload = cls(args.seed, ROOT, work)
        else:
            workload = cls(args.seed)
        passes, setups, tracer = measure(
            workload, args.seconds, bool(args.trace)
        )
        rss = peak_rss_mb(children=cli)
        errors = [e for r in passes for e in r.errors] + workload.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass   # another run still uses it

    for line in errors[:20]:
        print(f"failed: {line}", file=sys.stderr)
    plain = [r for r in passes if not r.traced]
    if not any(t is not None for r in plain for t in r.samples.get(workload.kind, ())):
        fail("no request of the workload succeeded; nothing to measure")
    named = workload.summarise(plain, setups)
    named["peak_rss_mb"] = {"value": rss, "unit": "MB", "n": 1}
    # The warm workload's set-up runs each request once, cold, and checks it.
    attempted = sum(r.attempted for r in passes) + len(getattr(workload, "filled", ()))
    failed = len(errors)
    e2e = {name: source.format(kind=workload.kind) for name, _unit, source in E2E}
    ratios = {}
    if args.workload in RATIOS:
        top, base = RATIOS[args.workload]
        ratios[f"{top}/{base}"] = {
            "value": named[top]["value"] / named[base]["value"],
            "base": base,
            "base_value_s": named[base]["value"],
        }
    record = {
        "workload": args.workload,
        "why": cls.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "passes": len(passes),
        "traced_passes": sum(1 for r in passes if r.traced),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "e2e_from": e2e,
        "metrics": named,
        "ratios": ratios,
        "errors": errors[:20],
    }
    if args.trace:
        layers = layer_metrics(tracer, passes)
        record["per_layer"] = layers
        record["top_self_s"] = sorted(
            ((name[: -len(".self_s")], value) for name, value in layers.items()
             if name.endswith(".self_s")),
            key=lambda t: -t[1],
        )[:8]
        if cli:
            record["cli_calls"] = spans.calls_by_command(tracer.spans, CACHE_LAYERS)
        record["spans_file"] = os.path.relpath(
            write_spans(args.workload, args.seed, tracer, record), ROOT
        )
        metrics = {
            name: {"value": layers.get(name, 0.0), "unit": unit}
            for name, unit, _ in spans.per_layer_spec()
        }
    else:
        metrics = {
            name: {"value": named[e2e[name]]["value"], "unit": unit}
            for name, unit, _source in E2E
        }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
