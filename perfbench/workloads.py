"""The benchmark workloads.

Each workload makes one list of requests from the seed and runs it in
passes, one request at a time (a closed loop with a single client).  Every
pass repeats the same list from empty in-process caches, as a fresh process
would.  A workload keeps what the oracles need to check its outputs after
the timed region, and summarises its passes into named metrics.  See
README.md for why each workload exists and which layer each one stresses.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field

from weylchar import algebra, characters, tables, weylgroup

# Captured before any tracer wraps these names, so a pass can always empty
# the caches a fresh process starts without.
_CACHES = (algebra.build_algebra, tables.shared_table, characters._character_cached)


def clear_caches():
    for cache in _CACHES:
        cache.cache_clear()


def digest(terms):
    """Exact fingerprint of a term map, so results need not stay in memory."""
    blob = repr(sorted(terms.items())).encode("ascii")
    return hashlib.sha256(blob).hexdigest()


def dimension(a, w):
    return weylgroup.weyl_dimension(a, algebra.WeightVec.weight(tuple(w)))


def band(family, rank, lo, hi, box=4):
    """Dominant weights with coordinates up to box and Weyl dimension in [lo, hi]."""
    a = algebra.build_algebra(family, rank)
    return [
        w for w in itertools.product(range(box + 1), repeat=rank)
        if lo <= dimension(a, w) <= hi
    ]


def spread_sample(rng, pool, count, key):
    """One item from each of `count` equal slices of `pool` sorted by `key`.

    The seed picks the items, but every sample covers the cost range of the
    pool the same way, so the work in a pass hardly changes with the seed.
    """
    ranked = sorted(pool, key=key)
    edges = [round(i * len(ranked) / count) for i in range(count + 1)]
    return [rng.choice(ranked[lo:hi]) for lo, hi in zip(edges, edges[1:])]


def label(family, rank):
    return f"{family}{rank}"


def quartiles(values):
    """Median, quartiles and sample count of a list of numbers."""
    values = sorted(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def metric(value, unit, samples):
    """A named metric: its value, unit, and the samples it was taken from."""
    return dict(quartiles(samples), value=value, unit=unit)


def latency_metrics(kind, seconds):
    """p50, p90 and rate of a list of request times, as named metrics."""
    ms = [t * 1000.0 for t in seconds]
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return {
        f"{kind}_ms_p50": metric(statistics.median(ms), "ms", ms),
        f"{kind}_ms_p90": metric(p90, "ms", ms),
        # Over every request, not a median of per-pass rates.
        f"{kind}_per_s": dict(value=len(ms) / sum(seconds), unit="1/s", n=len(ms)),
    }


def best_of(passes, kind):
    """Each request's fastest time over the passes; requests that always failed drop out."""
    columns = zip(*(r.samples[kind] for r in passes))
    return [min(t for t in col if t is not None) for col in columns
            if any(t is not None for t in col)]


def _timed(tracer, request, fn, *args, **kwargs):
    if tracer is not None:
        tracer.request = request
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


@dataclass
class Pass:
    """Timings of one pass.

    samples: per kind, seconds per request.  In-process workloads keep one
    entry per request of their list, in list order, None where the request
    failed.  steps: seconds of the pass's other timed steps, by name.
    """

    setup_s: float = 0.0
    samples: dict = field(default_factory=dict)
    steps: dict = field(default_factory=dict)
    attempted: int = 0
    errors: list = field(default_factory=list)
    wall_s: float = 0.0
    traced: bool = False
    child: list = field(default_factory=list)   # (wall_s, startup_s) per traced process


class InProcess:
    """A set-up step, then a seeded list of library calls, one at a time.

    Each request's time is its fastest over the passes, so that a slow spell
    of the host does not set the figure; a pass repeats the same work from
    empty caches, so the program does the same work every time.
    """

    kind = ""          # request kind; its samples give the request_* metrics
    algebras = ()
    extra_setups = 2   # set-up samples taken after each pass, besides its own
    min_passes = 3     # fewest untraced passes, so every request has 3 times

    def __init__(self, seed):
        self.seed = seed
        self.outputs = defaultdict(list)   # request -> fingerprint per pass
        self.pools = self.make_pools()
        self.reqs = self.requests(random.Random(f"{self.name}/{seed}"))

    def make_pools(self):
        return {label(f, r): band(f, r, *b) for f, r, b, _ in self.PLAN}

    def routes(self, best, setups, passes):
        """Route totals from each step's fastest time: {name: seconds}."""
        return {"session_s": min(setups) + sum(best[self.kind])}

    def summarise(self, passes, setups):
        """Named metrics of the untraced passes."""
        best = {k: best_of(passes, k) for k in passes[0].samples}
        out = {"setup_s": metric(statistics.median(setups), "s", setups)}
        out.update(latency_metrics(self.kind, best[self.kind]))
        for kind in sorted(best):
            if kind != self.kind:
                ms = [t * 1000.0 for t in best[kind]]
                out[f"{kind}_ms_p50"] = metric(statistics.median(ms), "ms", ms)
        routes = self.routes(best, setups, passes)
        for name, value in routes.items():
            out[name] = dict(value=value, unit="s", n=len(passes))
        out["pass_s"] = dict(value=sum(routes.values()), unit="s", n=len(passes))
        return out

    def setup(self, tracer=None, request=None):
        """Algebras and their tables, built from empty caches; returns (state, seconds)."""
        clear_caches()

        def build():
            state = {}
            for family, rank in self.algebras:
                a = algebra.build_algebra(family, rank)
                tables.shared_table(a)
                state[label(family, rank)] = a
            return state

        return _timed(tracer, request, build)

    def run_pass(self, p, tracer):
        out = Pass()
        state, out.setup_s = self.setup(tracer, f"p{p}/setup")
        times = out.samples[self.kind] = []
        for i, req in enumerate(self.reqs):
            out.attempted += 1
            try:
                result, dt = _timed(tracer, f"p{p}/r{i}", self.call, state, req)
            except Exception as exc:  # counted as a failed request
                out.errors.append(f"{req}: {type(exc).__name__}: {exc}")
                times.append(None)
                continue
            times.append(dt)
            self.outputs[req].append(self.fingerprint(result))
        return out


class SessionCharacters(InProcess):
    name = "session-characters"
    why = (
        "about 100 distinct characters per pass on B3, C3, A4, D4, B4, each "
        "requested once; division by the Weyl denominator dominates"
    )
    kind = "char"
    # (family, rank, Weyl-dimension band, count per pass)
    # Each count stays at most its pool size; the weights are drawn one from
    # each slice of the pool sorted by dimension, so the seed changes which
    # weights a pass uses but not the size mix.
    PLAN = (
        ("B", 3, (8, 1000), 20),   # pool of 24
        ("C", 3, (6, 1000), 20),   # pool of 24
        ("A", 4, (5, 300), 30),    # pool of 41
        ("D", 4, (8, 600), 24),    # pool of 30
        # The whole pool: the memory a B4 character needs follows its
        # largest coordinate, not its dimension, and (4,0,0,0) needs 1.5x
        # the next one, so leaving it out would move peak_rss_mb.
        ("B", 4, (9, 600), 14),    # pool of 14
    )
    algebras = tuple((f, r) for f, r, _, _ in PLAN)

    def requests(self, rng):
        reqs = []
        for f, r, _, count in self.PLAN:
            key = label(f, r)
            a = algebra.build_algebra(f, r)
            reqs.extend(
                (key, w) for w in spread_sample(
                    rng, self.pools[key], count, lambda w: (dimension(a, w), w))
            )
        rng.shuffle(reqs)
        return reqs

    def call(self, state, req):
        key, w = req
        return characters.character(state[key], w)

    def fingerprint(self, result):
        return digest(result.poly.terms), result.dimension

    def check(self):
        """Characters against Freudenthal's recursion and Weyl's dimension formula."""
        failed = []
        for (key, w), got in self.outputs.items():
            a = algebra.build_algebra(key[0], int(key[1:]))
            weight = algebra.WeightVec.weight(w)
            want = (
                digest(weylgroup.freudenthal_multiplicities(a, weight)),
                weylgroup.weyl_dimension(a, weight),
            )
            failed.extend(
                f"character {key} {w} disagrees with Freudenthal/Weyl"
                for fingerprint in got if fingerprint != want
            )
        return failed


class AlternantSweep(InProcess):
    name = "alternant-sweep"
    why = (
        "F4 and D5 alternants with no division, by the table route and by a "
        "Weyl group generated once: the honest amortization"
    )
    kind = "alternant"
    extra_setups = 0   # set-up is the table build inside every gamma route
    # Unequal counts keep the median inside one algebra's cost band.
    PLAN = (("F", 4, 60), ("D", 5, 40))
    algebras = tuple((f, r) for f, r, _ in PLAN)
    TOP = 6   # weight coordinates are drawn from 0..TOP

    def make_pools(self):
        return {}

    def requests(self, rng):
        reqs = []
        for f, r, count in self.PLAN:
            reqs.extend(
                (label(f, r), tuple(rng.randint(0, self.TOP) for _ in range(r)))
                for _ in range(count)
            )
        rng.shuffle(reqs)
        return reqs

    def setup(self, tracer=None, request=None):
        """Algebras and full table builds (no process-wide cache involved)."""
        clear_caches()

        def build():
            return {
                label(f, r): tables.build_table(algebra.build_algebra(f, r))
                for f, r in self.algebras
            }

        return _timed(tracer, request, build)

    def _generate(self):
        clear_caches()
        return {
            label(f, r): weylgroup.generate(algebra.build_algebra(f, r))
            for f, r in self.algebras
        }

    def routes(self, best, setups, passes):
        generate = [r.steps["generate_s"] for r in passes]
        return {
            "gamma_route_s": min(setups) + sum(best["alternant"]),
            "weyl_route_s": min(generate) + sum(best["direct"]),
        }

    def run_pass(self, p, tracer):
        out = Pass()
        table_times = out.samples["alternant"] = []
        direct_times = out.samples["direct"] = []
        results = defaultdict(list)   # request index -> digests, table then direct

        def sweep(times, prefix, fn, route):
            for i, (key, w) in enumerate(self.reqs):
                out.attempted += 1
                try:
                    poly, dt = _timed(tracer, f"p{p}/{prefix}{i}", fn, key,
                                      algebra.WeightVec.weight(w))
                except Exception as exc:
                    out.errors.append(f"{route} {key} {w}: {type(exc).__name__}: {exc}")
                    times.append(None)
                    continue
                times.append(dt)
                results[i].append(digest(poly.terms))

        def gamma():
            state, out.setup_s = self.setup(tracer, f"p{p}/setup")
            sweep(table_times, "r", lambda key, w: tables.alternant(state[key], w), "alternant")

        def weyl():
            groups, out.steps["generate_s"] = _timed(tracer, f"p{p}/generate", self._generate)
            sweep(direct_times, "d", lambda key, w: weylgroup.alternant_direct(
                groups[key].algebra, w, group=groups[key]), "direct")

        # Alternate which route runs first, so neither always meets a warm heap.
        for route in ((gamma, weyl) if p % 2 == 0 else (weyl, gamma)):
            route()
        for i, req in enumerate(self.reqs):
            self.outputs[req].append(results[i])
        return out

    def check(self):
        """Each table alternant equals the direct sum over the group."""
        return [
            f"alternant {req}: table and direct sums differ"
            for req, passes in self.outputs.items()
            for digests in passes
            if len(digests) == 2 and digests[0] != digests[1]
        ]


class Cli:
    """Ten `python -m weylchar` requests per pass, each in a fresh process.

    Every request has its own `--cache-dir`.  The cold workload hands each
    process an empty one; the warm one a copy of the directory that one cold
    run of the same request filled during set-up.  As in the in-process
    workloads, each request's time is its fastest over the passes.
    """

    kind = "cli"
    warm = False
    extra_setups = 1
    min_passes = 5
    TIMEOUT_S = 120

    def __init__(self, seed, root, work):
        self.seed = seed
        self.root = root
        self.work = work
        self.child = os.path.join(root, "perfbench", "cli_child.py")
        # Narrow bands keep each request's cost, and so every metric, about
        # the same from seed to seed.  Division memory grows with the weight;
        # the D5 and F4 bands keep the largest child, and so peak_rss_mb, the
        # same too.
        self.pools = {
            "G2": band("G", 2, 64, 77),
            "B3": band("B", 3, 105, 112),
            "D4": band("D", 4, 56, 56),
            "D5": band("D", 5, 16, 16),   # the two half-spin representations
            "F4": band("F", 4, 26, 26),
            "G2t": band("G", 2, 27, 64),
            "C3t": band("C", 3, 14, 21),
        }
        # One seed string for both workloads, so they run the same requests.
        self.reqs = self.requests(random.Random(f"cli/{seed}"))
        self.outputs = defaultdict(list)   # request index -> (rc, stdout) per run
        self.filled = {}   # warm: request index -> cache directory one cold run filled
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        self.probe()   # compiles the byte code once, outside every timing
        if self.warm:
            self.fill()

    @staticmethod
    def _w(w):
        return ",".join(map(str, w))

    def requests(self, rng):
        p = self.pools
        w = self._w
        return [
            ["character", "--algebra", "G2", "--weight", w(rng.choice(p["G2"]))],
            ["character", "--algebra", "B3", "--weight", w(rng.choice(p["B3"]))],
            ["character", "--algebra", "D4", "--weight", w(rng.choice(p["D4"]))],
            ["character", "--algebra", "D5", "--weight", w(rng.choice(p["D5"]))],
            ["character", "--algebra", "F4", "--weight", w(rng.choice(p["F4"])),
             "--method", "weyl"],
            ["tensor", "--algebra", "G2", "--left", w(rng.choice(p["G2t"])),
             "--right", w(rng.choice(p["G2t"]))],
            ["tensor", "--algebra", "C3", "--left", w(rng.choice(p["C3t"])),
             "--right", w(rng.choice(p["C3t"]))],
            # Each pair has the same Weyl group order, so the same table size.
            ["verify", "--algebra", rng.choice(["B3", "C3"]), "--depth", "1"],
            ["gamma", "--algebra", rng.choice(["B4", "C4"])],
            ["dimension", "--algebra", "D5",
             "--weight", w(tuple(rng.randint(0, 9) for _ in range(5)))],
        ]

    def _run(self, argv, env):
        """One child process, waited for; returns (rc, stdout, wall seconds, spawn time)."""
        spawned = time.time()
        t0 = time.perf_counter()
        proc = subprocess.run(
            argv, env=env, cwd=self.root, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, timeout=self.TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, time.perf_counter() - t0, spawned

    def _argv(self, args, cache):
        return args + ["--format", "json", "--cache-dir", cache]

    def _env(self, cache):
        return dict(self.env, WEYLCHAR_CACHE_DIR=cache)

    def probe(self):
        """Interpreter start plus `import weylchar`, in a fresh process."""
        rc, _out, wall, _ = self._run([sys.executable, "-c", "import weylchar"], self.env)
        if rc != 0:
            raise RuntimeError("`import weylchar` failed in a child process")
        return wall

    def fill(self):
        """One untimed cold run of each request; its output is what warm runs must print."""
        for i, args in enumerate(self.reqs):
            cache = tempfile.mkdtemp(prefix=f"fill{i}-", dir=self.work)
            cmd = [sys.executable, "-m", "weylchar"] + self._argv(args, cache)
            rc, stdout, _wall, _ = self._run(cmd, self._env(cache))
            self.filled[i] = cache
            self.outputs[i].append((rc, stdout))

    def setup(self, tracer=None, request=None):
        return None, self.probe()

    def run_pass(self, p, tracer):
        out = Pass()
        _, out.setup_s = self.setup()
        phase = "warm" if self.warm else "cold"
        times = out.samples[self.kind] = []
        for i, args in enumerate(self.reqs):
            cache = tempfile.mkdtemp(prefix="req-", dir=self.work)
            try:
                if self.warm:
                    shutil.copytree(self.filled[i], cache, dirs_exist_ok=True)
                argv = self._argv(args, cache)
                env = self._env(cache)
                out.attempted += 1
                request = f"p{p}/r{i}-{args[0]}/{phase}"
                if tracer is None:
                    cmd = [sys.executable, "-m", "weylchar"] + argv
                else:
                    spans = os.path.join(cache, "spans.json")
                    cmd = [sys.executable, self.child] + argv
                    env = dict(env, PERFBENCH_SPANS=spans)
                try:
                    rc, stdout, wall, spawned = self._run(cmd, env)
                except subprocess.TimeoutExpired:
                    out.errors.append(f"{request} {args}: timed out")
                    times.append(None)
                    continue
                times.append(wall)
                self.outputs[i].append((rc, stdout))
                if tracer is not None:
                    self._collect(tracer, spans, request, wall, spawned, out)
            finally:
                shutil.rmtree(cache, ignore_errors=True)
        return out

    def summarise(self, passes, setups):
        """Named metrics of the untraced passes, from each request's best time."""
        best = best_of(passes, self.kind)
        ms = [t * 1000.0 for t in best]
        total = f"cli_{'warm' if self.warm else 'cold'}_s"
        return {
            "setup_s": metric(statistics.median(setups), "s", setups),
            f"{self.kind}_ms_p50": metric(statistics.median(ms), "ms", ms),
            total: dict(value=sum(best), unit="s", n=len(best)),
            "pass_s": dict(value=sum(best), unit="s", n=len(best)),
        }

    @staticmethod
    def _collect(tracer, path, request, wall, spawned, out):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            out.errors.append(f"{request}: traced child wrote no spans")
            return
        tracer.extend(data["spans"], f"{request}/")
        out.child.append((wall, data["main_start"] - spawned))

    def check(self):
        """Exit code 0, valid JSON and the content oracles, for every process.

        On the warm workload every output must also be byte-identical to the
        cold run that filled its cache.  At most one failure is counted per
        process; a timed-out one was already counted when it ran.
        """
        failed = []
        checked = {}   # (request index, output) -> problem, each checked once
        for i, runs in sorted(self.outputs.items()):
            cmd = " ".join(self.reqs[i])
            cold_rc, cold = runs[0]
            for n, (rc, body) in enumerate(runs):
                if rc != 0:
                    failed.append(f"{cmd} (run {n}): exit code {rc}")
                    continue
                if (i, body) not in checked:
                    try:
                        checked[i, body] = self._content(self.reqs[i], json.loads(body))
                    except (ValueError, KeyError, TypeError) as exc:
                        checked[i, body] = f"unreadable JSON output ({exc})"
                if checked[i, body]:
                    failed.append(f"{cmd} (run {n}): {checked[i, body]}")
                elif self.warm and n > 0 and cold_rc == 0 and body != cold:
                    failed.append(f"{cmd} (run {n}): warm output differs from cold")
        return failed

    @staticmethod
    def _content(args, data):
        opts = dict(zip(args[1::2], args[2::2]))
        name = opts["--algebra"]
        a = algebra.build_algebra(name[0], int(name[1:]))

        def weight(key):
            return tuple(int(x) for x in opts[key].split(","))

        cmd = args[0]
        if cmd == "character":
            w = weight("--weight")
            want = weylgroup.freudenthal_multiplicities(a, algebra.WeightVec.weight(w))
            got = {tuple(m["exponents"]): m["coeff"] for m in data["monomials"]}
            if got != want or data["dimension"] != dimension(a, w):
                return "character disagrees with Freudenthal/Weyl"
        elif cmd == "tensor":
            want = dimension(a, weight("--left")) * dimension(a, weight("--right"))
            got = sum(s["multiplicity"] * dimension(a, s["weight"]) for s in data["summands"])
            if got != want:
                return f"tensor dimensions {got} != {want}"
        elif cmd == "verify":
            if data["passed"] is not True:
                return "verify reported a failed check"
        elif cmd == "gamma":
            order = algebra.weyl_order(a.family, a.rank)
            if data["order"] != order or len(data["entries"]) != order:
                return "table size differs from |W|"
        elif cmd == "dimension":
            if data["dimension"] != dimension(a, weight("--weight")):
                return "dimension differs from the Weyl formula"
        return None


class CliCold(Cli):
    name = "cli-cold"
    why = (
        "ten python -m weylchar requests, each against an empty cache "
        "directory: table builds and saves, division, interpreter start-up"
    )


class CliWarm(Cli):
    name = "cli-warm"
    why = (
        "the same ten requests against the cache a cold run filled: table "
        "loads and revalidation, division, interpreter start-up"
    )
    warm = True


WORKLOADS = {
    w.name: w for w in (SessionCharacters, AlternantSweep, CliCold, CliWarm)
}
