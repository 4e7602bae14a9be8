"""Outside-in tracing of weylchar's layers.

A Tracer wraps the public functions of the library's modules from outside:
the wrapper is bound on every name a caller looks up, so a function imported
by name into another module (characters.exact_div, tensor.character,
cli.tensor_decompose, the package namespace, ...) is traced wherever it is
called from.  Nothing inside the library changes.

Each traced call records one span, kept in memory:

    [name, start, end, parent span index, request id, work counts]

Self time is a span's duration minus the time its child spans cover.  Calls
are synchronous, so child spans are disjoint and the covered time is the sum
of their durations.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict

MODULES = (
    "algebra",
    "tables",
    "linalg",
    "weylgroup",
    "laurent",
    "characters",
    "tensor",
    "cli",
)

# Arithmetic helpers called once per group element, matrix row, root or
# weight inside the loops being measured.  A wrapper costs about as much as
# one of these calls, so they stay unwrapped; their time is part of their
# caller's self time.
LEAVES = frozenset(
    {
        "algebra.weight_coords",
        "algebra.root_coords",
        "algebra.to_basis",
        "algebra.bilinear",
        "algebra.reflect",
        "algebra.is_dominant",
        "algebra.dominant_reduce",
        "algebra.pair_with_root",
        "linalg.identity",
        "linalg.vec_mat",
        "linalg.mat_mul",
        "linalg.transpose",
    }
)

MUL = "laurent.LaurentPoly.__mul__"


def _terms(args, result):
    return {"terms": len(result.terms)}


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Work counts taken at the layer boundary from the call's arguments and
# result.  Keys become per-layer metrics named <layer>.<key>.
COUNTS = {
    "laurent.exact_div": lambda args, r: {
        "num_terms": len(args[0].terms),
        "den_terms": len(args[1].terms),
        "quot_terms": len(r.terms),
    },
    MUL: lambda args, r: {"terms": len(r.terms)} if hasattr(r, "terms") else None,
    "tensor.tensor_decompose": lambda args, r: {"summands": len(r.summands)},
    "tables.build_table": lambda args, r: {"entries": r.size},
    "tables.load_table": lambda args, r: {"bytes": _file_bytes(args[0])},
    "tables.save_table": lambda args, r: {"bytes": _file_bytes(r)},
    "tables.alternant": _terms,
    "weylgroup.alternant_direct": _terms,
    "weylgroup.generate": lambda args, r: {"elements": r.order},
}

# Layers reported as per-layer metrics (calls, self_s, total_s each).  The
# remaining wrapped functions still appear in the written spans.
LAYERS = (
    "algebra.build_algebra",
    "algebra.orbit",
    "tables.orbit_drops",
    "tables.build_table",
    "tables.alternant",
    "tables.load_table",
    "tables.save_table",
    "tables.load_or_build",
    "linalg.det_int",
    "linalg.inverse_unimodular",
    "linalg.inverse_frac",
    "weylgroup.generate",
    "weylgroup.alternant_direct",
    "weylgroup.freudenthal_multiplicities",
    "weylgroup.weyl_dimension",
    "laurent.exact_div",
    MUL,
    "characters.character",
    "tensor.tensor_decompose",
    "cli.main",
)

WORK = tuple(f"{layer}.{key}" for layer, keys in (
    ("laurent.exact_div", ("num_terms", "den_terms", "quot_terms")),
    (MUL, ("terms",)),
    ("tensor.tensor_decompose", ("summands",)),
    ("tables.build_table", ("entries",)),
    ("tables.load_table", ("bytes",)),
    ("tables.save_table", ("bytes",)),
    ("tables.alternant", ("terms",)),
    ("weylgroup.alternant_direct", ("terms",)),
    ("weylgroup.generate", ("elements",)),
) for key in keys)

# Derived per-layer metrics beyond calls/self_s/total_s and WORK.
DERIVED = (
    ("characters.hit_frac", "frac", "higher"),
    ("tables.cache_hit_frac", "frac", "higher"),
    ("cli.process_wall_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.spans", "count", "lower"),
)

WORK_UNITS = {"bytes": "B"}


def _summed():
    """(name, unit, better) of the metrics that are sums over a pass's spans."""
    for layer in LAYERS:
        yield f"{layer}.calls", "count", "lower"
        yield f"{layer}.self_s", "s", "lower"
        yield f"{layer}.total_s", "s", "lower"
    for name in WORK:
        yield name, WORK_UNITS.get(name.rsplit(".", 1)[1], "count"), "lower"


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    return [*_summed(), *DERIVED]


class Tracer:
    """Wraps the library's public functions and records spans while installed."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._bound = []   # (namespace, attribute, original) to restore

    def _wrap(self, name, fn):
        count = COUNTS.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced

    def install(self):
        """Bind a traced wrapper on every name that refers to a wrapped function."""
        if self._bound:
            return
        mods = [importlib.import_module(f"weylchar.{m}") for m in MODULES]
        wrappers = {}   # id(original) -> (original, wrapper)
        for short, mod in zip(MODULES, mods):
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or name in LEAVES
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        namespaces = [
            vars(m) for n, m in sys.modules.items()
            if n == "weylchar" or n.startswith("weylchar.")
        ]
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bound.append((ns, attr, obj))
                    ns[attr] = hit[1]
        poly = importlib.import_module("weylchar.laurent").LaurentPoly
        mul = poly.__dict__["__mul__"]
        traced_mul = self._wrap(MUL, mul)
        for attr in ("__mul__", "__rmul__"):
            self._bound.append((poly, attr, poly.__dict__[attr]))
            setattr(poly, attr, traced_mul)

    def uninstall(self):
        for ns, attr, obj in reversed(self._bound):
            if isinstance(ns, dict):
                ns[attr] = obj
            else:
                setattr(ns, attr, obj)
        self._bound.clear()

    def extend(self, spans, request_prefix):
        """Append spans recorded by another process, re-basing parent indices."""
        base = len(self.spans)
        for name, start, end, parent, request, counts in spans:
            self.spans.append([
                name, start, end,
                None if parent is None else parent + base,
                f"{request_prefix}{request or ''}",
                counts,
            ])


def pass_of(request):
    """Pass number encoded in a request id of the form 'p<pass>/...'."""
    return int(request.split("/", 1)[0][1:])


def layer_totals(spans):
    """Per-layer sums over a list of spans: calls, self_s, total_s, counts."""
    child_time = defaultdict(float)
    for name, start, end, parent, request, counts in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(float)
    for index, (name, start, end, parent, request, counts) in enumerate(spans):
        total = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.total_s"] += total
        out[f"{name}.self_s"] += total - child_time[index]
        if counts:
            for key, value in counts.items():
                out[f"{name}.{key}"] += value
    return out


def _children_named(spans, parent_name, child_name):
    """How many spans called parent_name have a direct child called child_name."""
    parents = {
        span[3] for span in spans
        if span[0] == child_name and span[3] is not None
        and spans[span[3]][0] == parent_name
    }
    return len(parents)


def _frac(part, whole):
    return part / whole if whole else 0.0


def pass_metrics(spans):
    """Per-layer metrics of one pass's spans (indices local to the list)."""
    totals = layer_totals(spans)
    out = {name: totals.get(name, 0.0) for name, _unit, _better in _summed()}
    chars = totals.get("characters.character.calls", 0)
    misses = _children_named(spans, "characters.character", "laurent.exact_div")
    out["characters.hit_frac"] = _frac(chars - misses, chars)
    lob = totals.get("tables.load_or_build.calls", 0)
    hits = _children_named(spans, "tables.load_or_build", "tables.load_table")
    out["tables.cache_hit_frac"] = _frac(hits, lob)
    out["trace.spans"] = float(len(spans))
    return out


def split_by_pass(spans):
    """Spans grouped per pass, parent indices re-based to each group."""
    groups = defaultdict(list)
    where = {}
    for index, span in enumerate(spans):
        p = pass_of(span[4])
        where[index] = (p, len(groups[p]))
        groups[p].append(span)
    out = {}
    for p, group in groups.items():
        rebased = []
        for name, start, end, parent, request, counts in group:
            local = None
            if parent is not None and where[parent][0] == p:
                local = where[parent][1]
            rebased.append([name, start, end, local, request, counts])
        out[p] = rebased
    return out


def calls_by_command(spans, layers):
    """Calls of the given layers per CLI command and phase, per request.

    CLI request ids look like 'p<pass>/r<index>-<command>/<phase>/'; spans of
    in-process requests are skipped.
    """
    requests = defaultdict(set)
    calls = defaultdict(lambda: defaultdict(int))
    for name, _start, _end, _parent, request, _counts in spans:
        parts = request.split("/")
        if len(parts) < 3 or "-" not in parts[1]:
            continue
        kind = f"{parts[1].split('-', 1)[1]}/{parts[2]}"
        requests[kind].add(request)
        if name in layers:
            calls[kind][name] += 1
    return {
        kind: {
            "requests": len(reqs),
            "calls_per_request": {
                layer: calls[kind][layer] / len(reqs) for layer in layers
            },
        }
        for kind, reqs in sorted(requests.items())
    }


def median_over_passes(per_pass):
    """Median of each metric over per-pass metric dicts with the same keys."""
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
