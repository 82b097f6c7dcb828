"""Metric names, units and the reduction of traced spans to per-layer metrics."""

from __future__ import annotations

import statistics

import numpy as np

SUBCOMMANDS = ("theorem1", "theorem4", "theorem2-check", "theorem5-probe", "bombieri",
               "weight-check", "h-profile", "sharpness", "norms")
LAYERS = ("bounds", "extremal", "norms", "weights", "series", "search")

#: (name, unit); reported with --trace 0.  A time in yardsticks is wall time
#: divided by the yardstick time measured around it (run.py, yardstick.py)
END_TO_END = (("wall_rel", "yardsticks"), ("op_p50_rel", "yardsticks"), ("setup_s", "s"),
              ("setup_rel", "yardsticks"), ("peak_rss_mb", "MB"))

#: per-layer call counts read from span names
CALL_COUNTS = {
    "series.circle_sup.calls": ("series.circle_sup",),
    "search.golden_max.calls": ("search.golden_max",),
    "series.eval_series.calls": ("series.eval_series",),
    "norms.radial_sup.calls": ("norms.weighted_radial_sup", "norms._series_radial_sup"),
    "weights.weight_call.calls": ("weights.Weight.__call__",),
    "weights.criterion_check.calls": ("weights.criterion_check",),
    "extremal.verify_sharpness.calls": ("extremal.verify_sharpness",),
}

#: per-layer counts the shim accumulates directly; madds is points x (order+1),
#: computed from the arguments rather than measured
COUNTERS = ("search.golden_max.evals", "series.eval_series.points", "series.eval_series.madds",
            "weights.weight_call.scalar_calls", "search.trisect_min.evals",
            "search.bisect_root.evals", "search.grid_scan.points",
            "bounds.theorem4_expression.cells")


def _per_layer() -> tuple:
    out = [(f"cli.{sub}.p50_s", "s", "lower") for sub in SUBCOMMANDS]
    for layer in LAYERS + ("numpy.fft",):
        out += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]
    out += [(name, "count", "lower") for name in CALL_COUNTS]
    out += [(name, "count", "lower") for name in COUNTERS]
    out += [("bounds.probe_cache.hit_ratio", "ratio", "higher"),
            ("trace_overhead", "ratio", "lower"),
            ("failed_ratio", "ratio", "lower")]
    return tuple(out)


#: (name, unit, better); reported with --trace 1
PER_LAYER = _per_layer()


def end_to_end(passes, results, setup_seconds, setup_rel, peak_rss_kb) -> dict:
    """``passes`` are the complete passes, each a list of op results with
    ``seconds`` and ``yard_s``; ``results`` are all untraced op results."""
    return {"wall_rel": statistics.median(sum(r.seconds / r.yard_s for r in batch)
                                          for batch in passes),
            "op_p50_rel": statistics.median(r.seconds / r.yard_s for r in results),
            "setup_s": statistics.median(setup_seconds),
            "setup_rel": statistics.median(setup_rel),
            "peak_rss_mb": peak_rss_kb / 1024.0}


def plain_times(passes, results) -> dict:
    """The same pass and op medians in wall seconds, recorded but not gated."""
    return {"wall_s": statistics.median(sum(r.seconds for r in batch) for batch in passes),
            "op_p50_s": statistics.median(r.seconds for r in results)}


def aggregate_spans(docs) -> dict:
    """Sum the span files of one traced pass into calls, self time and counters.

    A span's self time is its duration minus the durations of its direct
    children; summing self time by layer therefore splits each op's traced
    time between the layers without double counting.
    """
    layer_calls: dict = {}
    layer_self_ns: dict = {}
    name_calls: dict = {}
    counters: dict = {}
    missing: set = set()
    for doc in docs:
        names = doc["names"]
        missing.update(doc["missing"])
        for key, value in doc["counters"].items():
            counters[key] = counters.get(key, 0) + value
        if not doc["spans"]:
            continue
        spans = np.asarray(doc["spans"], dtype=np.int64)
        parent, nid = spans[:, 2], spans[:, 3]
        duration = spans[:, 5] - spans[:, 4]
        child = np.zeros(len(spans), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        own = duration - child
        self_by_name = np.bincount(nid, weights=own, minlength=len(names))
        calls_by_name = np.bincount(nid, minlength=len(names))
        for i, (name, layer, kind) in enumerate(names):
            layer_self_ns[layer] = layer_self_ns.get(layer, 0.0) + float(self_by_name[i])
            if kind == "call":
                layer_calls[layer] = layer_calls.get(layer, 0) + int(calls_by_name[i])
                name_calls[name] = name_calls.get(name, 0) + int(calls_by_name[i])
    return {"layer_calls": layer_calls, "layer_self_s": {k: v / 1e9 for k, v in layer_self_ns.items()},
            "name_calls": name_calls, "counters": counters, "missing": sorted(missing)}


def per_layer(agg: dict, cli_seconds: dict, trace_overhead: float, failed_ratio: float) -> dict:
    """Every PER_LAYER metric; subcommands and layers a workload does not run read 0."""
    out = {}
    for sub in SUBCOMMANDS:
        samples = cli_seconds.get(sub, [])
        out[f"cli.{sub}.p50_s"] = statistics.median(samples) if samples else 0.0
    for layer in LAYERS + ("numpy.fft",):
        out[f"{layer}.calls"] = agg["layer_calls"].get(layer, 0)
        out[f"{layer}.self_s"] = agg["layer_self_s"].get(layer, 0.0)
    for metric, names in CALL_COUNTS.items():
        out[metric] = sum(agg["name_calls"].get(n, 0) for n in names)
    for name in COUNTERS:
        out[name] = agg["counters"].get(name, 0)
    lookups = agg["counters"].get("bounds.probe_cache.lookups", 0)
    hits = agg["counters"].get("bounds.probe_cache.hits", 0)
    out["bounds.probe_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    out["trace_overhead"] = trace_overhead
    out["failed_ratio"] = failed_ratio
    return out
