"""Outside-in trace shim: one blochbohr CLI invocation with every layer wrapped.

    python perfbench/shim.py --out SPANS.json --op-id N -- <blochbohr argv>

Nothing under ``src/`` is edited.  Before the CLI runs, the shim replaces
each function and method defined in the layer modules (cli, bounds,
extremal, norms, weights, series, search) and each public ``numpy.fft``
function by a wrapper that records a span.  A function is replaced in every
``blochbohr.*`` namespace that binds it, because ``from .search import
golden_max`` makes a copy of the name.  The objective handed to
``golden_max``, ``trisect_min``, ``bisect_root`` or ``grid_golden_max`` is
wrapped too: its evaluations are counted, and its time is booked to the
layer that defined it rather than to ``search``.

Spans (op id, span id, parent id, name, start, end) stay in memory and are
written to ``--out`` at exit together with the counters and the list of
targets the shim could not find.  Stdout and the exit code are the CLI's.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("cli", "bounds", "extremal", "norms", "weights", "series", "search")

#: functions whose first argument is an objective, and the counter of its evaluations
OBJECTIVE_TAKERS = {
    "search.golden_max": "search.golden_max.evals",
    "search.trisect_min": "search.trisect_min.evals",
    "search.bisect_root": "search.bisect_root.evals",
    "search.grid_golden_max": None,
}

#: names the per-layer metrics are read from; any that is missing is reported
REQUIRED_TARGETS = (
    "cli.main", "series.circle_sup", "series.eval_series", "search.golden_max",
    "search.trisect_min", "search.bisect_root", "search.grid_golden_max",
    "norms.weighted_radial_sup", "norms._series_radial_sup", "weights.Weight.__call__",
    "weights.criterion_check", "extremal.verify_sharpness", "bounds.theorem4_expression",
    "bounds.ProbeFunction.bloch_seminorm",
)

COUNTERS = (
    "search.golden_max.evals", "search.trisect_min.evals", "search.bisect_root.evals",
    "search.grid_scan.points", "series.eval_series.points", "series.eval_series.madds",
    "weights.weight_call.scalar_calls", "bounds.theorem4_expression.cells",
    "bounds.probe_cache.lookups", "bounds.probe_cache.hits",
)


def layer_of(module_name: str) -> str:
    if module_name.startswith("blochbohr."):
        return module_name.split(".", 1)[1]
    if module_name.startswith("numpy.fft"):
        return "numpy.fft"
    return "other"


class Tracer:
    """Span and counter store of one traced process."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list = []
        self.stack: list = []
        self.names: list = []
        self._name_ids: dict = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.found: set = set()

    def name_id(self, name: str, layer: str, kind: str) -> int:
        key = (name, kind)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append([name, layer, kind])
        return self._name_ids[key]

    def wrap(self, fn, name: str, layer: str, kind: str = "call", before=None, after=None):
        """A wrapper of ``fn`` that records one span per call.

        ``before(args, kwargs)`` may return replacement (args, kwargs);
        ``after(args, kwargs, result)`` updates counters.
        """
        nid = self.name_id(name, layer, kind)
        spans, stack, clock, op_id = self.spans, self.stack, time.perf_counter_ns, self.op_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (op_id, sid, parent, nid, t0, t1)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def objective(self, f, counter):
        """Wrap an objective: one span per evaluation, booked to f's own layer."""
        module = getattr(f, "__module__", None) or ""
        qual = getattr(f, "__qualname__", type(f).__name__)
        layer = layer_of(module)
        counters = self.counters

        def count(args, kwargs, result):
            counters[counter] += 1

        return self.wrap(f, f"{layer}.{qual}", layer, "objective",
                         after=count if counter else None)

    def dump(self, path: str, missing: list) -> None:
        doc = {"op_id": self.op_id, "names": self.names, "spans": self.spans,
               "counters": self.counters, "missing": missing}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _bind(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _hooks(tracer: Tracer, name: str, fn):
    """(before, after) hooks that feed the counters of target ``name``."""
    counters = tracer.counters
    if name in OBJECTIVE_TAKERS:
        counter = OBJECTIVE_TAKERS[name]
        params = list(inspect.signature(fn).parameters)
        first = params[0]

        def before(args, kwargs):
            if args:
                args = (tracer.objective(args[0], counter),) + args[1:]
            elif first in kwargs:
                kwargs = dict(kwargs, **{first: tracer.objective(kwargs[first], counter)})
            return args, kwargs

        after = None
        if name == "search.grid_golden_max":
            bind = _bind(fn)

            def after(args, kwargs, result):
                counters["search.grid_scan.points"] += int(bind(args, kwargs)["n_points"])
        return before, after
    if name == "series.eval_series":
        bind = _bind(fn)

        def after(args, kwargs, result):
            bound = bind(args, kwargs)
            points = int(np.size(bound["z"]))
            counters["series.eval_series.points"] += points
            counters["series.eval_series.madds"] += points * int(bound["s"].coeffs.size)
        return None, after
    if name == "weights.Weight.__call__":
        def after(args, kwargs, result):
            if len(args) > 1 and np.ndim(args[1]) == 0:
                counters["weights.weight_call.scalar_calls"] += 1
        return None, after
    if name == "bounds.theorem4_expression":
        def after(args, kwargs, result):
            counters["bounds.theorem4_expression.cells"] += int(np.size(result))
        return None, after
    return None, None


def _wrap_probe_cache(tracer: Tracer, method):
    """Count ProbeFunction.bloch_seminorm lookups answered from its cache."""
    counters = tracer.counters
    inner = tracer.wrap(method, "bounds.ProbeFunction.bloch_seminorm", "bounds")

    @functools.wraps(method)
    def lookup(self, *args, **kwargs):
        cache = getattr(self, "_norms", None)
        before = len(cache) if cache is not None else None
        result = inner(self, *args, **kwargs)
        counters["bounds.probe_cache.lookups"] += 1
        if cache is not None:
            counters["bounds.probe_cache.hits"] += int(len(cache) == before)
        return result

    return lookup


def install(tracer: Tracer) -> list:
    """Wrap every layer function in place; return the required targets not found."""
    modules = {layer: importlib.import_module(f"blochbohr.{layer}") for layer in LAYERS}
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if (n == "blochbohr" or n.startswith("blochbohr.")) and m is not None]
    wrapped: set = set()

    def rebind(original, wrapper):
        wrapped.add(id(original))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)

    for layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value):
                _wrap_methods(tracer, layer, value)
            elif callable(value) and id(value) not in wrapped:
                name = f"{layer}.{attr}"
                before, after = _hooks(tracer, name, value)
                rebind(value, tracer.wrap(value, name, layer, before=before, after=after))
                tracer.found.add(name)

    for attr in getattr(np.fft, "__all__", []):
        value = getattr(np.fft, attr, None)
        if callable(value) and not inspect.isclass(value):
            setattr(np.fft, attr, tracer.wrap(value, f"numpy.fft.{attr}", "numpy.fft"))
    return [t for t in REQUIRED_TARGETS if t not in tracer.found]


def _wrap_methods(tracer: Tracer, layer: str, cls) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("__") and attr not in ("__call__", "__post_init__"):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, (classmethod, staticmethod)):
            fn = raw.__func__
            setattr(cls, attr, type(raw)(tracer.wrap(fn, name, layer)))
        elif inspect.isfunction(raw):
            if name == "bounds.ProbeFunction.bloch_seminorm":
                setattr(cls, attr, _wrap_probe_cache(tracer, raw))
            else:
                before, after = _hooks(tracer, name, raw)
                setattr(cls, attr, tracer.wrap(raw, name, layer, before=before, after=after))
        else:
            continue
        tracer.found.add(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="span file to write at exit")
    parser.add_argument("--op-id", type=int, default=0)
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    tracer = Tracer(args.op_id)
    missing = install(tracer)
    cli = sys.modules["blochbohr.cli"]
    code = 1
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tracer.dump(args.out, missing)
    return code


if __name__ == "__main__":
    sys.exit(main())
