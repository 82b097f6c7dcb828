"""Tests of the benchmark itself: inputs, reference checks, trace shim, metric names.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    a = gen.make_ops(workload, 7, tmp_path / "a")
    b = gen.make_ops(workload, 7, tmp_path / "b")
    c = gen.make_ops(workload, 8, tmp_path / "c")
    assert [(op.argv, op.check) for op in a] == [(op.argv, op.check) for op in b]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [op.argv for op in a] != [op.argv for op in c]


def _run_cli(argv) -> tuple[int, bytes]:
    from blochbohr.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue().encode()


def _bump(rep: dict, kind: str) -> None:
    """Move one reported number off its true value."""
    if kind == "theorem1":
        rep["r"] *= 1.0 + 1e-6
    elif kind == "theorem4":
        rep["sup_r"] *= 1.0 + 1e-6
    elif kind == "theorem4-search":
        rep["best_value"] *= 1.0 + 1e-6
    elif kind == "bombieri":
        rep["entries"][-1]["m_infty"] *= 1.0 + 1e-6
    elif kind == "h-profile":
        rep["rows"][5][3] *= 1.0 + 1e-6
    elif kind == "weight-anchored":
        rep["worst_margin"] += 1e-3
    elif kind == "norms":
        rep["radial_sup"]["value"] *= 1.0 + 1e-6
    else:
        raise AssertionError(kind)


@pytest.mark.parametrize("workload,kinds", [
    ("bounds", ("theorem1", "theorem4", "theorem4-search", "bombieri")),
    ("criterion", ("weight-anchored", "h-profile")),
    ("norms", ("norms",)),
])
def test_perturbed_output_counts_as_failed(workload, kinds, tmp_path, monkeypatch):
    ops = gen.make_ops(workload, 3, tmp_path)
    monkeypatch.chdir(tmp_path)
    seen = set()
    for op in ops:
        kind = op.check["kind"]
        if kind not in kinds or kind in seen:
            continue
        seen.add(kind)
        code, out = _run_cli(op.argv)
        assert checks.check_op(op.check, code, out) is None, op.argv
        rep = json.loads(out)
        _bump(rep, kind)
        assert checks.check_op(op.check, code, json.dumps(rep).encode()) is not None, op.argv
        assert checks.check_op(op.check, 1, out) is not None, op.argv
    assert seen == set(kinds)


def _traced(argv, out: Path, extra: str = "") -> tuple[bytes, dict]:
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import shim; {extra}"
            f"sys.exit(shim.main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, "--out", str(out), "--", *argv],
                          capture_output=True, env={"PYTHONPATH": str(ROOT / "src")},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout, json.loads(out.read_text())


def test_equal_argv_gives_identical_traced_counts(tmp_path):
    argv = ("weight-check", "--weight", "example2:r0=0.8,alpha=1", "--format", "json")
    out1, doc1 = _traced(argv, tmp_path / "a.json")
    out2, doc2 = _traced(argv, tmp_path / "b.json")
    assert out1 == out2 == _run_cli(argv)[1]
    agg1, agg2 = metrics.aggregate_spans([doc1]), metrics.aggregate_spans([doc2])
    for key in ("layer_calls", "name_calls", "counters"):
        assert agg1[key] == agg2[key]
    assert agg1["counters"]["search.trisect_min.evals"] > 0
    assert agg1["missing"] == []


def test_shim_lists_missing_targets(tmp_path):
    argv = ("theorem1", "--s", "0.5", "--format", "json")
    _, doc = _traced(argv, tmp_path / "a.json",
                     extra="shim.REQUIRED_TARGETS += ('series.no_such_kernel',); ")
    assert doc["missing"] == ["series.no_such_kernel"]


def test_self_time_splits_span_durations():
    doc = {"names": [["cli.main", "cli", "call"], ["series._horner", "series", "call"],
                     ["series.f.<locals>.<lambda>", "series", "objective"]],
           "spans": [[0, 0, -1, 0, 0, 100], [0, 1, 0, 1, 10, 40], [0, 2, 1, 2, 15, 25]],
           "counters": {}, "missing": []}
    agg = metrics.aggregate_spans([doc])
    assert agg["layer_self_s"] == {"cli": 70e-9, "series": 30e-9}
    assert agg["layer_calls"] == {"cli": 1, "series": 1}


ISSUE_PER_LAYER = (
    [f"cli.{s}.p50_s" for s in ("theorem1", "theorem4", "theorem2-check", "theorem5-probe",
                                "bombieri", "weight-check", "h-profile", "sharpness", "norms")]
    + [f"{layer}.{m}" for layer in ("bounds", "extremal", "norms", "weights", "series", "search")
       for m in ("calls", "self_s")]
    + ["numpy.fft.calls", "series.circle_sup.calls", "search.golden_max.calls",
       "search.golden_max.evals", "series.eval_series.calls", "series.eval_series.points",
       "series.eval_series.madds", "norms.radial_sup.calls", "weights.weight_call.calls",
       "weights.weight_call.scalar_calls", "weights.criterion_check.calls",
       "extremal.verify_sharpness.calls", "search.trisect_min.evals",
       "search.bisect_root.evals", "search.grid_scan.points",
       "bounds.theorem4_expression.cells", "bounds.probe_cache.hit_ratio", "trace_overhead"])


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(metrics.PER_LAYER)
    names = [m[0] for m in metrics.PER_LAYER]
    assert set(ISSUE_PER_LAYER) <= set(names)
    # failed_ratio can read 0, which an end-to-end metric may not; fft self time
    # is what the fft spans take out of their callers' self time
    assert set(names) - set(ISSUE_PER_LAYER) == {"failed_ratio", "numpy.fft.self_s"}


def test_emitted_metrics_are_exactly_the_declared_ones():
    agg = metrics.aggregate_spans([])
    layer = metrics.per_layer(agg, {"norms": [1.0, 3.0]}, 1.1, 0.0)
    assert list(layer) == [m[0] for m in metrics.PER_LAYER]
    assert layer["cli.norms.p50_s"] == 2.0
    op = SimpleNamespace
    passes = [[op(seconds=1.0, yard_s=0.5), op(seconds=2.0, yard_s=0.5)],
              [op(seconds=1.5, yard_s=0.25), op(seconds=1.0, yard_s=0.5)]]
    results = [r for batch in passes for r in batch]
    e2e = metrics.end_to_end(passes, results, [0.3, 0.2, 0.4], [0.6, 0.5, 0.7], 2048)
    assert list(e2e) == [m[0] for m in metrics.END_TO_END]
    assert e2e == {"wall_rel": 7.0, "op_p50_rel": 3.0, "setup_s": 0.3, "setup_rel": 0.6,
                   "peak_rss_mb": 2.0}
    assert metrics.plain_times(passes, results) == {"wall_s": 2.75, "op_p50_s": 1.25}
