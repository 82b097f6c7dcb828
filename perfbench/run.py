"""Cold-process benchmark of the blochbohr command line.

    python3 perfbench/run.py --workload {probe,norms,criterion,bounds}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
``src/``.  The benchmark generates the workload's op list from the seed
(gen.py), then runs it as a closed loop with one client: each op is a fresh
``python -m blochbohr ...`` process, started only after the previous one
has exited, because a CLI user pays interpreter start-up, import and every
cold cache on every run.  Passes over the op list repeat while another pass
fits in ``--seconds`` (at least one pass).  Every output is checked against
references the benchmark computes itself (checks.py).

A shared host's speed drifts: on a 2-vCPU VM the same seed-independent op
took 2.7 s in one run and 5.0 s a few minutes later, and a bare ``import
numpy`` swings with it.  So between every two ops (and every two
set-up samples) the benchmark times runs of a fixed yardstick
(yardstick.py), which imports nothing of blochbohr, and divides each op's
wall time by the median yardstick time around it.  The quotient, in
yardsticks, moves with the program and hardly with the host.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
wall_rel (median over passes of one pass's ops, each in yardsticks, summed),
op_p50_rel (median op in yardsticks), setup_s (median wall time of a fresh
interpreter importing blochbohr), setup_rel (the same, in yardsticks) and
peak_rss_mb (largest max-RSS of any op process).  The plain wall times,
wall_s and op_p50_s, are printed and recorded beside them.  With
``--trace 1`` the same untraced passes give the cli.* medians, and one more
pass through the trace shim (shim.py) gives the per-layer metrics.  Op
processes run with one BLAS/OpenMP thread.  Work files, span files and a
results file that records the environment go under ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import gen
import metrics

HERE = Path(__file__).resolve().parent
YARDSTICK = HERE / "yardstick.py"
#: the yardstick runs after an op take about this share of the op's time, at
#: least one run and at most YARDSTICK_MAX, so a long op is measured against
#: the machine's speed over more of its span
YARDSTICK_SHARE = 0.2
YARDSTICK_MAX = 8
SETUP_SAMPLES = 7
OP_TIMEOUT_S = 60.0
#: no op starts after RUN_LIMIT_S and none outlives RUN_DEADLINE_S, so a run
#: always ends inside 180 s
RUN_LIMIT_S = 140.0
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class OpResult:
    op: gen.Op
    seconds: float
    returncode: int
    maxrss_kb: int
    stdout: bytes
    failure: str | None = None
    #: median yardstick seconds around the op (untraced runs only)
    yard_s: float = 0.0

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def op_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_process(argv, cwd: Path, env: dict, stdout_path: Path, timeout: float = OP_TIMEOUT_S):
    """Run argv to completion -> (wall seconds, exit code, max RSS in KiB, stdout).

    The child is reaped with wait4 so its own max RSS is known; a watchdog
    kills it after ``timeout`` seconds.
    """
    lock = threading.Lock()
    done = False
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.DEVNULL)

        def kill():
            with lock:
                if not done:
                    proc.kill()

        watchdog = threading.Timer(timeout, kill)
        watchdog.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                done = True
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss, stdout_path.read_bytes()


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.work = root / ".bench_build" / "perfbench" / "run"
        shutil.rmtree(self.work, ignore_errors=True)
        self.inputs = self.work / "inputs"
        self.ops = gen.make_ops(workload, seed, self.inputs)
        self.env = op_env(root)
        self.verdicts: dict = {}
        #: yardstick seconds measured since the last op or set-up sample
        self.gap: list = []
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def check_import(self) -> None:
        """Fail unless ``import blochbohr`` resolves to this checkout's src/."""
        code = "import blochbohr, sys; sys.stdout.write(blochbohr.__file__)"
        _, rc, _, out = run_process([sys.executable, "-c", code], self.root, self.env,
                                    self.work / "import.out")
        where = Path(out.decode() or "/").resolve()
        if rc != 0 or (self.root / "src") not in where.parents:
            raise SystemExit(f"perfbench: cannot import blochbohr from {self.root / 'src'}")

    def yardstick(self, count: int) -> list:
        """Wall seconds of ``count`` yardstick runs, one after another."""
        argv = [sys.executable, str(YARDSTICK)]
        timeout = max(1.0, RUN_DEADLINE_S - self.elapsed())
        out = []
        for _ in range(count):
            seconds, rc, _, _ = run_process(argv, self.root, self.env,
                                            self.work / "yardstick.out", timeout)
            if rc != 0:
                raise SystemExit("perfbench: the yardstick run failed")
            out.append(seconds)
        return out

    def setup_seconds(self) -> tuple[list, list]:
        """Bare ``import blochbohr`` processes -> (seconds, seconds in yardsticks).

        A yardstick run precedes the first and follows each, so every sample
        has one on either side; the last one also precedes the first op.
        """
        argv = [sys.executable, "-c", "import blochbohr"]
        self.gap = self.yardstick(1)
        seconds, rel = [], []
        for _ in range(SETUP_SAMPLES):
            sample = run_process(argv, self.root, self.env, self.work / "setup.out")[0]
            after = self.yardstick(1)
            seconds.append(sample)
            rel.append(sample / statistics.median(self.gap + after))
            self.gap = after
        return seconds, rel

    def run_op(self, op: gen.Op, argv_prefix: list, stdout_path: Path) -> OpResult:
        timeout = min(OP_TIMEOUT_S, RUN_DEADLINE_S - self.elapsed())
        seconds, rc, rss, out = run_process(argv_prefix + list(op.argv), self.inputs,
                                            self.env, stdout_path, timeout)
        return OpResult(op, seconds, rc, rss, out)

    def verdict(self, res: OpResult):
        key = (res.op.op_id, res.returncode, res.sha256)
        if key not in self.verdicts:
            self.verdicts[key] = checks.check_op(res.op.check, res.returncode, res.stdout)
        return self.verdicts[key]

    def untraced(self, seconds: float) -> tuple[list, list]:
        """Closed-loop passes over the op list -> (complete passes, op results).

        Each pass is the list of its op results; after every op come the
        yardstick runs that, with those before it, give the op's yard_s.
        """
        prefix = [sys.executable, "-m", "blochbohr"]
        out = self.work / "op.out"
        passes, results, pass_seconds = [], [], []
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            batch = []
            for op in self.ops:
                if self.elapsed() > RUN_LIMIT_S:
                    break
                res = self.run_op(op, prefix, out)
                count = round(YARDSTICK_SHARE * res.seconds / statistics.median(self.gap))
                after = self.yardstick(min(YARDSTICK_MAX, max(1, count)))
                res.yard_s = statistics.median(self.gap + after)
                self.gap = after
                batch.append(res)
            else:
                passes.append(batch)
                pass_seconds.append(time.perf_counter() - t0)
            results += batch
            if len(batch) < len(self.ops):
                break
            spent = time.perf_counter() - t_start
            if spent + statistics.median(pass_seconds) > seconds:
                break
        for res in results:
            res.failure = self.verdict(res)
        return passes, results

    def traced(self, reference: dict) -> tuple[float, list, list]:
        """One pass through the shim -> (wall time, op results, span files)."""
        spans_dir = self.work / "spans"
        spans_dir.mkdir()
        out = self.work / "traced.out"
        results, span_files = [], []
        t0 = time.perf_counter()
        for op in self.ops:
            if self.elapsed() > RUN_LIMIT_S:
                break
            path = spans_dir / f"op{op.op_id}.json"
            prefix = [sys.executable, str(HERE / "shim.py"), "--out", str(path),
                      "--op-id", str(op.op_id), "--"]
            results.append(self.run_op(op, prefix, out))
            span_files.append(path)
        wall = time.perf_counter() - t0
        for res in results:
            base = reference.get(res.op.op_id)
            if base is None or (res.returncode, res.sha256) != (base.returncode, base.sha256):
                res.failure = "traced stdout or exit code differs from the untraced run"
            else:
                res.failure = self.verdict(res)
        return wall, results, span_files


def _read(path: str, default: str = "") -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def environment(root: Path, seed: int) -> dict:
    """What a result depends on besides the code: machine, toolchain, seed."""
    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"seed": seed, "nproc": os.cpu_count(), "cpu_model": model, "caches": caches,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": commit, "src_sha256": digest.hexdigest(),
            "op_threads": {var: "1" for var in THREAD_VARS},
            "loop": "closed, one client",
            "computed_not_measured": ["series.eval_series.madds"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Cold-process blochbohr CLI benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "blochbohr" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no src/blochbohr under {root}\n")
        return 2
    bench = Bench(root, args.workload, args.seed)
    bench.check_import()
    setup, setup_rel = bench.setup_seconds()
    passes, results = bench.untraced(args.seconds)
    if not passes:
        sys.stderr.write("perfbench: not a single pass completed\n")
        return 3
    e2e = metrics.end_to_end(passes, results, setup, setup_rel,
                             max(r.maxrss_kb for r in results))
    plain = metrics.plain_times(passes, results)

    untraced_count = len(results)
    layer, missing = None, []
    if args.trace:
        first = {}
        cli_seconds: dict = {}
        for res in results:
            first.setdefault(res.op.op_id, res)
            cli_seconds.setdefault(res.op.subcommand, []).append(res.seconds)
        wall, traced, span_files = bench.traced(first)
        agg = metrics.aggregate_spans(json.loads(p.read_text()) for p in span_files)
        missing = agg["missing"]
        results += traced
    failed = [r for r in results if r.failure is not None]
    if args.trace:
        layer = metrics.per_layer(agg, cli_seconds, wall / plain["wall_s"],
                                  len(failed) / len(results))

    env = environment(root, args.seed)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "passes": [{"wall_s": sum(r.seconds for r in batch),
                          "wall_rel": sum(r.seconds / r.yard_s for r in batch)}
                         for batch in passes],
              "setup_samples": setup, "setup_rel_samples": setup_rel,
              "end_to_end": e2e, "plain_times": plain, "per_layer": layer,
              "missing_targets": missing,
              "ops": [{"op_id": r.op.op_id, "argv": list(r.op.argv), "seconds": r.seconds,
                       "yardstick_s": r.yard_s, "exit": r.returncode, "max_rss_kb": r.maxrss_kb,
                       "stdout_sha256": r.sha256, "failure": r.failure} for r in results]}
    results_dir = root / ".bench_build" / "perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1))

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} pass(es) of "
          f"{len(bench.ops)} ops, closed loop with one client")
    print("environment: " + json.dumps(env))
    samples = {"wall_rel": len(passes), "op_p50_rel": untraced_count,
               "setup_s": len(setup), "setup_rel": len(setup)}
    for name, unit in metrics.END_TO_END:
        note = f"  (median of {samples[name]})" if name in samples else ""
        print(f"  {name:40s} {e2e[name]:14.6f} {unit}{note}")
    for name, value in plain.items():
        print(f"  {name:40s} {value:14.6f} s  (plain wall time, not gated)")
    for name, unit, _ in metrics.PER_LAYER if layer else ():
        print(f"  {name:40s} {layer[name]:14.6f} {unit}")
    for name in missing:
        print(f"  missing trace target: {name}")
    for r in failed:
        print(f"  FAILED op {r.op.op_id} {' '.join(r.op.argv)}: {r.failure}")
    for r in results:
        print(f"  op {r.op.op_id:2d} {r.seconds:8.4f} s  yardstick {r.yard_s:6.4f} s  "
              f"sha256 {r.sha256[:16]}  {' '.join(r.op.argv)}")
    print(f"results: {result_path.relative_to(root)}")

    if args.trace:
        out = {name: {"value": layer[name], "unit": unit} for name, unit, _ in metrics.PER_LAYER}
    else:
        out = {name: {"value": e2e[name], "unit": unit} for name, unit in metrics.END_TO_END}
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
