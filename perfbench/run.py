"""parakahler benchmark: one run of one workload, result as a JSON last line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Every pass runs in a fresh interpreter (``worker.py``), one at a
time, with BLAS/OpenMP pinned to one thread.

``--trace 0`` runs passes until ``--seconds`` is used up and reports the
end-to-end metrics.  ``--trace 1`` runs one untraced and one traced pass of
the same inputs and reports the per-layer metrics from the traced one, with
the tracing overhead.  See README.md for the metrics and the workloads.
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
import tempfile
import time
from pathlib import Path

from calibrate import K_REF_MS
from tracer import COUNTERS, SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("sweep", "exceptional", "queries", "chart")
# Each query's latency is its best of at least three fresh interpreters.
MIN_PASSES = {"queries": 3}
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
}

PER_LAYER = {
    **{t.metric: "s" for t in SPANS},
    **{t.metric: "count" for t in COUNTERS},
    "verify.jacobi_triples": "count",
    "gradation.gradations": "count",
    "paracomplex.det_identity_points": "count",
    "koszul.koszul_form_calls_per_gradation": "calls/gradation",
    "paracomplex.residual_max": "1",
    "paracomplex.lambda_err": "1",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Spawns one worker at a time and keeps the run inside its time limit."""

    def __init__(self, workload: str, seed: int, small: bool, workdir: Path):
        self.base = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                     "--seed", str(seed), "--workdir", str(workdir)]
        if small:
            self.base.append("--small")
        self.env = _env()
        self.started = time.monotonic()

    def spawn(self, *extra: str) -> dict:
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("run time limit reached")
        cmd = self.base + ["--spawn-ns", str(time.perf_counter_ns()), *extra]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("worker exceeded the run time limit") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
        return json.loads(lines[-1])


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def _check_digests(passes: list[dict]) -> None:
    """Fail an op whose output differs from the same query in an earlier pass."""
    first: dict[str, str] = {}
    for rec in passes:
        for op in rec["ops"]:
            digest = op["extra"].get("digest")
            if digest is None:
                continue
            seen = first.setdefault(op["name"], digest)
            if seen != digest and op["ok"]:
                op["ok"] = False
                op["detail"] = "output differs between fresh interpreters"


def _calibrated_ms(op: dict) -> float:
    return op["ms"] * K_REF_MS / op["k_ms"]


def timed_run(runner: Runner, workload: str, seconds: float) -> tuple[dict, list[dict], dict]:
    runner.spawn("--setup-only")  # warm the file cache; not counted
    passes, pass_times, setups = [], [], []
    t0 = time.monotonic()
    while True:
        t = time.monotonic()
        rec = runner.spawn("--pass-index", str(len(passes)))
        pass_times.append(time.monotonic() - t)
        passes.append(rec)
        setups.append(rec)
        elapsed = time.monotonic() - t0
        if (len(passes) >= MIN_PASSES.get(workload, 1)
                and elapsed + statistics.median(pass_times) > seconds):
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn("--setup-only"))
    _check_digests(passes)
    ops = [op for rec in passes for op in rec["ops"]]
    # Every pass repeats the same operations; an operation's time is its
    # fastest calibrated repetition.
    best: dict[str, float] = {}
    raw: dict[str, float] = {}
    for op in ops:
        best[op["name"]] = min(_calibrated_ms(op), best.get(op["name"], float("inf")))
        raw[op["name"]] = min(op["ms"], raw.get(op["name"], float("inf")))
    latencies = list(best.values())
    metrics = {
        "setup_s": statistics.median(r["setup_s"] * K_REF_MS / r["setup_k_ms"] for r in setups),
        "wall_s": sum(latencies) / 1e3,
        "peak_rss_mb": max(rec["rss_mb"] for rec in passes),
        "op_p50_ms": percentile(latencies, 50),
        "op_p95_ms": percentile(latencies, 95),
    }
    info = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "op_samples": len(latencies),
        "raw_setup_s": round(statistics.median(r["setup_s"] for r in setups), 4),
        "raw_wall_s": round(sum(raw.values()) / 1e3, 4),
        "k_ms": round(statistics.median(op["k_ms"] for op in ops), 3),
    }
    return metrics, ops, info


def traced_run(runner: Runner, workload: str, seed: int) -> tuple[dict, list[dict], dict]:
    untraced = runner.spawn("--pass-index", "0")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"trace-{workload}-seed{seed}.jsonl"
    traced = runner.spawn("--pass-index", "0", "--trace-out", str(spans))
    _check_digests([untraced, traced])
    raw_wall = sum(op["ms"] for op in traced["ops"]) / 1e3
    traced_wall = sum(_calibrated_ms(op) for op in traced["ops"]) / 1e3
    untraced_wall = sum(_calibrated_ms(op) for op in untraced["ops"]) / 1e3
    scale = traced_wall / raw_wall  # calibrate span times like the pass
    metrics = {
        name: value * scale if PER_LAYER.get(name) == "s" else value
        for name, value in traced["per_layer"].items()
    }
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    ops = untraced["ops"] + traced["ops"]
    metrics["paracomplex.residual_max"] = max(
        (op["extra"]["residual"] for op in ops if "residual" in op["extra"]), default=0.0)
    metrics["paracomplex.lambda_err"] = max(
        (op["extra"]["lambda_err"] for op in ops if "lambda_err" in op["extra"]), default=0.0)
    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise BenchError(f"traced pass did not report {sorted(missing)}")
    info = {"spans": str(spans.relative_to(ROOT)), "raw_wall_s": round(raw_wall, 4),
            "raw_self_sum_s": round(traced["self_sum_s"], 4)}
    return {name: metrics[name] for name in PER_LAYER}, ops, info


def context() -> dict:
    """Code and machine identity recorded with every result."""
    sources = sorted((SRC / "parakahler").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"src_lines": lines, "src_sha256": digest.hexdigest(), "commit": commit,
            "python": platform.python_version(), "nproc": os.cpu_count()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="parakahler benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced-size inputs, for tests")
    args = ap.parse_args(argv)

    if not (SRC / "parakahler" / "__init__.py").is_file():
        print(f"error: no parakahler sources under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        runner = Runner(args.workload, args.seed, args.small, workdir)
        if args.trace:
            metrics, ops, info = traced_run(runner, args.workload, args.seed)
            units = PER_LAYER
        else:
            metrics, ops, info = timed_run(runner, args.workload, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [op for op in ops if not op["ok"]]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(ops)}  failed {len(failed)}  {json.dumps(info)}")
    for op in failed[:5]:
        print(f"  FAILED {op['name']}: {op['detail']}")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:.6g} {units[name]}")
    print(f"context {json.dumps(context())}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
