"""Tests of the benchmark itself, on the reduced-size mode of each workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import ROOT, Tracer

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent

# A per-layer span that each workload must exercise.
LAYER_OF = {
    "sweep": "verify.check_two_form_s",
    "exceptional": "chevalley.killing_basis_s",
    "queries": "cli.cmd_s",
    "chart": "paracomplex.einstein_residual_s",
}


def _traced_pass(name: str, tmp_path: Path) -> tuple[Tracer, list]:
    workload = workloads.WORKLOADS[name]
    plan = workload.plan(workload.make_inputs(7, True, tmp_path), 0)
    tracer = Tracer()
    tracer.install()
    try:
        ops = workloads.execute(plan, tracer)
    finally:
        tracer.uninstall()
    return tracer, ops


@pytest.mark.parametrize("name", sorted(LAYER_OF))
def test_spans_nest_and_self_times_sum_to_wall(name, tmp_path):
    tracer, ops = _traced_pass(name, tmp_path)
    assert ops and all(op.ok for op in ops), [op.detail for op in ops if not op.ok]

    spans = tracer.spans
    roots = [s for s in spans if s[3] == -1]
    assert len(roots) == len(ops) and all(s[0] == ROOT for s in roots)
    for _, start, end, parent in spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start <= end <= p_end

    self_ns = tracer.self_times_ns()
    assert min(self_ns) >= 0
    wall_s = sum(op.ms for op in ops) / 1e3
    assert sum(self_ns) / 1e9 == pytest.approx(wall_s, rel=0.01, abs=1e-3)

    per_layer = tracer.per_layer()
    assert per_layer[LAYER_OF[name]] > 0
    assert all(op.k_ms > 0 for op in ops)


def test_uninstall_restores_every_original():
    from parakahler import chevalley, koszul, verify

    before = (verify.koszul_form, koszul.koszul_form, chevalley.LieAlgebraData.__dict__["basis_bracket"])
    tracer = Tracer()
    tracer.install()
    assert verify.koszul_form is not before[0]
    tracer.uninstall()
    after = (verify.koszul_form, koszul.koszul_form, chevalley.LieAlgebraData.__dict__["basis_bracket"])
    assert after == before


def test_sweep_counts_koszul_form_per_gradation(tmp_path):
    tracer, _ = _traced_pass("sweep", tmp_path)
    per_layer = tracer.per_layer()
    assert per_layer["gradation.gradations"] == workloads.SWEEP_EXPECT[2][1]
    assert per_layer["koszul.koszul_form_calls_per_gradation"] == 4
    assert per_layer["verify.jacobi_triples"] > 0
    assert per_layer["chevalley.basis_bracket_calls"] > 0


def _queries(inputs: dict, pass_index: int) -> list:
    return workloads.execute(workloads.queries_plan(inputs, pass_index))


def test_corrupted_golden_digest_is_a_failed_op(tmp_path):
    inputs = workloads.queries_inputs(3, True, tmp_path)
    inputs["goldens"] = {}
    ops = _queries(inputs, 0)
    assert all(op.ok for op in ops)
    goldens = {op.name: op.extra["digest"] for op in ops}

    victim = ops[0].name
    good = goldens[victim]
    goldens[victim] = ("0" if good[0] != "0" else "1") + good[1:]
    inputs["goldens"] = goldens
    ops = _queries(inputs, 1)
    failed = [op for op in ops if not op.ok]
    assert [op.name for op in failed] == [victim]
    assert "sha256" in failed[0].detail


def test_recorded_goldens_match_small_queries(tmp_path):
    inputs = workloads.queries_inputs(0, True, tmp_path)
    assert inputs["goldens"], "recorded digests are missing"
    ops = _queries(inputs, 0)
    assert any(op.name in inputs["goldens"] for op in ops)
    assert all(op.ok for op in ops), [op.detail for op in ops if not op.ok]


def _bench(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _declared() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(LAYER_OF))
def test_run_prints_declared_metrics(name, trace):
    proc = _bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", trace, "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if trace == "1":
        assert result["metrics"][LAYER_OF[name]]["value"] > 0


def test_declared_metrics_match_runner():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
