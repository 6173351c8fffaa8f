"""Smoke test of ``tools/bench_layers.py`` on the rank-2 sweep."""

import importlib.util
import json
from pathlib import Path

from parakahler import chevalley, verify

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"


def test_bench_layers_writes_one_record_and_restores_the_package(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    before = {name: getattr(verify, name) for name in tool.VERIFY_LAYERS}
    killing_basis = chevalley.LieAlgebraData.killing_basis

    path = tool.main(["--max-rank", "2", "--out", str(tmp_path), "--commit", "smoke"])

    assert path == tmp_path / "BENCH_smoke.json"
    record = json.loads(path.read_text())
    assert record["commit"] == "smoke" and record["src_lines"] > 0 and record["nproc"] >= 1
    sweep = record["sweep"]
    assert (sweep["algebras"], sweep["gradations"], sweep["all_ok"]) == (4, 10, True)
    assert sweep["calls"]["verify.check_two_form"] == 10
    assert sweep["calls"]["LieAlgebraData.closedness_functionals"] == 4  # once per algebra
    assert set(record["chart_log_model"]) == {"1", "2", "4", "8"}
    assert all(v["per_point_ms"] > 0 for v in record["chart_log_model"].values())
    # The timers are gone again.
    assert {name: getattr(verify, name) for name in tool.VERIFY_LAYERS} == before
    assert chevalley.LieAlgebraData.killing_basis is killing_basis
