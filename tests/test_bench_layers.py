"""Smoke test of ``tools/bench_layers.py`` on the rank-2 sweep, the 155 queries, the
exceptional bracket tables, the chart reports of one seed and the start-up imports,
at one pass per section, chart dimensions n <= 2 and one start-up run per mode."""

import importlib.util
import json
from pathlib import Path

from parakahler import chevalley, cli, gradation, koszul, paracomplex, rootsys, verify

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"


def test_bench_layers_writes_one_record_and_restores_the_package(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.PASSES, tool.STARTUP_RUNS = 1, 1
    tool.CHART_DIMS, tool.CHART_GRIDS = (1, 2), ((1, 9), (2, 4))
    argvs = []  # every cli.main call the tool makes

    def main(argv):
        argvs.append(argv)
        return cli_main(argv)

    cli_main = cli.main
    monkeypatch.setattr(cli, "main", main)
    before = {name: getattr(verify, name) for name in tool.VERIFY_LAYERS}
    killing_basis = chevalley.LieAlgebraData.killing_basis
    modules = (chevalley, cli, gradation, koszul, paracomplex, rootsys, verify)
    namespaces = [dict(vars(m)) for m in modules]
    classes = {cls: dict(vars(cls)) for cls in (rootsys.RootSystem, koszul.EinsteinStructure,
                                                 chevalley.BasisIndex, cli.Report,
                                                 paracomplex.ChartPotential)}
    weights_func = rootsys.RootSystem.__dict__["weights"].func
    derivatives_func = paracomplex.ChartPotential.__dict__["derivatives"].func

    path = tool.main(["--max-rank", "2", "--out", str(tmp_path), "--commit", "smoke"])

    assert path == tmp_path / "BENCH_smoke.json"
    record = json.loads(path.read_text())
    assert record["commit"] == "smoke" and record["src_lines"] > 0 and record["nproc"] >= 1
    sweep = record["sweep"]
    assert (sweep["algebras"], sweep["gradations"], sweep["all_ok"]) == (4, 10, True)
    assert sweep["calls"]["verify.check_two_form"] == 10
    assert sweep["calls"]["LieAlgebraData.cartan_action"] == 4  # once per algebra
    queries = record["queries"]
    assert (queries["seed"], queries["reports"], queries["failed"]) == (1, 155, 0)
    # The reports and chart configs are perfbench's own, not copies of them.
    workloads = tool._workloads()
    assert argvs[:155] == workloads.query_set(1, False)
    charts = workloads.chart_inputs(1, False, tmp_path)["configs"]
    assert [Path(argv[1]).stem for argv in argvs[155:]] == [c["name"] for c in charts]
    calls = queries["calls"]
    # One argv reading, root system and JSON rendering per report; five commands over 31
    # types.  Every argv is well formed, so no argparse parser is built.
    for name in ("cli.read_argv", "rootsys.build_root_system", "Report.to_json"):
        assert calls[name] == 155
    assert "cli.build_parser" not in calls
    # The inverse of A (the weights) is read by the 31 ``roots`` reports only.
    assert calls["rootsys.bareiss_inverse"] == calls["RootSystem.weights"] == 31
    assert calls["gradation.grade_from_crossing"] == 4 * 31  # one per non-roots report
    assert calls["koszul.two_form_from_weight"] == 3 * 31  # koszul, rho, einstein
    assert calls["koszul.einstein_structure"] == calls["EinsteinStructure.signature"] == 31
    assert calls["rootsys.format_coeffs"] > 0 and "BasisIndex.label" in calls
    assert set(queries["layers_self_s"]) == set(calls)
    # One chevalley_constants build per type; E8's 15,504 entries sit in 752 dicts.
    tables = record["algebra_tables"]
    assert list(tables) == ["F4", "E6", "E7", "E8"]
    for section in tables.values():
        assert set(section) == {"build_s", "traced_bytes", "traced_peak_bytes",
                                "entries", "distinct_dicts"}
        assert section["build_s"] > 0
        assert 0 < section["traced_bytes"] <= section["traced_peak_bytes"]
    assert (tables["E8"]["entries"], tables["E8"]["distinct_dicts"]) == (15504, 752)
    assert set(record["chart_log_model"]) == {"1", "2"}
    assert all(v["per_point_ms"] > 0 for v in record["chart_log_model"].values())
    # Whole point sets through einstein_residual: grids at n = 1 and 2.
    grids = record["chart_grid"]
    assert {n: (v["grid"], v["points"]) for n, v in grids.items()} == {"1": (9, 81), "2": (4, 256)}
    assert all(v["per_point_ms"] > 0 for v in grids.values())
    # One potential report per chart config of seed 1, each stage once; the flat
    # config's lambda is given, so only the log models fit one.
    report = record["chart_report"]
    assert list(report) == ["seed"] + [c["name"] for c in charts]
    assert report.pop("seed") == 1
    for name, section in report.items():
        assert section["exit"] == 0 and section["passes"] == tool.PASSES
        assert section["calls"] == {
            "paracomplex.parse_potential_config": 1, "paracomplex.grid_points": 1,
            "ChartPotential.derivatives": 1, "paracomplex.einstein_residual": 1,
            "paracomplex.determinant_identity_residual": 1, "Report.to_json": 1,
            **({} if name.startswith("flat") else {"paracomplex.fit_lambda": 1})}
        assert set(section["layers_self_s"]) == set(section["calls"])
        assert section["wall_s"] > 0
    # Start-up: ``import parakahler.cli`` in fresh interpreters, without bytecode and with it.
    startup = record["startup"]
    assert set(startup) == {"runs", "no_bytecode", "bytecode"}
    assert startup["runs"] == tool.STARTUP_RUNS
    for section in (startup["no_bytecode"], startup["bytecode"]):
        assert set(section) == {"import_s", "self_us"} and section["import_s"] > 0
        assert {"parakahler", "parakahler.cli", "parakahler.rootsys"} <= set(section["self_us"])
    # The timers are gone again.
    assert {name: getattr(verify, name) for name in tool.VERIFY_LAYERS} == before
    assert chevalley.LieAlgebraData.killing_basis is killing_basis
    assert [dict(vars(m)) for m in modules] == namespaces
    assert {cls: dict(vars(cls)) for cls in classes} == classes
    assert rootsys.RootSystem.__dict__["weights"].func is weights_func
    assert paracomplex.ChartPotential.__dict__["derivatives"].func is derivatives_func
