import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parakahler import chevalley, cli, rootsys
from parakahler.cli import main
from parakahler.verify import sweep_types


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_g2(capsys):
    code, out, _ = run(capsys, "roots", "G", "2")
    assert code == 0
    assert "positive_root_count: 6" in out
    assert "3a1+2a2" in out
    assert "[pass]" in out


def test_roots_a1(capsys):
    code, out, _ = run(capsys, "roots", "A", "1")
    assert code == 0
    assert "positive_roots: 1a1" in out


def test_roots_invalid_rank(capsys):
    code, out, err = run(capsys, "roots", "E", "9")
    assert code == 1
    assert "invalid rank" in err
    assert out == ""


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["roots"])
    assert exc.value.code == 2


def test_koszul_g2_case_i(capsys):
    code, out, _ = run(capsys, "koszul", "G", "2", "--cross", "1")
    assert code == 0
    assert "10pi1" in out
    assert "20a1+10a2" in out
    assert "a=5" in out and "b=3" in out
    assert "orbit_dimension: 10" in out
    assert "kernel of d(psi) equals g_0" in out


def test_koszul_sl2h(capsys):
    code, out, _ = run(capsys, "koszul", "A", "3", "--cross", "2", "--satake", "sl2H")
    assert code == 0
    assert "8pi2" in out
    assert "4a1+8a2+4a3" in out
    assert "orbit_dimension: 8" in out


def test_koszul_sl2h_black_node_crossed(capsys):
    code, out, err = run(capsys, "koszul", "A", "3", "--cross", "1", "--satake", "sl2H")
    assert code == 1
    assert "black node 1" in err


def test_koszul_satake_type_mismatch(capsys):
    code, _, err = run(capsys, "koszul", "G", "2", "--cross", "1", "--satake", "sl2H")
    assert code == 1
    assert "type" in err


def test_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "koszul", "G", "2", "--cross", "1,2", "--json")
    code2, out2, _ = run(capsys, "koszul", "G", "2", "--cross", "1,2", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == "parakahler-report/1"
    assert payload["payload"]["psi"]["alpha_basis"] == "20a1+12a2"


def test_json_deterministic_across_processes(tmp_path):
    # Different hash seeds must not leak into the serialized report, on the
    # Lie side or in the chart lab.
    cfg = tmp_path / "log-n2.cfg"
    cfg.write_text("n = 2\nkind = builtin\nbuiltin = log1p_zzbar\ngrid = 3\n")
    for args in (["koszul", "F", "4", "--cross", "1,3"], ["potential", str(cfg)]):
        cmd = [sys.executable, "-m", "parakahler.cli", *args, "--json"]
        outs = []
        for seed in ("1", "33"):
            env = {**os.environ, "PYTHONHASHSEED": seed}
            proc = subprocess.run(cmd, capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and outs[0]


def test_gradations_table(capsys):
    code, out, _ = run(capsys, "gradations", "G", "2")
    assert code == 0
    assert out.count("depth=") == 3


@pytest.mark.parametrize("cross", ["", ","])
def test_gradations_empty_cross_is_domain_error(capsys, cross):
    # An empty --cross is a crossing set with no node, not "all crossings".
    code, out, err = run(capsys, "gradations", "A", "3", "--cross", cross)
    assert code == 1
    assert "crossing set is empty" in err
    assert out == ""


def test_rho_kernel(capsys):
    code, out, _ = run(capsys, "rho", "G", "2", "--cross", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["payload"]["kernel_dimension"] == 4
    coeffs = {row["root"]: row["coefficient"] for row in payload["payload"]["rho"]}
    assert coeffs["1a2"] == "0" and coeffs["2a1+1a2"] == "20"


def test_einstein_signature(capsys):
    code, out, _ = run(capsys, "einstein", "A", "1", "--cross", "1", "--lambda", "1/2")
    assert code == 0
    assert "signature: 1, 1" in out
    assert "value=-8" in out  # lambda^{-1} scales the block
    assert "k_plus: 1a1" in out and "k_minus: -1a1" in out


def test_einstein_negative_lambda_in_equals_form(capsys):
    # argparse reads "-1/2" after a space as an option, so a negative value
    # is given as --lambda=-1/2; it negates every metric entry.
    def entries(*lam):
        code, out, _ = run(capsys, "einstein", "A", "1", "--cross", "1", *lam, "--json")
        assert code == 0
        return json.loads(out)["payload"]["metric_entries"]

    positive, negative = entries("--lambda", "1/2"), entries("--lambda=-1/2")
    assert negative == [{**e, "value": str(-int(e["value"]))} for e in positive]
    assert positive and positive[0]["value"] == "-8"


# sha256 of each type's `koszul`, `rho`, `einstein` and `einstein --lambda=-3/7`
# --json reports, concatenated in that order at crossings {1}, {rank} and all
# nodes.  Recorded while the metric still paired alpha with -alpha through a
# root-keyed index, so the positional pairing must reproduce these bytes.
REPORTS_SHA256 = {
    "A1": "2ad47f75ecb0f97b5ff47cb3c5b31379e3efa08f8ce1b047a366778695a6bfd9",
    "A2": "8ff42473b8e125a25158f232154dcae8e124299f6a21b8807293cb1d081f564c",
    "A3": "3aef2aaf3507c0d79a26c3bc4b0f6de38e7f876135c4edf9600b4abb2ff1835c",
    "A4": "c43c3dcd0239127645196876dbb5031c551b151652fd4c0946db4cbe876dbac5",
    "A5": "827799cad39dc73b5214056731aa5551c071b63c249a06b42bed409c7ee3eb8d",
    "A6": "578d6f86f1071c03e6984ee6ab2d7e66a97a77093d65669facc884bc7a0b4c0b",
    "A7": "8c9d20b0aeb2e1e90215e3a13f5a3a607444253895a2ef9d2363126775d05d8a",
    "A8": "118000c3d71e855542e973472a9ee8bff89aca018eed4fb8b0edf92da03aa742",
    "B2": "309a8ff1580b7e27d99c73b081af543c69ef68d76b918f01776f8b65a07d4302",
    "B3": "1155731654176ee865e6190c473bb65e6526926d948d8a4516e0c8ce5e15b111",
    "B4": "97a4b72684df582586603bfb910d4a1e038a328b4da5b107e91a48a07582e7f5",
    "B5": "1bcf648172f19c0cac25f45ea301e6a5640e0d63ddde0c678c324010391721f0",
    "B6": "be2c96074c4e2254989e0b6a4248672aef75fd43e591f68ff77c4f89edacd187",
    "B7": "bbd44ee9c1be801ab02707b4faa58b3b079920711a827976c7127c2ad31ff444",
    "B8": "a0846fddba5c9bb34e3dd0587de923963954644966cf9ef9aac0754442226940",
    "C3": "5cd944bfc449b06e2975a849caf62ac5005e303234e5b6941337ab3c037786ce",
    "C4": "ef17f72785a64bff4b430d93dc268d7dbc50808aa4fe708facb367d0b14bef77",
    "C5": "da9b6ed58b6a79bdc3d1dc3363506bcf79159386171d405beb0a1a4ff30a71d5",
    "C6": "dd0b108664e322c0ad69335f2f0c5f7ab3ff327b01ad7fda84fac2557a0985e6",
    "C7": "c627ef2f3ae6e30cd9b2ef1fdd3f18603ed0111806d7ca1985db1fd4aeecbe7a",
    "C8": "b0820b2ccf6c446a2c75d11c29155c1e530232a7ea5d8a5ce74baaaafe4d9e88",
    "D4": "7f34d208ada86c0e40bef196e43c555566c1c4c3eb39b1ec8935558691a557e8",
    "D5": "40376cd52bc8bcfa4181231afa199f3a1ad9b6c664ad5ada4d33f5a8e8fe81cb",
    "D6": "3838313902402a8fbc552c27908637855527d01b867731ff67a54806b576742d",
    "D7": "74705a8b21a6e47c728fc94e91ed43ae1dd91cd8a659b98bcc75045a11779c06",
    "D8": "676d706a48943297fe701793dcc05b87b659687eda405cbc2b6311291943322d",
    "E6": "ef8abc4582518467806a6ce2388a8b9a123bf0977aab278dec9f864b5bd1edd4",
    "E7": "2d756d6f1faa199568fcdd0439815df238bed4237896bc4481eb3583acad6583",
    "E8": "aa10b1dbb61d1eace5988353e3d207467fb3177921e8fdbe988440fbe8ae57e7",
    "F4": "548f3df88657bfd8baf61a145bbad29899399487e83dabb0ee692caf251dea83",
    "G2": "07fc2d3bb1c4f7b87bac9987064cfb6be9561715b2868088dadd07b3b00fe052",
}


@pytest.mark.parametrize("name", [str(t) for t in sweep_types(8)])
def test_report_digest(name, capsys):
    family, rank = name[0], name[1:]
    every = ",".join(map(str, range(1, int(rank) + 1)))
    digest = hashlib.sha256()
    for cross in dict.fromkeys(("1", rank, every)):
        for command, *extra in (["koszul"], ["rho"], ["einstein"], ["einstein", "--lambda=-3/7"]):
            code, out, err = run(capsys, command, family, rank, "--cross", cross, *extra, "--json")
            assert code == 0, err
            digest.update(out.encode())
    assert digest.hexdigest() == REPORTS_SHA256[name]


# sha256 of `verify --max-rank 8 --json`, the whole advertised scope.
VERIFY_RANK8_SHA256 = "336aad13d811575da5ccc5e12d1fedd5d1c10a4898a0e08716ec045322d74d21"


@pytest.mark.slow
def test_verify_rank8_sweep(capsys):
    # The whole advertised scope; deselected by default, run with -m slow.
    import resource

    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--max-rank", "8", "--json")
    wall = time.perf_counter() - start
    payload = json.loads(out)["payload"]
    assert code == 0
    assert (payload["algebras"], payload["gradations"]) == (31, 2455)
    assert payload["failures"] == []
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_RANK8_SHA256
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    with capsys.disabled():
        print(f"\nverify --max-rank 8: {wall:.1f} s, peak RSS {peak_mb:.1f} MB")


def test_verify_rank1(capsys):
    code, out, _ = run(capsys, "verify", "--max-rank", "1")
    assert code == 0
    assert "[pass] all oracle checks" in out


@pytest.mark.parametrize("max_rank", ["0", "-3"])
def test_verify_max_rank_below_one_is_usage_error(capsys, max_rank):
    # Checking no algebra at all must not report a pass.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-rank", max_rank])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must be at least 1" in captured.err
    assert "[pass]" not in captured.out


@pytest.mark.parametrize("max_rank", ["9", "20"])
def test_verify_max_rank_above_eight_is_usage_error(capsys, max_rank):
    # No type of rank above 8 is in scope; the bound is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-rank", max_rank])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must be at most 8" in captured.err
    assert "invalid rank" not in captured.err
    assert captured.out == ""


def test_einstein_report_builds_no_chevalley_constants(capsys, monkeypatch):
    # The metric depends on the gradation alone.
    def refuse(rs):
        raise AssertionError("chevalley_constants called")

    monkeypatch.setattr(chevalley, "chevalley_constants", refuse)
    # ... and the name a ``from`` import would bind in the cli module.
    monkeypatch.setattr(cli, "chevalley_constants", refuse, raising=False)
    code, out, _ = run(capsys, "einstein", "E", "8", "--cross", "1,4,8", "--json")
    assert code == 0
    assert json.loads(out)["payload"]["signature"] == [112, 112]


@pytest.mark.parametrize(
    "argv, formatted",
    [
        # The 224 roots of m, each once, though each is named in k_plus or k_minus,
        # in metric_basis and in metric_entries.
        (["einstein", "E", "8", "--cross", "1,4,8"], 224),
        # The 120 positive roots, and psi over the a and the pi basis.
        (["koszul", "E", "8", "--cross", "1"], 122),
        # The 120 positive roots and the 8 fundamental weights.
        (["roots", "E", "8"], 128),
    ],
)
def test_reports_format_each_root_once(capsys, monkeypatch, argv, formatted):
    calls = []
    fmt = rootsys.format_coeffs
    monkeypatch.setattr(rootsys, "format_coeffs", lambda *a, **k: calls.append(a) or fmt(*a, **k))
    monkeypatch.setattr(cli, "format_coeffs", rootsys.format_coeffs)
    code, _, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert len(calls) == formatted


def test_catalog(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "sl2H" in out
    code, out, _ = run(capsys, "catalog", "sl2H")
    assert code == 0
    assert "black: 1, 3" in out


def test_potential_flat(tmp_path, capsys):
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(
        "n = 1\nkind = polynomial\nmonomial = 1 * z1 * zbar1\n"
        "lambda = 0\nextent = 0.3\ngrid = 3\n"
    )
    code, out, _ = run(capsys, "potential", str(cfg))
    assert code == 0
    assert "einstein_residual: 0.0" in out


def test_potential_log_model(tmp_path, capsys):
    cfg = tmp_path / "log.cfg"
    cfg.write_text("n = 1\nkind = builtin\nbuiltin = log1p_zzbar\ngrid = 5\n")
    code, out, _ = run(capsys, "potential", str(cfg), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["payload"]["lambda_source"] == "fitted"
    assert abs(payload["payload"]["lambda"] - 2.0) < 1e-3
    assert payload["payload"]["einstein_residual"] < 1e-5


def test_potential_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kind = polynomial\n")
    code, _, err = run(capsys, "potential", str(cfg))
    assert code == 1
    assert "missing required key" in err


def test_potential_no_admissible_points(tmp_path, capsys):
    cfg = tmp_path / "far.cfg"
    cfg.write_text(
        "n = 1\nkind = builtin\nbuiltin = log1p_zzbar\nmargin = 2.0\ngrid = 3\n"
    )
    code, _, err = run(capsys, "potential", str(cfg))
    assert code == 1
    assert "admissible" in err


@pytest.mark.parametrize("text,message", [
    ("n = 1\nkind = polynomial\nmonomial = 1 * z1^2 * zbar1^2\nlambda = 0\ngrid = 3\n",
     "error: metric is singular at (-0.3, 0.0)\n"),
    ("n = 1\nkind = builtin\nbuiltin = log1p_zzbar\ngrid = 9\nextent = 2\nmargin = -5\n",
     "error: log argument 0.0 is not positive\n"),
], ids=["singular-metric", "log-argument"])
def test_potential_names_the_first_failing_grid_point(tmp_path, capsys, text, message):
    # g = 4 u v is singular at the second grid point; with margin -5 the log
    # model reaches P = 1 + u v = 0 at (-2.0, 0.5).  Pinned byte for byte.
    cfg = tmp_path / "fails.cfg"
    cfg.write_text(text)
    for extra in ((), ("--json",)):
        assert run(capsys, "potential", str(cfg), *extra) == (1, "", message)


def test_potential_missing_file(capsys):
    code, _, err = run(capsys, "potential", "/no/such/file.cfg")
    assert code == 1
    assert "error" in err


def test_potential_reports_checked_points_and_residual_argmax(tmp_path, capsys):
    cfg = tmp_path / "log2.cfg"
    cfg.write_text("n = 2\nkind = builtin\nbuiltin = log1p_zzbar\ngrid = 3\n")
    code, out, _ = run(capsys, "potential", str(cfg), "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["det_identity_points"] == 5
    where = payload["residual_argmax"]
    assert len(where) == 4 and all(abs(c) <= 0.3 for c in where)
    assert payload["einstein_residual"] < 1e-12


def test_potential_unknown_key_fails(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("n = 1\nkind = builtin\nlamda = 7\ngrid = 3\n")
    code, out, err = run(capsys, "potential", str(cfg))
    assert code == 1
    assert out == ""
    assert "line 3" in err and "'lamda'" in err


def test_closed_stdout_pipe_exits_without_traceback():
    # The reader of a pipe may leave early (`| head`); no traceback follows.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "parakahler", "roots", "A", "1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


@pytest.mark.parametrize(
    "line, key",
    [("extent = nan", "extent"), ("extent = inf", "extent"), ("extent = abc", "extent"),
     ("margin = x", "margin"), ("grid = 2.5", "grid"), ("lambda = 1/0", "lambda"),
     ("lambda = 1e400", "lambda"), ("scale = -1e400", "scale"), ("n = two", "n"),
     ("n = 1000", "n")],
)
def test_potential_bad_numbers_name_key_and_line(tmp_path, capsys, line, key):
    # extent = nan used to sample all-NaN points and pass both checks with
    # exit 0; extent = abc failed with Python's bare float-conversion message.
    cfg = tmp_path / "number.cfg"
    cfg.write_text(f"kind = builtin\n{line}\n" + ("" if key == "n" else "n = 1\n"))
    code, out, err = run(capsys, "potential", str(cfg))
    assert code == 1
    assert out == ""
    assert f"line 2: {key} must be" in err


def test_potential_determinant_identity_spread_over_grid(tmp_path, capsys, monkeypatch):
    from parakahler import cli

    calls = []
    real = cli.determinant_identity_residual

    def spy(potential, pairs):
        calls.append(list(pairs))
        return real(potential, pairs)

    monkeypatch.setattr(cli, "determinant_identity_residual", spy)
    cfg = tmp_path / "log2.cfg"
    cfg.write_text("n = 2\nkind = builtin\nbuiltin = log1p_zzbar\ngrid = 3\n")
    code, out, _ = run(capsys, "potential", str(cfg), "--json")
    assert code == 0
    assert json.loads(out)["payload"]["det_identity_points"] == 5
    assert len(calls) == 1  # one block for all five (point, axis) pairs
    (seen,) = calls
    points = [p for p, _ in seen]
    assert len(set(points)) == 5
    assert points[0] == (-0.3,) * 4 and points[-1] == (0.3,) * 4
    assert [axis for _, axis in seen] == [0, 1, 2, 3, 0]


def _satake_file(tmp_path, text):
    path = tmp_path / "form.satake"
    path.write_text(text)
    return str(path)


def test_koszul_satake_arrow_outside_involution_fails(tmp_path, capsys):
    path = _satake_file(tmp_path, "type = G\nrank = 2\narrows = 1-2\n")
    code, out, err = run(capsys, "koszul", "G", "2", "--cross", "1", "--satake", path)
    assert code == 1
    assert out == ""
    assert "involution" in err


def test_koszul_satake_a3_arrow_accepted(tmp_path, capsys):
    path = _satake_file(tmp_path, "type = A\nrank = 3\narrows = 1-3\n")
    code, out, _ = run(capsys, "koszul", "A", "3", "--cross", "1,3", "--satake", path, "--json")
    assert code == 0
    assert json.loads(out)["payload"]["satake"]["arrows"] == [[1, 3]]


def test_koszul_satake_unknown_key_fails(tmp_path, capsys):
    # `arrow` (for `arrows`) used to parse silently to a diagram with no arrows.
    path = _satake_file(tmp_path, "type = A\nrank = 3\narrow = 1-3\n")
    code, out, err = run(capsys, "koszul", "A", "3", "--cross", "1", "--satake", path)
    assert code == 1
    assert out == ""
    assert "line 3: unknown key 'arrow'" in err


def test_koszul_satake_crossed_key_fails(tmp_path, capsys):
    # The crossing comes from --cross alone; a `crossed` line that disagrees
    # with it must not pass silently.
    path = _satake_file(tmp_path, "type = A\nrank = 3\nblack = 1, 3\ncrossed = 1\n")
    code, out, err = run(capsys, "koszul", "A", "3", "--cross", "2", "--satake", path)
    assert code == 1
    assert out == ""
    assert "line 4: unknown key 'crossed'" in err


def test_einstein_lambda_beyond_digit_limit_names_option(capsys):
    # Python's own "Exceeds the limit (4300 digits)" message used to surface.
    code, out, err = run(capsys, "einstein", "A", "1", "--cross", "1", "--lambda", "1e5000")
    assert code == 1
    assert out == ""
    assert err.startswith("error: --lambda must be a rational") and "Exceeds" not in err


@pytest.mark.parametrize(
    "monomial, message",
    [("1e400 * z1 * zbar1", "line 2: monomial coefficient must be a float-range rational"),
     ("1e308 * z1^2 * zbar1^2", "coefficient is outside the float range")],
)
def test_potential_coefficients_outside_float_range(tmp_path, capsys, monomial, message):
    # Both used to crash with an OverflowError traceback from the derivative table.
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"n = 1\nmonomial = {monomial}\n")
    code, out, err = run(capsys, "potential", str(cfg))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


# -- usage pins: stdout, stderr and exit code at COLUMNS=80 ---------------------------

USAGE_GOLDEN = Path(__file__).resolve().parent / "cli_usage_golden.json"
USAGE_CASES = [
    ["--help"],
    *([name, "--help"] for name in (
        "roots", "gradations", "koszul", "rho", "einstein", "verify", "potential", "catalog",
    )),
    ["bogus"],
    [],
    ["roots"],
    ["--help", "roots"],
    ["roots", "A", "1", "--json"],
    ["roots", "A", "1", "--cross", "1"],  # the top-level usage names every subcommand
]


def _usage(capsys, monkeypatch, argv) -> dict:
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return {"argv": argv, "code": code, "out": captured.out, "err": captured.err}


@pytest.mark.parametrize("argv", USAGE_CASES, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_usage_output_is_pinned(capsys, monkeypatch, argv):
    got = _usage(capsys, monkeypatch, argv)
    golden = json.loads(USAGE_GOLDEN.read_text())
    # argparse wording moves between Python versions; the golden holds the
    # output of the version it names, and argparse alone (main with the
    # direct reader off) is the reference everywhere.
    if tuple(golden["python"]) == sys.version_info[:2]:
        assert got == next(case for case in golden["cases"] if case["argv"] == argv)
    monkeypatch.setattr(cli, "read_argv", lambda argv: None)
    assert got == _usage(capsys, monkeypatch, argv)


# -- the direct reader against argparse -----------------------------------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# Well-formed argv of every subcommand, in the reader's forms.
WELL_FORMED = [
    ["roots", "A", "2"],
    ["gradations", "B", "3", "--json", "--cross=1,3"],
    ["koszul", "A", "3", "--satake", "sl2H", "--cross", "2"],
    ["rho", "--cross", "2", "D", "4", "--json"],
    ["einstein", "A", "1", "--cross=1", "--lambda=-3/7", "--json"],
    ["verify", "--max-rank", "1", "--json"],
    ["potential", "CONFIG"],
    ["catalog", "sl2H", "--json"],
]


def _argparse(argv, parser):
    """vars() of the parser's Namespace for argv, or None when it exits (help or error)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def _query_argv():
    """The argv of perfbench's ``queries`` workload, seeds 0-10."""
    spec = importlib.util.spec_from_file_location("bench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses resolve their module by name
    sys.path.insert(0, str(PERFBENCH))  # workloads imports its sibling ``calibrate``
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(PERFBENCH))
        del sys.modules[spec.name]
    return [argv for seed in range(11) for argv in workloads.query_set(seed, small=False)]


def test_reader_agrees_with_argparse_on_well_formed_argv():
    argvs, parser = _query_argv() + WELL_FORMED, cli.build_parser()
    assert len(argvs) == 1705 + len(WELL_FORMED)
    for argv in argvs:
        read = cli.read_argv(argv)
        assert read is not None, argv
        assert vars(read) == _argparse(argv, parser), argv


@pytest.mark.parametrize("argv", USAGE_CASES, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_reader_agrees_with_argparse_on_usage_cases(argv):
    read = cli.read_argv(argv)
    assert read is None or vars(read) == _argparse(argv, cli.build_parser())


# Values of each argument, some that its type rejects; and pieces the reader leaves to
# argparse (abbreviations, help, '--', '=' on a flag, a spaced value starting with '-').
_VALUES = {
    "family": ("A", "g", "E", ""), "rank": ("1", "2", "8", "0", "-1", "x"),
    "config": ("flat.cfg", "-"), "name": ("sl2H", "x"), "--cross": ("1", "1,2", "", "-1"),
    "--satake": ("sl2H",), "--lambda": ("1/2", "-3/7", "x"), "--max-rank": ("1", "2", "9", "-1"),
}
_NOISE = [
    ("x",), ("2",), ("--cross",), ("--cr", "1"), ("--json=1",), ("--js",), ("--lambda", "-3/7"),
    ("--satake=",), ("--",), ("-h",), ("--help",), ("-",), ("-3/7",),
]


@st.composite
def _argv(draw):
    """A well-formed argv of a subcommand, then maybe one piece dropped, repeated or added."""
    head = draw(st.sampled_from([name for name, *_ in cli.COMMANDS] + ["bogus", "--help", "-h"]))
    chunks = []
    for flag, kw in next((c[2] for c in cli.COMMANDS if c[0] == head), ()):
        if kw.get("action") == "store_true":
            chunks += [(flag,)] * draw(st.booleans())
        elif not flag.startswith("-"):
            if kw.get("nargs") != "?" or draw(st.booleans()):
                chunks.append((draw(st.sampled_from(_VALUES[flag])),))
        elif kw.get("required") or draw(st.booleans()):
            value = draw(st.sampled_from(_VALUES[flag]))
            chunks.append(draw(st.sampled_from([(flag, value), (f"{flag}={value}",)])))
    change = draw(st.sampled_from(["none", "none", "drop", "repeat", "add"]))
    if change == "drop" and chunks:
        chunks.pop(draw(st.integers(0, len(chunks) - 1)))
    elif change in ("repeat", "add"):
        chunks.append(draw(st.sampled_from(chunks if change == "repeat" and chunks else _NOISE)))
    return [head, *(token for chunk in draw(st.permutations(chunks)) for token in chunk)]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv())
def test_reader_agrees_with_argparse(argv):
    read = cli.read_argv(argv)
    # Whenever argparse exits (help or usage error), the reader declines.
    assert read is None or vars(read) == _argparse(argv, cli.build_parser())


def test_command_table_uses_only_keywords_the_reader_knows():
    known = {"help", "type", "default", "required", "dest", "action", "nargs"}
    for name, help_text, arguments in cli.COMMANDS:
        assert callable(getattr(cli, f"cmd_{name}")) and help_text
        for flag, keywords in arguments:
            assert set(keywords) <= known, (name, flag)
            assert keywords.get("action", "store_true") == "store_true"
            assert keywords.get("nargs", "?") == "?"
            # argparse passes a string default through ``type``; the reader does not.
            assert not ("type" in keywords and isinstance(keywords.get("default"), str))
            assert flag.startswith("--") or not {"required", "dest", "action"} & set(keywords)


def test_well_formed_argv_builds_no_parser(tmp_path, capsys, monkeypatch):
    def refuse():
        raise AssertionError("build_parser called")

    monkeypatch.setattr(cli, "build_parser", refuse)
    # A wrapper put on a command's module attribute (as a tracer does) is the one called.
    called = []
    for name, *_ in cli.COMMANDS:
        command = getattr(cli, f"cmd_{name}")
        wrapper = lambda args, name=name, command=command: called.append(name) or command(args)
        monkeypatch.setattr(cli, f"cmd_{name}", wrapper)
    cfg = tmp_path / "flat.cfg"
    cfg.write_text("n = 1\nkind = polynomial\nmonomial = 1 * z1 * zbar1\nlambda = 0\ngrid = 3\n")
    for argv in WELL_FORMED:
        code, out, err = run(capsys, *[str(cfg) if t == "CONFIG" else t for t in argv])
        assert code == 0 and out and not err, argv
    assert called == [argv[0] for argv in WELL_FORMED]


def test_reports_do_not_import_numpy():
    # numpy is only a test dependency: importing the package and running a
    # report must not load it (a fresh interpreter, so nothing is cached).
    import parakahler

    code = (
        "import sys\n"
        "import parakahler\n"
        "import parakahler.cli as cli\n"
        "cli.main(['roots', 'A', '2', '--json'])\n"
        "sys.exit('numpy' in sys.modules)\n"
    )
    src = str(Path(parakahler.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "roots"


def test_import_does_not_load_dataclasses():
    # The value classes are plain classes, so no method is generated at import.
    import parakahler

    code = "import sys\nimport parakahler.cli\nsys.exit('dataclasses' in sys.modules)\n"
    src = str(Path(parakahler.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
