import json
import os
import subprocess
import sys
import time

import pytest

from parakahler import chevalley, cli
from parakahler.cli import main


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


def test_json_deterministic_across_processes():
    # Different hash seeds must not leak into the serialized report.
    cmd = [
        sys.executable, "-m", "parakahler.cli",
        "koszul", "F", "4", "--cross", "1,3", "--json",
    ]
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

    seen = []
    real = cli.determinant_identity_residual

    def spy(potential, point, axis=0):
        seen.append((point, axis))
        return real(potential, point, axis=axis)

    monkeypatch.setattr(cli, "determinant_identity_residual", spy)
    cfg = tmp_path / "log2.cfg"
    cfg.write_text("n = 2\nkind = builtin\nbuiltin = log1p_zzbar\ngrid = 3\n")
    code, out, _ = run(capsys, "potential", str(cfg), "--json")
    assert code == 0
    assert json.loads(out)["payload"]["det_identity_points"] == 5
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
