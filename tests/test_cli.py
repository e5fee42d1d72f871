"""End-to-end CLI tests: output formats, golden files, exit codes."""

import csv
import importlib
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

from logseries.series import iterate_decrements

GOLDEN = pathlib.Path(__file__).parent / "golden"
PYPROJECT = pathlib.Path(__file__).parent.parent / "pyproject.toml"


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "logseries", *argv],
        capture_output=True,
    )


def _stdout_text(proc) -> str:
    return proc.stdout.decode()


def _field(proc, key: str) -> str:
    for line in _stdout_text(proc).splitlines():
        if line.startswith(key + " = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"missing field {key!r} in output")


def test_eval_reports_and_exits_zero():
    proc = run_cli("eval", "--x", "4")
    assert proc.returncode == 0
    assert float(_field(proc, "log_value")) == pytest.approx(math.log(4.0), abs=1e-13)
    assert _field(proc, "converged") == "true"
    assert int(_field(proc, "terms_used")) >= 1


def test_eval_domain_error_exits_one():
    proc = run_cli("eval", "--x", "-3")
    assert proc.returncode == 1
    assert b"positive" in proc.stderr


def test_eval_usage_errors_exit_one():
    for argv in (("eval", "--x", "abc"), ("eval",), ("nosuch",), ()):
        assert run_cli(*argv).returncode == 1


def test_eval_bad_config_exits_one():
    assert run_cli("eval", "--x", "2", "--tol", "0").returncode == 1
    assert run_cli("eval", "--x", "2", "--max-terms", "0").returncode == 1


def test_eval_nonconvergence_exits_two():
    proc = run_cli("eval", "--x", "2", "--tol", "1e-30")
    assert proc.returncode == 2
    assert _field(proc, "converged") == "false"
    assert int(_field(proc, "terms_used")) == 96


def test_trace_csv_golden_x4():
    proc = run_cli("trace", "--x", "4", "--n", "2", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "trace_x4_n2.csv").read_bytes()


def test_trace_csv_golden_below_half():
    proc = run_cli("trace", "--x", "0.25", "--n", "4", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "trace_x0p25_n4.csv").read_bytes()


def test_trace_csv_round_trips_to_doubles():
    proc = run_cli("trace", "--x", "0.7", "--n", "30", "--format", "csv")
    rows = list(csv.DictReader(_stdout_text(proc).splitlines()))
    assert len(rows) == 31
    chain = iterate_decrements(0.7, 30)
    for row, state in zip(rows, chain):
        assert int(row["k"]) == state.k
        # 17 significant digits must reproduce the exact double
        assert float(row["u_k"]) == state.u


def test_trace_csv_defect_column_small():
    proc = run_cli("trace", "--x", "2", "--n", "50", "--format", "csv")
    for row in csv.DictReader(_stdout_text(proc).splitlines()):
        assert abs(float(row["telescope_defect"])) <= 1e-13


def test_trace_human_format():
    proc = run_cli("trace", "--x", "4", "--n", "1")
    lines = _stdout_text(proc).splitlines()
    assert proc.returncode == 0
    assert len(lines) == 3
    assert lines[0].split() == ["k", "u_k", "term_k", "partial_sum_k", "diff_quotient_k", "telescope_defect"]
    assert "," not in lines[1]


def test_trace_output_is_lf_only():
    proc = run_cli("trace", "--x", "4", "--n", "2", "--format", "csv")
    assert b"\r" not in proc.stdout
    assert proc.stdout.endswith(b"\n")


def test_trace_validation_exits_one():
    assert run_cli("trace", "--x", "4", "--n", "-1").returncode == 1
    assert run_cli("trace", "--x", "0", "--n", "2").returncode == 1
    assert run_cli("trace", "--x", "4").returncode == 1
    assert run_cli("trace", "--x", "4", "--n", "2", "--format", "xml").returncode == 1


def test_check_tangent_at_point():
    proc = run_cli("check", "tangent", "--x", "1")
    assert proc.returncode == 0
    assert b"tangent_line_gap(1) = 0" in proc.stdout
    assert b"PASS" in proc.stdout
    assert run_cli("check", "tangent", "--x", "2").returncode == 0


def test_check_amgm_golden():
    proc = run_cli("check", "amgm", "--values", "2,8")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "check_amgm_2_8.txt").read_bytes()


def test_check_concavity_at_point():
    proc = run_cli("check", "concavity", "--values", "1,4,0.5")
    assert proc.returncode == 0
    assert b"PASS" in proc.stdout


def test_check_value_parsing_errors_exit_one():
    assert run_cli("check", "amgm", "--values", "").returncode == 1
    assert run_cli("check", "amgm", "--values", "2,minus").returncode == 1
    assert run_cli("check", "amgm", "--values", "2,-8").returncode == 1
    assert run_cli("check", "concavity", "--values", "1,4").returncode == 1
    assert run_cli("check", "concavity", "--values", "1,4,1.5").returncode == 1
    assert run_cli("check", "nosuch").returncode == 1
    assert run_cli("check").returncode == 1


def test_check_integral_at_point():
    proc = run_cli("check", "integral", "--x", "2", "--panels", "512")
    assert proc.returncode == 0
    assert b"PASS" in proc.stdout


def test_check_integral_odd_panels_exits_one():
    assert run_cli("check", "integral", "--x", "2", "--panels", "3").returncode == 1


def test_check_integral_panels_above_bound_exits_one():
    proc = run_cli("check", "integral", "--x", "2", "--panels", "4098")
    assert proc.returncode == 1
    assert b"at most 4096" in proc.stderr


def test_check_randomized_sweeps_pass():
    proc = run_cli("check", "amgm")
    assert proc.returncode == 0
    assert b"violations=0" in proc.stdout
    assert b"PASS" in proc.stdout


def test_bench_single_point_csv():
    proc = run_cli("bench", "--grid", "1:1:1", "--format", "csv")
    assert proc.returncode == 0
    lines = _stdout_text(proc).splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "row,x,terms_used,abs_error,rel_error,time_per_eval_s"
    point = lines[2].split(",")
    assert point[:5] == ["point", "1", "1", "0", "0"]
    assert lines[3].startswith("summary,")


def test_bench_grid_spans_endpoints():
    proc = run_cli("bench", "--grid", "1e-2:1e2:5", "--format", "csv")
    assert proc.returncode == 0
    rows = [line.split(",") for line in _stdout_text(proc).splitlines() if line.startswith("point")]
    assert len(rows) == 5
    assert float(rows[0][1]) == 1e-2
    assert float(rows[-1][1]) == 1e2


def test_bench_deterministic_apart_from_timing():
    def stripped(proc):
        lines = _stdout_text(proc).splitlines()
        return [line.rsplit(",", 1)[0] for line in lines if not line.startswith("#")]

    first = run_cli("bench", "--grid", "0.1:10:3", "--format", "csv")
    second = run_cli("bench", "--grid", "0.1:10:3", "--format", "csv")
    assert stripped(first) == stripped(second)


def test_bench_grid_errors_exit_one():
    for grid in ("1:2", "0:1:3", "1:2:0", "a:b:3", "1:2:2.5"):
        assert run_cli("bench", "--grid", grid).returncode == 1


def test_bench_nonconvergence_exits_two():
    assert run_cli("bench", "--grid", "2:2:1", "--tol", "1e-30", "--format", "csv").returncode == 2


@pytest.mark.skipif(
    shutil.which("logseries") is None,
    reason="the logseries executable is not on PATH (package not installed)",
)
def test_console_script_installed():
    proc = subprocess.run([shutil.which("logseries"), "eval", "--x", "4"], capture_output=True)
    assert proc.returncode == 0
    # A stale install from another checkout would print something else.
    assert proc.stdout == run_cli("eval", "--x", "4").stdout


def test_console_script_entry_point_runs_like_a_launcher():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["logseries"]
    module_name, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module_name), attr))
    # What the console-script launcher generated at install time executes.
    launcher = f"import sys\nfrom {module_name} import {attr}\nsys.exit({attr}())\n"
    proc = subprocess.run([sys.executable, "-c", launcher, "eval", "--x", "4"], capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout == run_cli("eval", "--x", "4").stdout


def test_help_exits_zero():
    assert run_cli("--help").returncode == 0
    assert run_cli("eval", "--help").returncode == 0
    assert run_cli("check", "tangent", "--help").returncode == 0
