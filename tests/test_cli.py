"""End-to-end CLI tests: output formats, golden files, exit codes."""

import csv
import importlib
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

from logseries import cli
from logseries.inequalities import DEFAULT_SEED, AmgmReport, SweepReport
from logseries.oracles import QuadratureConfig
from logseries.series import MAX_TRACE_N, EvalConfig, trace

GOLDEN = pathlib.Path(__file__).parent / "golden"
PYPROJECT = pathlib.Path(__file__).parent.parent / "pyproject.toml"


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "logseries", *argv],
        capture_output=True,
    )


def _stdout_text(proc) -> str:
    return proc.stdout.decode()


def run_main(capsys, *argv):
    """``cli.main`` in process: (exit status, stdout)."""
    status = cli.main(list(argv))
    return status, capsys.readouterr().out


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
    for row, expected in zip(rows, trace(0.7, 30)):
        assert int(row["k"]) == expected.k
        # 17 significant digits must reproduce the exact double
        assert float(row["u_k"]) == expected.u


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


def test_eval_golden_x4():
    proc = run_cli("eval", "--x", "4")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "eval_x4.txt").read_bytes()


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


def test_check_integral_failure_exits_two():
    # 64 panels are too coarse for the oracle to meet 1e-8, the bound wherever the residual is below 1e4.
    proc = run_cli("check", "integral", "--panels", "64")
    assert proc.returncode == 2
    lines = _stdout_text(proc).splitlines()
    failed = [lines[i - 1].split(":")[0] for i, line in enumerate(lines) if line == "FAIL: disagreement above 1e-08"]
    assert failed == ["x = 2", "x = 5", "x = 10"]
    assert "PASS" not in lines


@pytest.mark.parametrize("x", ["1e5", "1e300"])
def test_check_integral_passes_far_above_one(capsys, x):
    # |diff| is 2.3e-8 at 1e5 and 2.3e287 at 1e300, both 2.35e-13 relative: inside the oracle's stated 1e-12.
    status, out = run_main(capsys, "check", "integral", "--x", x)
    assert (status, out.splitlines()[-1]) == (0, "PASS")


def test_check_integral_failure_far_above_one_names_the_scaled_bound(capsys):
    status, out = run_main(capsys, "check", "integral", "--x", "1e5", "--panels", "64")
    assert status == 2
    assert out.splitlines()[-1] == "FAIL: disagreement above 9.99875e-08"  # 1e-12 times the residual


def test_check_integral_odd_panels_exits_one():
    assert run_cli("check", "integral", "--x", "2", "--panels", "3").returncode == 1


def test_check_integral_panels_above_bound_exits_one():
    proc = run_cli("check", "integral", "--x", "2", "--panels", "4098")
    assert proc.returncode == 1
    assert b"at most 4096" in proc.stderr


def test_check_integral_beyond_the_float_range_exits_one():
    proc = run_cli("check", "integral", "--x", "1e-310")
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.decode().splitlines() == ["logseries: error: the quadrature at x = 1e-310 is beyond the float range"]


def test_trace_n_above_bound_exits_one(capsys):
    # Refused before any row is built; no large n is run.
    assert cli.main(["trace", "--x", "2", "--n", str(MAX_TRACE_N + 1)]) == 1
    assert capsys.readouterr().err == f"logseries: error: n must be at most {MAX_TRACE_N}, got {MAX_TRACE_N + 1}\n"


def test_check_randomized_sweeps_pass():
    proc = run_cli("check", "amgm")
    assert proc.returncode == 0
    assert b"violations=0" in proc.stdout
    assert b"PASS" in proc.stdout


def test_check_tangent_point_failure_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(cli, "tangent_line_gap", lambda x: -1.0)
    assert run_main(capsys, "check", "tangent", "--x", "2") == (
        2, "tangent_line_gap(2) = -1\nFAIL: gap below -1e-12\n"
    )


def test_check_concavity_point_failure_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(cli, "concavity_check", lambda x, y, lam: -1.0)
    assert run_main(capsys, "check", "concavity", "--values", "1,4,0.5") == (
        2, "concavity_check(1, 4, 0.5) = -1\nFAIL: margin below -1e-11\n"
    )


def test_check_amgm_values_failure_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(cli, "amgm_check", lambda values: AmgmReport(3.0, 4.0, False, False))
    assert run_main(capsys, "check", "amgm", "--values", "2,8") == (
        2,
        "arithmetic_mean = 3\ngeometric_mean = 4\nholds = false\nequality = false\n"
        "FAIL: geometric mean exceeds arithmetic mean beyond tolerance\n",
    )


def _failed_sweep(name):
    return SweepReport(name, 1, -1e-12, -1.0, (2.0,), 1, ((2.0,), -1.0))


def test_check_tangent_sweep_failure_reports_both_sweeps(monkeypatch, capsys):
    monkeypatch.setattr(cli, "sweep_tangent_line", lambda seed: _failed_sweep("tangent_line_gap"))
    monkeypatch.setattr(cli, "sweep_tangent_at", lambda seed: _failed_sweep("tangent_at"))
    status, out = run_main(capsys, "check", "tangent")
    assert status == 2
    assert out.splitlines() == [
        "tangent_line_gap: checked=1 min_margin=-1 threshold=-1e-12 violations=1",
        "FAIL: tangent_line_gap at (2.0,) with margin -1",
        "tangent_at: checked=1 min_margin=-1 threshold=-1e-12 violations=1",
        "FAIL: tangent_at at (2.0,) with margin -1",
    ]


def test_check_amgm_constant_vector_failure_exits_two(monkeypatch, capsys):
    # Every constant vector fails; one FAIL line names the first of them.
    monkeypatch.setattr(cli, "amgm_check", lambda values: AmgmReport(1.0, 1.0, True, False))
    status, out = run_main(capsys, "check", "amgm")
    lines = out.splitlines()
    assert status == 2
    assert lines[0].startswith("amgm_check: checked=1000 ") and lines[0].endswith(" violations=0")
    assert lines[1:] == [
        "FAIL: constant vector [9.9999999999999995e-07] * 1 not flagged as equality",
        "constant_vectors: checked=80 equality_failures=80",
    ]


def test_check_amgm_constant_vector_failure_after_failed_sweep(monkeypatch, capsys):
    # The constant-vector FAIL line is printed only when the sweep passed.
    monkeypatch.setattr(cli, "amgm_check", lambda values: AmgmReport(1.0, 1.0, True, False))
    monkeypatch.setattr(cli, "sweep_amgm", lambda seed: _failed_sweep("amgm_check"))
    assert run_main(capsys, "check", "amgm") == (
        2,
        "amgm_check: checked=1 min_margin=-1 threshold=-1e-12 violations=1\n"
        "FAIL: amgm_check at (2.0,) with margin -1\n"
        "constant_vectors: checked=80 equality_failures=80\n",
    )


def test_parser_defaults_are_the_librarys():
    parser = cli._build_parser()
    config = EvalConfig()
    for argv in (["eval", "--x", "2"], ["bench", "--grid", "1:2:2"]):
        args = parser.parse_args(argv)
        assert (args.tol, args.max_terms) == (config.tol, config.max_terms)
    for check in ("tangent", "concavity", "amgm"):
        assert parser.parse_args(["check", check]).seed == DEFAULT_SEED
    assert parser.parse_args(["check", "integral"]).panels == QuadratureConfig().panels


def test_bench_single_point_csv():
    proc = run_cli("bench", "--grid", "1:1:1", "--format", "csv")
    assert proc.returncode == 0
    lines = _stdout_text(proc).splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "row,x,terms_used,abs_error,rel_error,time_per_eval_s"
    point = lines[2].split(",")
    assert point[:5] == ["point", "1", "1", "0", "0"]
    assert lines[3].startswith("summary,")
    # A count of 1 keeps lo alone, also where hi differs.
    proc = run_cli("bench", "--grid", "3:5:1", "--format", "csv")
    assert proc.returncode == 0
    points = [line.split(",") for line in _stdout_text(proc).splitlines() if line.startswith("point,")]
    assert len(points) == 1 and points[0][1] == "3"


def test_bench_human_format():
    proc = run_cli("bench", "--grid", "1:4:2")
    assert proc.returncode == 0
    lines = _stdout_text(proc).splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("x = 1: ") and lines[1].startswith("x = 4: ")
    assert lines[2].startswith("summary: points = 2, ")
    assert lines[2].endswith(", median_terms = 24.5")


def test_bench_grid_spans_endpoints():
    def points(lo, hi, count):
        proc = run_cli("bench", "--grid", f"{lo!r}:{hi!r}:{count}", "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        xs = [float(line.split(",")[1]) for line in _stdout_text(proc).splitlines() if line.startswith("point")]
        assert len(xs) == count
        assert xs[0] == lo and xs[-1] == hi
        return xs

    # hi / lo is beyond the float range in the last two grids; the points between are not.
    for lo, hi, count in ((1e-2, 1e2, 5), (1e-200, 1e200, 3), (1e-300, 1.7976931348623157e308, 3)):
        xs = points(lo, hi, count)
        assert all(a < b for a, b in zip(xs, xs[1:]))
    # Narrower than the rounding of log(x): points may repeat but stay in order between the bounds.
    xs = points(1e300, 1.0000000000001e300, 5)
    assert xs == sorted(xs)


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
    proc = run_cli("bench", "--grid", "1:inf:3")
    assert proc.returncode == 1
    assert b"--grid bounds must be positive and finite, got inf" in proc.stderr


def test_bench_grid_count_above_bound_exits_one(capsys):
    # Refused while the grid is parsed, before any point is timed.
    count = cli.MAX_GRID_COUNT + 1
    assert cli.main(["bench", "--grid", f"1:2:{count}"]) == 1
    assert capsys.readouterr().err == (
        f"logseries: error: --grid count must be at most {cli.MAX_GRID_COUNT}, got {count}\n"
    )


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


def test_closed_pipe_exits_one_without_a_traceback():
    # More rows than a pipe holds, so the child is still writing when the reader goes away.
    proc = subprocess.Popen(
        [sys.executable, "-m", "logseries", "trace", "--x", "2", "--n", "5000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().split()[0] == b"k"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1  # stderr is far below a pipe's capacity, so it cannot block the child
    with proc.stderr:
        stderr = proc.stderr.read()
    assert b"Traceback" not in stderr, stderr.decode()
