"""End-to-end CLI tests: output formats, golden files, exit codes."""

import csv
import importlib
import math
import os
import pathlib
import shutil
import sys

import pytest

from logseries import cli
from logseries.inequalities import DEFAULT_SEED, AmgmReport, SweepReport, sweep_concavity
from logseries.oracles import QuadratureConfig
from logseries.series import MAX_TRACE_N, EvalConfig, trace

GOLDEN = pathlib.Path(__file__).parent / "golden"
PYPROJECT = pathlib.Path(__file__).parent.parent / "pyproject.toml"
LOGSERIES = (sys.executable, "-m", "logseries")  # a child only where the process or the golden bytes are under test


def _field(out: str, key: str) -> str:
    for line in out.splitlines():
        if line.startswith(key + " = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"missing field {key!r} in output")


def test_eval_reports_and_exits_zero(run_main):
    status, out, _ = run_main("eval", "--x", "4")
    assert status == 0
    assert float(_field(out, "log_value")) == pytest.approx(math.log(4.0), abs=1e-13)
    assert _field(out, "converged") == "true"
    assert int(_field(out, "terms_used")) >= 1


def test_eval_domain_error_exits_one(run_main):
    status, _, err = run_main("eval", "--x", "-3")
    assert status == 1
    assert "positive" in err


def test_eval_usage_errors_exit_one(run_main):
    for argv in (("eval", "--x", "abc"), ("eval",), ("nosuch",), ()):
        assert run_main(*argv)[0] == 1


def test_eval_bad_config_exits_one(run_main):
    assert run_main("eval", "--x", "2", "--tol", "0")[0] == 1
    assert run_main("eval", "--x", "2", "--max-terms", "0")[0] == 1


def test_eval_nonconvergence_exits_two(run_main):
    status, out, _ = run_main("eval", "--x", "2", "--tol", "1e-30")
    assert status == 2
    assert _field(out, "converged") == "false"
    assert int(_field(out, "terms_used")) == 96


def test_trace_csv_golden_x4(run_child):
    status, out, _ = run_child(*LOGSERIES, "trace", "--x", "4", "--n", "2", "--format", "csv")
    assert status == 0
    assert out == (GOLDEN / "trace_x4_n2.csv").read_bytes()


def test_trace_csv_golden_below_half(run_child):
    status, out, _ = run_child(*LOGSERIES, "trace", "--x", "0.25", "--n", "4", "--format", "csv")
    assert status == 0
    assert out == (GOLDEN / "trace_x0p25_n4.csv").read_bytes()


def test_trace_csv_round_trips_to_doubles(run_main):
    rows = list(csv.DictReader(run_main("trace", "--x", "0.7", "--n", "30", "--format", "csv")[1].splitlines()))
    assert len(rows) == 31
    for row, expected in zip(rows, trace(0.7, 30)):
        assert int(row["k"]) == expected.k
        # 17 significant digits must reproduce the exact double
        assert float(row["u_k"]) == expected.u


def test_trace_csv_defect_column_small(run_main):
    for row in csv.DictReader(run_main("trace", "--x", "2", "--n", "50", "--format", "csv")[1].splitlines()):
        assert abs(float(row["telescope_defect"])) <= 1e-13


def test_trace_human_format(run_main):
    status, out, _ = run_main("trace", "--x", "4", "--n", "1")
    lines = out.splitlines()
    assert status == 0
    assert len(lines) == 3
    assert lines[0].split() == ["k", "u_k", "term_k", "partial_sum_k", "diff_quotient_k", "telescope_defect"]
    assert "," not in lines[1]


def test_trace_output_is_lf_only(run_child):
    # A child: in process, print writes "\n" to capsys whatever the platform's line ending.
    _, out, _ = run_child(*LOGSERIES, "trace", "--x", "4", "--n", "2", "--format", "csv")
    assert b"\r" not in out
    assert out.endswith(b"\n")


def test_trace_validation_exits_one(run_main):
    assert run_main("trace", "--x", "4", "--n", "-1")[0] == 1
    assert run_main("trace", "--x", "0", "--n", "2")[0] == 1
    assert run_main("trace", "--x", "4")[0] == 1
    assert run_main("trace", "--x", "4", "--n", "2", "--format", "xml")[0] == 1


def test_check_tangent_at_point(run_main):
    # The value line, then PASS and no FAIL line.
    assert run_main("check", "tangent", "--x", "1") == (0, "tangent_line_gap(1) = 0\nPASS\n", "")
    assert run_main("check", "tangent", "--x", "2") == (0, "tangent_line_gap(2) = 0.30685281944005471\nPASS\n", "")


def test_check_amgm_golden(run_child):
    status, out, _ = run_child(*LOGSERIES, "check", "amgm", "--values", "2,8")
    assert status == 0
    assert out == (GOLDEN / "check_amgm_2_8.txt").read_bytes()


def test_eval_golden_x4(run_main):
    # The launcher test compares a child's bytes with this golden.
    status, out, _ = run_main("eval", "--x", "4")
    assert status == 0
    assert out.encode() == (GOLDEN / "eval_x4.txt").read_bytes()


def test_check_concavity_at_point(run_main):
    assert run_main("check", "concavity", "--values", "1,4,0.5") == (
        0, "concavity_check(1, 4, 0.5) = 0.22314355131420971\nPASS\n", ""
    )


def test_check_concavity_sweep_prints_the_library_sweep(run_main):
    # Without --values, check concavity prints sweep_concavity's report at --seed.
    reports = {seed: sweep_concavity(seed=seed) for seed in (DEFAULT_SEED, 7)}
    assert reports[7].min_margin != reports[DEFAULT_SEED].min_margin  # so the line tells which seed ran
    for argv, seed in (((), DEFAULT_SEED), (("--seed", "7"), 7)):
        report = reports[seed]
        assert report.violations == 0
        assert run_main("check", "concavity", *argv) == (
            0,
            f"concavity_check: checked={report.checked} min_margin={report.min_margin:.17g} "
            f"threshold={report.threshold:g} violations=0\nPASS\n",
            "",
        )


@pytest.mark.parametrize("check", ["tangent", "concavity", "amgm"])
def test_check_sweep_golden(run_main, check):
    # The default-seed sweeps, min_margin to 17 digits.
    status, out, _ = run_main("check", check)
    assert status == 0
    assert out.encode() == (GOLDEN / f"check_{check}_sweep.txt").read_bytes()


def test_check_value_parsing_errors_exit_one(run_main):
    assert run_main("check", "amgm", "--values", "")[0] == 1
    assert run_main("check", "amgm", "--values", "2,minus")[0] == 1
    assert run_main("check", "amgm", "--values", "2,-8")[0] == 1
    assert run_main("check", "concavity", "--values", "1,4")[0] == 1
    assert run_main("check", "concavity", "--values", "1,4,1.5")[0] == 1
    assert run_main("check", "nosuch")[0] == 1
    assert run_main("check")[0] == 1


def test_check_integral_at_point(run_main):
    status, out, _ = run_main("check", "integral", "--x", "2", "--panels", "512")
    assert status == 0
    assert "PASS" in out


def test_check_integral_failure_exits_two(run_main):
    # 64 panels are too coarse for the oracle to meet 1e-8, the bound wherever the residual is below 1e4.
    status, out, _ = run_main("check", "integral", "--panels", "64")
    assert status == 2
    lines = out.splitlines()
    failed = [lines[i - 1].split(":")[0] for i, line in enumerate(lines) if line == "FAIL: disagreement above 1e-08"]
    assert failed == ["x = 2", "x = 5", "x = 10"]
    assert "PASS" not in lines


@pytest.mark.parametrize("x", ["1e5", "1e300"])
def test_check_integral_passes_far_above_one(run_main, x):
    # |diff| is 2.3e-8 at 1e5 and 2.3e287 at 1e300, both 2.35e-13 relative: inside the oracle's stated 1e-12.
    status, out, _ = run_main("check", "integral", "--x", x)
    assert (status, out.splitlines()[-1]) == (0, "PASS")


def test_check_integral_failure_far_above_one_names_the_scaled_bound(run_main):
    status, out, _ = run_main("check", "integral", "--x", "1e5", "--panels", "64")
    assert status == 2
    assert out.splitlines()[-1] == "FAIL: disagreement above 9.99875e-08"  # 1e-12 times the residual


def test_check_integral_odd_panels_exits_one(run_main):
    assert run_main("check", "integral", "--x", "2", "--panels", "3")[0] == 1


def test_check_integral_panels_above_bound_exits_one(run_main):
    status, _, err = run_main("check", "integral", "--x", "2", "--panels", "4098")
    assert status == 1
    assert "at most 4096" in err


def test_check_integral_beyond_the_float_range_exits_one(run_main):
    status, out, err = run_main("check", "integral", "--x", "1e-310")
    assert status == 1
    assert out == ""
    assert err.splitlines() == ["logseries: error: the quadrature at x = 1e-310 is beyond the float range"]


def test_trace_n_above_bound_exits_one(run_main):
    # Refused before any row is built; no large n is run.
    status, _, err = run_main("trace", "--x", "2", "--n", str(MAX_TRACE_N + 1))
    assert status == 1
    assert err == f"logseries: error: n must be at most {MAX_TRACE_N}, got {MAX_TRACE_N + 1}\n"


def test_check_randomized_sweeps_pass(run_main):
    status, out, _ = run_main("check", "amgm")
    assert status == 0
    assert "violations=0" in out
    assert "PASS" in out


def test_check_tangent_point_failure_exits_two(monkeypatch, run_main):
    monkeypatch.setattr(cli, "tangent_line_gap", lambda x: -1.0)
    assert run_main("check", "tangent", "--x", "2") == (
        2, "tangent_line_gap(2) = -1\nFAIL: gap below -1e-12\n", ""
    )


def test_check_concavity_point_failure_exits_two(monkeypatch, run_main):
    monkeypatch.setattr(cli, "concavity_check", lambda x, y, lam: -1.0)
    assert run_main("check", "concavity", "--values", "1,4,0.5") == (
        2, "concavity_check(1, 4, 0.5) = -1\nFAIL: margin below -1e-11\n", ""
    )


def test_check_amgm_values_failure_exits_two(monkeypatch, run_main):
    monkeypatch.setattr(cli, "amgm_check", lambda values: AmgmReport(3.0, 4.0, False, False))
    assert run_main("check", "amgm", "--values", "2,8") == (
        2,
        "arithmetic_mean = 3\ngeometric_mean = 4\nholds = false\nequality = false\n"
        "FAIL: geometric mean exceeds arithmetic mean beyond tolerance\n",
        "",
    )


def _failed_sweep(name):
    return SweepReport(name, 1, -1e-12, -1.0, (2.0,), 1, ((2.0,), -1.0))


def test_check_tangent_sweep_failure_reports_both_sweeps(monkeypatch, run_main):
    monkeypatch.setattr(cli, "sweep_tangent_line", lambda seed: _failed_sweep("tangent_line_gap"))
    monkeypatch.setattr(cli, "sweep_tangent_at", lambda seed: _failed_sweep("tangent_at"))
    status, out, _ = run_main("check", "tangent")
    assert status == 2
    assert out.splitlines() == [
        "tangent_line_gap: checked=1 min_margin=-1 threshold=-1e-12 violations=1",
        "FAIL: tangent_line_gap at (2.0,) with margin -1",
        "tangent_at: checked=1 min_margin=-1 threshold=-1e-12 violations=1",
        "FAIL: tangent_at at (2.0,) with margin -1",
    ]


def test_check_amgm_constant_vector_failure_exits_two(monkeypatch, run_main):
    # Every constant vector fails; one FAIL line names the first of them.
    monkeypatch.setattr(cli, "amgm_check", lambda values: AmgmReport(1.0, 1.0, True, False))
    status, out, _ = run_main("check", "amgm")
    lines = out.splitlines()
    assert status == 2
    assert lines[0].startswith("amgm_check: checked=1000 ") and lines[0].endswith(" violations=0")
    assert lines[1:] == [
        "FAIL: constant vector [9.9999999999999995e-07] * 1 not flagged as equality",
        "constant_vectors: checked=80 equality_failures=80",
    ]


def test_check_amgm_constant_vector_failure_after_failed_sweep(monkeypatch, run_main):
    # The constant-vector FAIL line is printed only when the sweep passed.  A failed sweep fails the check
    # (exit 2, no PASS) also where every constant vector is flagged as equality.
    monkeypatch.setattr(cli, "sweep_amgm", lambda seed: _failed_sweep("amgm_check"))
    sweep_lines = (
        "amgm_check: checked=1 min_margin=-1 threshold=-1e-12 violations=1\n"
        "FAIL: amgm_check at (2.0,) with margin -1\n"
    )
    assert run_main("check", "amgm") == (2, sweep_lines + "constant_vectors: checked=80 equality_failures=0\n", "")
    monkeypatch.setattr(cli, "amgm_check", lambda values: AmgmReport(1.0, 1.0, True, False))
    assert run_main("check", "amgm") == (2, sweep_lines + "constant_vectors: checked=80 equality_failures=80\n", "")


def test_parser_defaults_are_the_librarys():
    parser = cli._build_parser()
    config = EvalConfig()
    for argv in (["eval", "--x", "2"], ["bench", "--grid", "1:2:2"]):
        args = parser.parse_args(argv)
        assert (args.tol, args.max_terms) == (config.tol, config.max_terms)
    for check in ("tangent", "concavity", "amgm"):
        assert parser.parse_args(["check", check]).seed == DEFAULT_SEED
    assert parser.parse_args(["check", "integral"]).panels == QuadratureConfig().panels


def test_bench_single_point_csv(run_main):
    status, out, _ = run_main("bench", "--grid", "1:1:1", "--format", "csv")
    assert status == 0
    lines = out.splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "row,x,terms_used,abs_error,rel_error,time_per_eval_s"
    point = lines[2].split(",")
    assert point[:5] == ["point", "1", "1", "0", "0"]
    assert lines[3].startswith("summary,")
    # A count of 1 keeps lo alone, also where hi differs.
    status, out, _ = run_main("bench", "--grid", "3:5:1", "--format", "csv")
    assert status == 0
    points = [line.split(",") for line in out.splitlines() if line.startswith("point,")]
    assert len(points) == 1 and points[0][1] == "3"


def test_bench_human_format(run_main):
    status, out, _ = run_main("bench", "--grid", "1:4:2")
    assert status == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("x = 1: ") and lines[1].startswith("x = 4: ")
    assert lines[2].startswith("summary: points = 2, ")
    assert lines[2].endswith(", median_terms = 24.5")


def test_bench_grid_spans_endpoints(run_main):
    def points(lo, hi, count):
        status, out, err = run_main("bench", "--grid", f"{lo!r}:{hi!r}:{count}", "--format", "csv")
        assert status == 0, err
        xs = [float(line.split(",")[1]) for line in out.splitlines() if line.startswith("point")]
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


def test_bench_deterministic_apart_from_timing(run_main):
    def stripped(out):
        return [line.rsplit(",", 1)[0] for line in out.splitlines() if not line.startswith("#")]

    first = run_main("bench", "--grid", "0.1:10:3", "--format", "csv")[1]
    second = run_main("bench", "--grid", "0.1:10:3", "--format", "csv")[1]
    assert stripped(first) == stripped(second)


def test_bench_grid_errors_exit_one(run_main):
    for grid in ("1:2", "0:1:3", "1:2:0", "1:2:-1", "a:b:3", "1:2:2.5"):
        assert run_main("bench", "--grid", grid)[0] == 1
    for count in ("0", "-1"):
        status, _, err = run_main("bench", "--grid", f"1:2:{count}")
        assert status == 1
        assert err == f"logseries: error: --grid count must be >= 1, got {count}\n"
    status, _, err = run_main("bench", "--grid", "1:inf:3")
    assert status == 1
    assert "--grid bounds must be positive and finite, got inf" in err


def test_bench_grid_count_above_bound_exits_one(run_main):
    # Refused while the grid is parsed, before any point is timed.
    count = cli.MAX_GRID_COUNT + 1
    status, _, err = run_main("bench", "--grid", f"1:2:{count}")
    assert status == 1
    assert err == f"logseries: error: --grid count must be at most {cli.MAX_GRID_COUNT}, got {count}\n"


def test_bench_nonconvergence_exits_two(run_main):
    # Any point that does not converge fails the run, also where the last point converges (x = 1 in one term).
    for argv in (("--grid", "2:2:1", "--tol", "1e-30"), ("--grid", "1e-300:1:3", "--max-terms", "5")):
        assert run_main("bench", *argv, "--format", "csv")[0] == 2, argv


@pytest.mark.skipif(
    shutil.which("logseries") is None,
    reason="the logseries executable is not on PATH (package not installed)",
)
def test_console_script_installed(run_child):
    status, out, _ = run_child(shutil.which("logseries"), "eval", "--x", "4")
    assert status == 0
    # A stale install from another checkout would print something else.
    assert out == (GOLDEN / "eval_x4.txt").read_bytes()


def test_console_script_entry_point_runs_like_a_launcher(run_child):
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["logseries"]
    module_name, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module_name), attr))
    # What the console-script launcher generated at install time executes.
    launcher = f"import sys\nfrom {module_name} import {attr}\nsys.exit({attr}())\n"
    status, out, _ = run_child(sys.executable, "-c", launcher, "eval", "--x", "4")
    assert status == 0
    assert out == (GOLDEN / "eval_x4.txt").read_bytes()


def test_help_exits_zero(run_main):
    assert run_main("--help")[0] == 0
    assert run_main("eval", "--help")[0] == 0
    assert run_main("check", "tangent", "--help")[0] == 0


def test_closed_pipe_exits_one_without_a_traceback(run_child):
    # The reader is gone before the child starts, so its first full buffer of rows meets a closed pipe.
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "wb") as stdout:
        status, _, err = run_child(*LOGSERIES, "trace", "--x", "2", "--n", "5000", stdout=stdout)
    assert status == 1
    assert err == b"", err.decode()  # no traceback, and not a usage or domain error, which also exits 1
