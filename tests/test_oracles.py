"""Tests for the quadrature and libm oracles."""

import math
import os
import pathlib
import subprocess
import sys

import mpmath
import pytest

from logseries.oracles import MAX_PANELS, QuadratureConfig, double_integral_residual, reference_log
from logseries.series import eval_log

# Correctly rounded double of log(2), frozen from a 60-digit mpmath value.
LOG_TWO = 0.6931471805599453


def _env_residual(x: float) -> float:
    return x - 1.0 - math.log(x)


def test_zero_width_at_one():
    assert double_integral_residual(1.0) == 0.0


def test_value_at_two():
    q = double_integral_residual(2.0)
    assert q == pytest.approx(1.0 - LOG_TWO, abs=1e-11)


def test_sign_flips_cancel_below_one():
    # Both the outer and inner orientations reverse for x < 1, so the
    # result stays positive.
    assert double_integral_residual(0.25) > 0.0
    assert double_integral_residual(0.25) == pytest.approx(_env_residual(0.25), abs=1e-8)


def test_agreement_with_series_residual_on_grid():
    for x in (0.25, 0.5, 2.0, 5.0, 10.0):
        q = double_integral_residual(x)
        series_residual = x - 1.0 - eval_log(x).log_value
        assert q == pytest.approx(series_residual, abs=1e-8)


def test_agreement_with_environment_log_on_grid():
    for x in (0.1, 0.25, 0.5, 2.0, 5.0, 10.0):
        assert double_integral_residual(x) == pytest.approx(_env_residual(x), abs=1e-8)


def test_order_four_convergence():
    # Truncation error should drop by about 2**4 when panels double;
    # compare against the libm residual, whose own error (half an ulp)
    # sits far below the quadrature defect at these panel counts.
    x = 2.0
    d256 = abs(double_integral_residual(x, QuadratureConfig(256)) - _env_residual(x))
    d512 = abs(double_integral_residual(x, QuadratureConfig(512)) - _env_residual(x))
    assert d256 / d512 >= 3.5


def test_error_shrinks_with_panels():
    x = 3.0
    errors = [abs(double_integral_residual(x, QuadratureConfig(p)) - _env_residual(x)) for p in (2, 8, 32, 128)]
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < 1e-8


def test_nonnegative_on_grid():
    for i in range(21):
        x = 0.1 * (100.0 ** (i / 20.0))
        assert double_integral_residual(x, QuadratureConfig(256)) >= -1e-12


def test_panel_validation():
    assert QuadratureConfig().panels == 1024
    assert QuadratureConfig(2).panels == 2
    for bad in (0, -4, 3, 1023, 2.0, True):
        with pytest.raises(ValueError):
            QuadratureConfig(bad)


def test_reference_log_values():
    assert reference_log(1.0) == 0.0
    assert reference_log(math.e) == 1.0
    assert reference_log(2.0) == LOG_TWO


def test_reference_log_matches_extended_precision():
    with mpmath.workdps(50):
        for x in (0.037, 0.5, 3.0, 123.456, 1e7):
            assert reference_log(x) == pytest.approx(float(mpmath.log(mpmath.mpf(x))), abs=5e-16, rel=2.5e-16)


def test_reference_log_domain():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            reference_log(bad)


def test_panels_above_bound_refused():
    # Refused in the config, before any array exists; no large count is run.
    assert MAX_PANELS == 4096
    assert QuadratureConfig(MAX_PANELS).panels == MAX_PANELS
    for bad in (MAX_PANELS + 2, 65536):
        with pytest.raises(ValueError):
            QuadratureConfig(bad)


def _run_python(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports this checkout's package."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_does_not_load_numpy():
    _run_python("import logseries, logseries.cli, sys; assert 'numpy' not in sys.modules")


def test_light_commands_load_no_heavy_modules():
    # Start-up dominates these commands, so they import only what they use.
    # The snapshot keeps the test valid where site already loads some of these.
    code = """
import contextlib, io, sys
before = set(sys.modules)
from logseries import cli
for argv in (["eval", "--x", "4"], ["trace", "--x", "3", "--n", "5"], ["check", "tangent", "--x", "2"],
             ["check", "concavity", "--values", "1,3,0.5"], ["check", "amgm", "--values", "2,8"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted({"dataclasses", "inspect", "statistics", "numpy"} & (set(sys.modules) - before)))
"""
    assert _run_python(code).stdout == "[]\n"
