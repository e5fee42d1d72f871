"""Tests for the quadrature and libm oracles."""

import math
import random
import re
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from logseries.oracles import MAX_PANELS, QuadratureConfig, _simpson_weights, double_integral_residual, reference_log
from logseries.series import eval_log

# Correctly rounded double of log(2), frozen from a 60-digit mpmath value.
LOG_TWO = 0.6931471805599453


def _env_residual(x: float) -> float:
    return x - 1.0 - math.log(x)


def test_zero_width_at_one():
    for panels in (2, 1024, 2050):
        assert double_integral_residual(1.0, QuadratureConfig(panels)) == 0.0


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


def _whole_grid_residual(xv: float, n: int) -> float:
    """The oracle's formula on the whole (n + 1)**2 grid at once, as a reference for the row blocks.

    One array, updated in place: the same operations in the same order as 1 / (1 + outer)**2.
    """
    frac = np.arange(n + 1) / n
    t_offsets = (xv - 1.0) * frac
    g = np.multiply.outer(t_offsets, frac)
    np.add(1.0, g, out=g)
    np.multiply(g, g, out=g)
    np.divide(1.0, g, out=g)  # g = 1 / s**2
    w = _simpson_weights(n)
    inner = (g @ w) * (t_offsets / (3.0 * n))
    return float((w @ inner) * ((xv - 1.0) / (3.0 * n)))


def test_row_blocks_match_the_whole_grid_formula():
    # Same nodes, weights and arithmetic; only BLAS's grouping of each row's
    # dot product may change, which moves a result by a few ulps at most.
    rng = random.Random(8)
    panel_counts = (2, 4, 64, 1000, 1024, 2048, 2050)
    for i in range(1001):
        if i % 2:
            x = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        else:
            x = 1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** -rng.uniform(1.0, 12.0)
        panels = panel_counts[i % len(panel_counts)]
        expected = _whole_grid_residual(x, panels)
        got = double_integral_residual(x, QuadratureConfig(panels))
        assert abs(got - expected) <= 4 * math.ulp(expected), (x, panels, got, expected)


def test_memory_does_not_grow_with_the_grid():
    double_integral_residual(2.0, QuadratureConfig(64))  # numpy's own first-call allocations
    tracemalloc.start()
    try:
        double_integral_residual(2.0, QuadratureConfig(2048))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6  # the whole 2049 x 2049 grid is 33.6 MB per array


def test_beyond_the_float_range_is_a_value_error():
    # The nodes or the sum leave the float range; no inf and no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e300, sys.float_info.max, 1e-200, 5e-324):
            with pytest.raises(ValueError, match=re.escape(repr(x))):
                double_integral_residual(x)


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
    """``code`` in a fresh interpreter that imports this checkout's package (see conftest.py)."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
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
