"""Tests for the quadrature and libm oracles."""

import math
import re
import sys
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from logseries import oracles
from logseries.oracles import MAX_PANELS, QuadratureConfig, double_integral_residual
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


def _relative_error(x: float, q: float) -> float:
    """|q - r| / r for r = x - 1 - log x at 200 bits; x = 1 must give exactly 0."""
    with mpmath.workprec(200):
        ref = mpmath.mpf(x) - 1 - mpmath.log(mpmath.mpf(x))
        if ref == 0:
            return 0.0 if q == 0.0 else math.inf
        return float(abs((mpmath.mpf(q) - ref) / ref))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=2.0**-1020, max_value=1e300))
def test_property_relative_error_over_the_range(x):
    # The graded mesh keeps 1/s**2 within a factor 4 on every piece, so the relative error is uniform.
    assert _relative_error(x, double_integral_residual(x, QuadratureConfig(256))) <= 1e-9


@pytest.mark.parametrize("x", [1e-5, 1e-10, 1e-300, 1e300])
def test_far_from_one_at_default_panels(x):
    # Uniform nodes on [x, 1] gave 1067.0 at x = 1e-5, where x - 1 - log x is 10.51.
    assert _relative_error(x, double_integral_residual(x, QuadratureConfig(1024))) <= 1e-11


def test_rounding_level_at_max_panels():
    # The truncation error is below rounding here; every sum adds terms of one sign.
    for x in (1.0 - 1e-9, 1.0 + 1e-6, 0.3, 2.0, 7.0, 1e40):
        assert _relative_error(x, double_integral_residual(x, QuadratureConfig(MAX_PANELS))) <= 1e-12, x


def test_memory_does_not_grow_with_the_grid():
    double_integral_residual(2.0, QuadratureConfig(64))  # one-time first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        double_integral_residual(2.0, QuadratureConfig(2048))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The oracle sums node by node and keeps no array, so its peak is O(1) in
    # panels; the loose bound catches any return to storage that grows as panels**2.
    assert peak < 2e6


def test_finite_down_to_the_integrand_limit():
    # (x - s)/s**2 peaks at 1/(4x), so it stays finite to about x = 2**-1026 whatever the panel count.
    x = 2.0**-1025
    for panels in (64, 1024, MAX_PANELS):
        assert math.isfinite(double_integral_residual(x, QuadratureConfig(panels))), panels
    assert _relative_error(x, double_integral_residual(x, QuadratureConfig(1024))) <= 1e-11


def test_beyond_the_float_range_is_a_value_error():
    # The integrand (small x) or the sum (DBL_MAX) leaves the float range; no inf, no other error, no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (sys.float_info.max, 1e-310, 5e-324):
            with pytest.raises(ValueError, match=re.escape(repr(x))):
                double_integral_residual(x)
        assert math.isfinite(double_integral_residual(1e300))


def test_largest_finite_case_near_dbl_max():
    # Near DBL_MAX the sum rounds past it; this is the last finite x at the default 1024 panels.
    x = 1.7976931348618934e308
    assert math.isfinite(double_integral_residual(x))
    with pytest.raises(ValueError, match=re.escape(repr(math.nextafter(x, math.inf)))):
        double_integral_residual(math.nextafter(x, math.inf))


def test_integrand_limit_is_sharp():
    # 1/(4x) overflows from x = 2**-1026 down; the next double up is finite at every panel count.
    # At these x the nodes of the last piece stay finite, so only the peak on a full piece overflows.
    for panels in (2, 64, 1024, MAX_PANELS):
        for x in (2.0**-1026, 1.20308070511671e-309, 6.64367087557755e-310):
            with pytest.raises(ValueError, match=re.escape(repr(x))):
                double_integral_residual(x, QuadratureConfig(panels))
        assert math.isfinite(double_integral_residual(math.nextafter(2.0**-1026, 1.0), QuadratureConfig(panels)))


def _old_piece(a: float, b: float, d: float, n: int) -> float:
    """Composite Simpson of (x - s)/s**2 on [a, b] in n panels, given d = x - b, node by node."""
    h = (b - a) / n
    w1 = h / 3.0
    w2 = w1 + w1
    w4 = w2 + w2
    acc = d / b / b * w1 - (d + (b - a)) / a / a * w1
    for j in range(1, n, 2):
        t = j * h
        u = t + h
        s = b - t
        r = b - u
        acc += (d + t) / s / s * w4 + (d + u) / r / r * w2
    return acc


def _piece_by_piece(x: float, n: int) -> float:
    """The oracle as it was before the reference sums: every piece of the graded mesh node by node."""
    result = 0.0
    a = 1.0
    while a != x and math.isfinite(result):
        b = min(a + a, x) if x > a else max(0.5 * a, x)
        result += _old_piece(a, b, x - b, n)
        a = b
    return result


EVEN_PANELS = st.integers(1, MAX_PANELS // 2).map(lambda k: 2 * k)
NEAR_ONE = (0.5, math.nextafter(0.5, 1.0), 0.75, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 1.5,
            math.nextafter(2.0, 0.0), 2.0)


def test_one_piece_is_bit_identical_at_every_panel_count_to_256():
    # On [1/2, 2] the mesh is one piece and no reference sum is used: the arithmetic is unchanged.
    for x in NEAR_ONE:
        for panels in range(2, 258, 2):
            assert double_integral_residual(x, QuadratureConfig(panels)) == _piece_by_piece(x, panels), (x, panels)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.5, max_value=2.0), EVEN_PANELS)
def test_property_one_piece_is_bit_identical(x, panels):
    assert double_integral_residual(x, QuadratureConfig(panels)) == _piece_by_piece(x, panels)


@settings(max_examples=20, deadline=None)  # the reference walks up to 1020 pieces of 4096 panels: 0.8 s
@given(st.floats(min_value=2.0**-1020, max_value=1e300), EVEN_PANELS)
@example(2.03, 1024)  # just past a breakpoint
@example(2.0**-1020, 64)
@example(0.25, 2)
@example(4.0, MAX_PANELS)
@example(2.0**996, 64)
@example(math.nextafter(2.0**40, 0.0), 256)
@example(math.nextafter(2.0**-40, 1.0), 256)
def test_property_closed_form_matches_piece_by_piece(x, panels):
    # The piece-by-piece sum rounds once per piece, up to 1020 pieces of one sign, so it may drift
    # by about 1020 * 2**-53 = 1.1e-13 from the exact Simpson sum; the closed form stays within 4e-16.
    q = double_integral_residual(x, QuadratureConfig(panels))
    ref = _piece_by_piece(x, panels)
    if 0.5 <= x <= 2.0:
        assert q == ref
    else:
        assert abs(q - ref) <= 1e-13 * ref


def _exact_reference_sums(n: int) -> "tuple[Fraction, Fraction]":
    """The n-panel Simpson sums of 1/s**2 and 1/s on the nodes 1 + j/n of [1, 2], in exact arithmetic."""
    weights = [1] + [4, 2] * (n // 2 - 1) + [4, 1]
    a_den = math.lcm(*(3 * (n + j) ** 2 for j in range(n + 1)))
    b_den = math.lcm(*(3 * (n + j) for j in range(n + 1)))
    a_num = sum(c * n * (a_den // (3 * (n + j) ** 2)) for j, c in enumerate(weights))
    b_num = sum(c * (b_den // (3 * (n + j))) for j, c in enumerate(weights))
    return Fraction(a_num, a_den), Fraction(b_num, b_den)


@pytest.mark.parametrize("n", [2, 4, 64, 1024, MAX_PANELS])
def test_reference_sums_are_within_two_ulp(n):
    for value, exact in zip(oracles._reference_sums(n), _exact_reference_sums(n)):
        assert abs(Fraction(value) - exact) <= 2 * Fraction(math.ulp(float(exact))), (n, value)


def test_one_piece_of_node_work_per_call(monkeypatch):
    # The full pieces come from two cached sums, so each call walks the nodes of one piece only,
    # and each panel count forms its sums once.  x = 1e300 and 2**-1025 have about 1000 pieces.
    pieces = []
    formed = Counter()
    piece, reference_sums = oracles._piece, oracles._reference_sums
    monkeypatch.setattr(oracles, "_piece", lambda *args: pieces.append(args) or piece(*args))
    monkeypatch.setattr(oracles, "_reference_sums", lambda n: formed.update([n]) or reference_sums(n))
    monkeypatch.setattr(oracles, "_REFERENCE_SUMS", {})

    double_integral_residual(2.0, QuadratureConfig(64))
    assert not formed  # one piece and no full one: nothing to form
    powers = [2.0**e for e in (-1024, -100, -2, -1, 1, 2, 3, 100, 1023)]
    xs = [1e300, 2.0**-1025, 2.03, 0.3, 7.0] + powers
    xs += [math.nextafter(p, 0.0) for p in powers] + [math.nextafter(p, math.inf) for p in powers]
    for _ in range(2):
        for panels in (2, 64, 1024, MAX_PANELS):
            for x in xs:
                pieces.clear()
                assert math.isfinite(double_integral_residual(x, QuadratureConfig(panels)))
                assert len(pieces) == 1, (x, panels)
            pieces.clear()
            assert double_integral_residual(1.0, QuadratureConfig(panels)) == 0.0
            assert not pieces
    assert formed == Counter({2: 1, 64: 1, 1024: 1, MAX_PANELS: 1})


def test_reference_log_matches_extended_precision():
    # libm log is the yardstick of bench and of the acceptance accuracy criterion.
    with mpmath.workdps(50):
        for x in (0.037, 0.5, 3.0, 123.456, 1e7):
            assert math.log(x) == pytest.approx(float(mpmath.log(mpmath.mpf(x))), abs=5e-16, rel=2.5e-16)


def test_panels_above_bound_refused():
    # Refused in the config, before any array exists; no large count is run.
    assert MAX_PANELS == 4096
    assert QuadratureConfig(MAX_PANELS).panels == MAX_PANELS
    for bad in (MAX_PANELS + 2, 65536):
        with pytest.raises(ValueError):
            QuadratureConfig(bad)


def test_import_does_not_load_numpy(run_child):
    code = "import logseries, logseries.cli, sys; assert 'numpy' not in sys.modules"
    assert run_child(sys.executable, "-c", code) == (0, b"", b"")


def test_light_commands_load_no_heavy_modules(run_child):
    # Start-up dominates these commands, so they import only what they use.
    # The snapshot keeps the test valid where site already loads some of these.
    code = """
import contextlib, io, sys
before = set(sys.modules)
from logseries import cli
for argv in (["eval", "--x", "4"], ["trace", "--x", "3", "--n", "5"], ["check", "tangent", "--x", "2"],
             ["check", "concavity", "--values", "1,3,0.5"], ["check", "amgm", "--values", "2,8"],
             ["check", "integral", "--x", "2", "--panels", "128"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted({"dataclasses", "inspect", "statistics", "timeit", "numpy"} & (set(sys.modules) - before)))
"""
    assert run_child(sys.executable, "-c", code) == (0, b"[]\n", b"")
