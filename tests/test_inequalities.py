"""Tests for the inequality checks and their randomized sweeps."""

import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from logseries.inequalities import (
    EQUALITY_TOL,
    GAP_TOL,
    PAIR_TOL,
    amgm_check,
    concavity_check,
    log_uniform,
    sweep_amgm,
    sweep_concavity,
    sweep_tangent_at,
    sweep_tangent_line,
    tangent_at,
    tangent_line_gap,
)

DBL_MAX = sys.float_info.max


def test_tangent_line_gap_zero_at_one():
    assert tangent_line_gap(1.0) == 0.0


def test_tangent_line_gap_values():
    assert tangent_line_gap(2.0) == pytest.approx(1.0 - math.log(2.0), abs=1e-12)
    assert tangent_line_gap(0.5) == pytest.approx(math.log(2.0) - 0.5, abs=1e-12)


def test_tangent_line_gap_nonnegative_on_grid():
    for i in range(101):
        x = 1e-6 * (1e8 ** (i / 100.0))
        gap = tangent_line_gap(x)
        assert gap >= -GAP_TOL
        # equality only in a tight window around 1
        if gap <= GAP_TOL:
            assert abs(x - 1.0) <= 1e-6


def test_tangent_at_equality_on_diagonal():
    # x == a makes both the slope term and the log difference exactly zero
    assert tangent_at(3.0, 3.0) == 0.0
    assert tangent_at(0.25, 0.25) == 0.0


def test_tangent_at_values():
    expected = math.log(2.0) + 3.0 - math.log(8.0)
    assert tangent_at(2.0, 8.0) == pytest.approx(expected, abs=1e-11)
    assert tangent_at(1.0, 2.0) == pytest.approx(1.0 - math.log(2.0), abs=1e-11)


def test_tangent_at_nonnegative_on_grid():
    points = [0.01 * (5000.0 ** (i / 14.0)) for i in range(15)]
    for a in points:
        for x in points:
            assert tangent_at(a, x) >= -PAIR_TOL


def test_concavity_degenerate_cases():
    # lam 0 or 1 reduces the mix to one endpoint exactly
    assert concavity_check(2.0, 9.0, 0.0) == 0.0
    assert concavity_check(2.0, 9.0, 1.0) == 0.0
    assert concavity_check(5.0, 5.0, 0.3) == pytest.approx(0.0, abs=1e-12)


def test_concavity_midpoint_value():
    expected = math.log(2.5) - 0.5 * math.log(4.0)
    assert concavity_check(1.0, 4.0, 0.5) == pytest.approx(expected, abs=1e-11)


def test_concavity_nonnegative_on_grid():
    points = (0.02, 0.4, 1.0, 3.0, 40.0)
    for x in points:
        for y in points:
            for lam in (0.1, 0.25, 0.5, 0.9):
                assert concavity_check(x, y, lam) >= -PAIR_TOL


def test_concavity_at_subnormal_inputs():
    # lam * x and (1 - lam) * y both round to 0 at the smallest subnormal.
    assert concavity_check(5e-324, 5e-324, 0.5) == 0.0
    # Here the mix would round 2.5 units to 2, a false violation of -0.13.
    expected = math.log(2.5) - 0.75 * math.log(3.0)
    assert concavity_check(5e-324, 1.5e-323, 0.25) == pytest.approx(expected, abs=1e-11)
    # At lam = 0 the mix is y exactly, and x is not scaled (it may be huge).
    assert concavity_check(sys.float_info.max, 5e-324, 0.0) == 0.0


def test_concavity_lambda_validation():
    for bad in (-0.1, 1.1, math.nan, 10**400):
        with pytest.raises(ValueError):
            concavity_check(2.0, 3.0, bad)
    with pytest.raises(TypeError):
        concavity_check(2.0, 3.0, "0.5")


def test_amgm_two_eight():
    report = amgm_check([2.0, 8.0])
    assert report.arithmetic_mean == 5.0
    assert report.geometric_mean == pytest.approx(4.0, rel=1e-12)
    assert report.holds is True
    assert report.equality is False


def test_amgm_powers_of_two():
    report = amgm_check([1.0, 2.0, 4.0])
    assert report.arithmetic_mean == pytest.approx(7.0 / 3.0, rel=1e-15)
    assert report.geometric_mean == pytest.approx(2.0, rel=1e-12)
    assert report.holds is True


def test_amgm_constant_vectors_report_equality():
    for scale in (1e-6, 0.125, 1.0, 7.0, 100.0):
        for length in (1, 2, 3, 8, 16):
            report = amgm_check([scale] * length)
            assert report.arithmetic_mean == pytest.approx(scale, rel=1e-15)
            assert report.holds is True
            assert report.equality is True


@pytest.mark.parametrize(
    "values",
    [[1e308, 1e308], [DBL_MAX, DBL_MAX], [DBL_MAX] * 3, [DBL_MAX]],
    ids=["1e308_x2", "dbl_max_x2", "dbl_max_x3", "dbl_max_x1"],
)
def test_amgm_constant_vectors_near_dbl_max(values):
    # The plain sum, exp(mean log), or both overflow here.
    report = amgm_check(values)
    assert report.arithmetic_mean == values[0]
    assert report.geometric_mean == pytest.approx(values[0], rel=1e-12)
    assert report.holds is True
    assert report.equality is True


def test_amgm_mixed_vector_near_dbl_max():
    values = [DBL_MAX, 1e308, 2.0, 0.5]
    report = amgm_check(values)
    assert report.arithmetic_mean == pytest.approx((DBL_MAX / 4 + 1e308 / 4) + 0.625, rel=1e-15)
    expected_gm = math.exp((math.log(DBL_MAX) + math.log(1e308)) / 4)
    assert report.geometric_mean == pytest.approx(expected_gm, rel=1e-12)
    assert report.holds is True and report.equality is False


def test_amgm_validation():
    with pytest.raises(ValueError):
        amgm_check([])
    with pytest.raises(ValueError):
        amgm_check([2.0, -1.0])
    with pytest.raises(ValueError):
        amgm_check([0.0])
    with pytest.raises(TypeError):
        amgm_check("2,8")


def test_amgm_scale_covariance():
    base = [0.8, 3.0, 7.5, 1.25]
    report = amgm_check(base)
    for c in (1e-3, 7.0, 1e3):
        scaled = amgm_check([c * v for v in base])
        assert scaled.arithmetic_mean == pytest.approx(c * report.arithmetic_mean, rel=1e-12)
        assert scaled.geometric_mean == pytest.approx(c * report.geometric_mean, rel=1e-12)
        assert scaled.holds is report.holds


def test_log_uniform_bounds_and_determinism():
    rng = random.Random(0)
    draws = [log_uniform(rng) for _ in range(1000)]
    assert all(1e-6 <= d <= 100.0 for d in draws)
    rng_a, rng_b = random.Random(9), random.Random(9)
    assert [log_uniform(rng_a) for _ in range(10)] == [log_uniform(rng_b) for _ in range(10)]


def test_sweeps_clean_at_modest_counts():
    assert sweep_tangent_line(count=200, seed=7).violations == 0
    assert sweep_tangent_at(count=200, seed=7).violations == 0
    assert sweep_concavity(count=200, seed=7).violations == 0
    assert sweep_amgm(count=100, seed=7).violations == 0


def test_sweep_count_below_one_is_refused():
    # Types of count are covered by the number-rule table in test_records.
    for sweep in (sweep_tangent_line, sweep_tangent_at, sweep_concavity, sweep_amgm):
        for count in (-5, 0):
            with pytest.raises(ValueError, match="count"):
                sweep(count=count)


def test_sweep_reports_are_reproducible():
    first = sweep_tangent_line(count=50, seed=3)
    second = sweep_tangent_line(count=50, seed=3)
    assert first == second
    assert first.checked == 50
    assert first.min_margin > -GAP_TOL
    assert first.first_violation is None


def test_sweep_amgm_margin_matches_holds_threshold():
    report = sweep_amgm(count=100, seed=11)
    assert report.threshold == -EQUALITY_TOL
    assert report.violations == 0


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.01, max_value=100.0), st.floats(min_value=0.01, max_value=100.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_property_concavity_nonnegative(x, y, lam):
    assert concavity_check(x, y, lam) >= -PAIR_TOL


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=8))
def test_property_amgm_holds(values):
    assert amgm_check(values).holds


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.01, max_value=100.0), st.floats(min_value=0.01, max_value=100.0))
def test_property_tangent_at_nonnegative(a, x):
    assert tangent_at(a, x) >= -PAIR_TOL
