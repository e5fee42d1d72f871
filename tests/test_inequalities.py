"""Tests for the inequality checks and their randomized sweeps."""

import ast
import math
import random
import sys
import tracemalloc

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from logseries.inequalities import (
    EQUALITY_TOL,
    GAP_TOL,
    MAX_SWEEP_COUNT,
    PAIR_TOL,
    amgm_check,
    concavity_check,
    sweep_amgm,
    sweep_concavity,
    sweep_tangent_at,
    sweep_tangent_line,
    tangent_at,
    tangent_line_gap,
)
from logseries.inequalities import _concavity, _draws, _gap, _means, _sweep, _tangent_at
from logseries.series import _log

DBL_MAX = sys.float_info.max

# Where x/a or x/y rounds to 0 or a subnormal, the checks take the logs apart.
TANGENT_CORNERS = [(1.0, 5e-324), (2.0, 5e-324), (1e300, 1e-300)]
CONCAVITY_CORNERS = [(5e-324, DBL_MAX, 0.5), (1e-300, 1e300, 1e-10)]
# Vectors that reach both ends of the double range, where v / AM rounds to 0 or a subnormal.
AMGM_CORNERS = [
    [1e-300, 1e300], [5e-324, DBL_MAX], [5e-324] * 3 + [DBL_MAX] * 2, [5e-324, 1.0], [DBL_MAX, 1.0, 5e-324],
    [5e-324] * 15 + [DBL_MAX],
]

POSITIVE = st.floats(min_value=5e-324, max_value=DBL_MAX)
# The second point within a factor 1/2..3/2 of the first, often within a few ulps.
NEAR_DIAGONAL = st.tuples(POSITIVE, st.floats(min_value=-0.5, max_value=0.5)).map(
    lambda p: (p[0], min(max(p[0] * (1.0 + p[1]), 5e-324), DBL_MAX))
)
PAIRS = st.one_of(st.tuples(POSITIVE, POSITIVE), NEAR_DIAGONAL)


def tangent_at_error(a, x):
    """|tangent_at(a, x) - exact| / (1 + |log(x/a)| + |(x - a)/a|), exact from mpmath at 200 bits."""
    with mpmath.workprec(200):
        r = mpmath.mpf(x) / mpmath.mpf(a)
        exact = (r - 1) - mpmath.log(r)
        return abs(mpmath.mpf(tangent_at(a, x)) - exact) / (1 + abs(mpmath.log(r)) + abs(r - 1))


def concavity_error(x, y, lam):
    """|concavity_check(x, y, lam) - exact| / (1 + |log(x/y)|), exact from mpmath at 200 bits."""
    with mpmath.workprec(200):
        xm, ym, lm = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(lam)
        exact = mpmath.log(lm * xm + (1 - lm) * ym) - lm * mpmath.log(xm) - (1 - lm) * mpmath.log(ym)
        return abs(mpmath.mpf(concavity_check(x, y, lam)) - exact) / (1 + abs(mpmath.log(xm / ym)))


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


@pytest.mark.parametrize("x", [1.0 + sign * 10.0**-k for k in range(1, 13) for sign in (-1.0, 1.0)])
def test_tangent_line_gap_relative_near_one(x):
    # x - 1 is exact here, so the gap's error is the logarithm's: a few ulps of |x - 1|.
    with mpmath.workprec(200):
        exact = mpmath.mpf(x) - 1 - mpmath.log(mpmath.mpf(x))
        assert abs(mpmath.mpf(tangent_line_gap(x)) - exact) <= 4 * 2.0**-52 * abs(x - 1.0)


def test_tangent_at_equality_on_diagonal():
    # x == a makes both the slope term and the log difference exactly zero
    assert tangent_at(3.0, 3.0) == 0.0
    assert tangent_at(0.25, 0.25) == 0.0


def test_tangent_at_values():
    expected = math.log(2.0) + 3.0 - math.log(8.0)
    assert tangent_at(2.0, 8.0) == pytest.approx(expected, abs=1e-11)
    assert tangent_at(1.0, 2.0) == pytest.approx(1.0 - math.log(2.0), abs=1e-11)
    assert tangent_at(1e-300, 1e8) == pytest.approx(1e308)  # a huge slope that is still finite


def test_tangent_at_nonnegative_on_grid():
    points = [0.01 * (5000.0 ** (i / 14.0)) for i in range(15)]
    for a in points:
        for x in points:
            assert tangent_at(a, x) >= -PAIR_TOL


@pytest.mark.parametrize("a, x", [(1e-300, 1e300), (5e-324, 1.0)])
def test_tangent_at_beyond_the_float_range_is_a_value_error(a, x):
    # (x - a)/a overflows to inf here.
    with pytest.raises(ValueError, match="beyond the float range"):
        tangent_at(a, x)


@pytest.mark.parametrize("a, x", TANGENT_CORNERS)
def test_tangent_at_where_the_ratio_is_not_normal(a, x):
    assert x / a < sys.float_info.min
    assert tangent_at_error(a, x) <= 1e-15


@settings(max_examples=300, deadline=None)
@given(PAIRS)
def test_property_tangent_at_accurate_to_the_ratio_log(pair):
    # One log of x/a: the error scales with 1 + |log(x/a)|, not with |log a| + |log x|.
    a, x = pair
    assume(x / a <= DBL_MAX)  # else (x - a)/a overflows and tangent_at refuses the pair
    assert tangent_at_error(a, x) <= 1e-15


def test_concavity_degenerate_cases():
    # lam 0 or 1 reduces the mix to one endpoint exactly
    assert concavity_check(2.0, 9.0, 0.0) == 0.0
    assert concavity_check(2.0, 9.0, 1.0) == 0.0
    assert concavity_check(5.0, 5.0, 0.3) == pytest.approx(0.0, abs=1e-12)


def test_concavity_at_equal_points_is_within_the_rounding_of_the_mix():
    # At x = y the margin is log(mix/x), mix/x within two ulps of 1: nonzero and
    # even negative on some draws, yet never past 2**-51.
    rng = random.Random(20)
    ends = (5e-324, sys.float_info.min, math.nextafter(1.0, 0.0), 1.0, DBL_MAX)
    lams = (5e-324, 1e-300, 0.3, 0.5, math.nextafter(1.0, 0.0))
    cases = [(x, lam) for x in ends for lam in lams]
    cases += [(math.exp(rng.uniform(-744.0, 709.78)), rng.random()) for _ in range(100_000)]
    assert max(abs(concavity_check(x, x, lam)) for x, lam in cases) <= 2.0**-51


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
    # (1 - lam) * y rounds back to y here, so at any lam > 0 the mix is rescaled: unscaled,
    # the margin would read 7.61e-10 where the exact one is 6.61e-10.
    assert concavity_error(5e-324, 1e-320, 1e-10) <= 1e-15


@pytest.mark.parametrize("x, y, lam", CONCAVITY_CORNERS)
def test_concavity_where_the_ratio_is_not_normal(x, y, lam):
    assert x / y < sys.float_info.min
    assert concavity_error(x, y, lam) <= 1e-15


@settings(max_examples=300, deadline=None)
@given(PAIRS, st.floats(min_value=0.0, max_value=1.0))
def test_property_concavity_accurate_to_the_ratio_log(pair, lam):
    # Logs of mix/y and x/y: the error scales with 1 + |log(x/y)|.
    x, y = pair
    assert concavity_error(x, y, lam) <= 1e-15


def _same(a, b):
    """Equal doubles with equal signs, so 0.0 and -0.0 differ."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _with_corner_examples(test):
    for a, x in TANGENT_CORNERS:
        test = example((a, x), 0.5, [a, x])(test)
    for x, y, lam in CONCAVITY_CORNERS:
        test = example((x, y), lam, [x, y])(test)
    for values in AMGM_CORNERS:
        test = example((values[0], values[-1]), 0.5, values)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(PAIRS, st.floats(min_value=0.0, max_value=1.0), st.lists(POSITIVE, min_size=1, max_size=16))
@_with_corner_examples
def test_property_kernels_equal_the_public_checks(pair, lam, values):
    # The sweeps call the kernels on their own draws; off the sweeps' range they must still agree.
    a, x = pair
    assert _same(_gap(a), tangent_line_gap(a)) and _same(_gap(x), tangent_line_gap(x))
    try:
        expected = tangent_at(a, x)
    except ValueError:
        assert _tangent_at(a, x) == math.inf  # the overflow the public check refuses
    else:
        assert _same(_tangent_at(a, x), expected)
    assert _same(_concavity(a, x, lam), concavity_check(a, x, lam))
    report = amgm_check(values)
    am, gm = _means(values)
    assert _same(am, report.arithmetic_mean) and _same(gm, report.geometric_mean)


def test_concavity_lambda_validation():
    for bad in (-0.1, 1.1, math.nextafter(1.0, 2.0), -5e-324, math.nan, 10**400):
        with pytest.raises(ValueError):
            concavity_check(2.0, 3.0, bad)
    with pytest.raises(TypeError):
        concavity_check(2.0, 3.0, "0.5")


def test_amgm_two_eight():
    report = amgm_check([2.0, 8.0])
    assert report.arithmetic_mean == 5.0
    assert report.geometric_mean == 4.0
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


def test_amgm_at_the_ends_of_the_range(run_child):
    # In a child interpreter with a timeout, so a check that stops returning fails here instead of hanging.
    code = (
        "from logseries.inequalities import amgm_check\n"
        f"print([(r.holds, r.geometric_mean) for r in map(amgm_check, {AMGM_CORNERS!r})])"
    )
    status, out, err = run_child(sys.executable, "-c", code)
    assert status == 0, err
    for values, (holds, gm) in zip(AMGM_CORNERS, ast.literal_eval(out.decode()), strict=True):
        assert holds is True
        with mpmath.workprec(200):
            exact = mpmath.exp(mpmath.fsum(mpmath.log(mpmath.mpf(v)) for v in values) / len(values))
            assert abs(mpmath.mpf(gm) - exact) <= 1e-13 * exact, values


def test_amgm_validation():
    with pytest.raises(ValueError):
        amgm_check([])
    with pytest.raises(ValueError):
        amgm_check([2.0, -1.0])
    with pytest.raises(ValueError):
        amgm_check([0.0])
    # Text and bytes iterate as characters or small ints, not as the numbers they spell: refused, not read.
    for text in ("2,8", b"\x02\x08", bytearray(b"28")):
        with pytest.raises(TypeError):
            amgm_check(text)


def test_amgm_scale_covariance():
    base = [0.8, 3.0, 7.5, 1.25]
    report = amgm_check(base)
    for c in (1e-3, 7.0, 1e3):
        scaled = amgm_check([c * v for v in base])
        assert scaled.arithmetic_mean == pytest.approx(c * report.arithmetic_mean, rel=1e-12)
        assert scaled.geometric_mean == pytest.approx(c * report.geometric_mean, rel=1e-12)
        assert scaled.holds is report.holds


def _log_uniform(rng):
    """The plain log-uniform draw on the sweeps' default bounds [1e-6, 100]."""
    return math.exp(rng.uniform(math.log(1e-6), math.log(100.0)))


class _FixedRandom(random.Random):
    """A generator whose random() always returns one value."""

    def __init__(self, value):
        super().__init__(0)
        self.value = value

    def random(self):
        return self.value


@pytest.mark.parametrize("value", [0.0, 1.0 - 2.0**-53])
def test_sweep_draw_extremes_stay_in_the_default_bounds(value):
    # Why _draws needs no clamp: its extremes are 1.0000000000000004e-06 and 99.99999999999987.
    draw = next(_draws(_FixedRandom(value)))
    assert 1e-6 <= draw <= 100.0
    assert draw.hex() == _log_uniform(_FixedRandom(value)).hex()


@pytest.mark.parametrize("seed", [0, 42, 1711])
def test_sweep_draws_are_log_uniform_draws(seed):
    # The sweeps draw with the logs of the default bounds taken once: the same stream, bit for bit.
    # The stream is lazy: after 10,000 draws it has taken exactly 10,000 random() values.
    rng_a, rng_b = random.Random(seed), random.Random(seed)
    draws = _draws(rng_a)
    for _ in range(10000):
        assert next(draws).hex() == _log_uniform(rng_b).hex()
    assert rng_a.getstate() == rng_b.getstate()


def test_default_sweeps_keep_their_worst_inputs():
    line, at, concavity, amgm = (sweep() for sweep in (sweep_tangent_line, sweep_tangent_at, sweep_concavity, sweep_amgm))
    assert (line.checked, at.checked, concavity.checked, amgm.checked) == (10000, 10000, 10000, 1000)
    assert (line.violations, at.violations, concavity.violations, amgm.violations) == (0, 0, 0, 0)
    assert line.worst_input == (1.0034139842672314,)
    assert at.worst_input == (0.5123610433025396, 0.5125998339427719)
    assert concavity.worst_input == (0.5748265591028625, 0.5751143451833403, 0.4578843339102676)


def test_checks_call_no_libm_log(monkeypatch):
    def refuse(*args):
        raise AssertionError("libm log called")

    for name in ("log", "log1p", "log2", "log10"):
        monkeypatch.setattr(math, name, refuse)
    assert _log(3.0) > 0.0
    assert tangent_line_gap(3.0) > 0.0
    assert tangent_at(2.0, 3.0) > 0.0
    assert concavity_check(1.0, 4.0, 0.5) > 0.0
    assert amgm_check([2.0, 8.0]).holds
    for a, x in TANGENT_CORNERS:
        assert tangent_at(a, x) > 0.0
    for x, y, lam in CONCAVITY_CORNERS:
        assert concavity_check(x, y, lam) > 0.0
    # The sweeps run the margin kernels, not the public checks.
    for sweep in (sweep_tangent_line, sweep_tangent_at, sweep_concavity, sweep_amgm):
        report = sweep(count=50)
        assert report.violations == 0 and report.min_margin > report.threshold


def test_sweeps_clean_at_modest_counts():
    assert sweep_tangent_line(count=200, seed=7).violations == 0
    assert sweep_tangent_at(count=200, seed=7).violations == 0
    assert sweep_concavity(count=200, seed=7).violations == 0
    assert sweep_amgm(count=100, seed=7).violations == 0


def test_sweeps_run_at_their_floor_count():
    for sweep in (sweep_tangent_line, sweep_tangent_at, sweep_concavity, sweep_amgm):
        report = sweep(count=1)
        assert report.checked == 1 and report.worst_input and report.violations == 0
        assert report.min_margin > report.threshold


def test_sweep_count_below_one_is_refused():
    # Types of count are covered by the number-rule table in test_records.
    for sweep in (sweep_tangent_line, sweep_tangent_at, sweep_concavity, sweep_amgm):
        for count in (-5, 0):
            with pytest.raises(ValueError, match="count"):
                sweep(count=count)


def test_sweep_count_above_bound_is_refused():
    # Refused before the first draw; no large count is run.
    for sweep in (sweep_tangent_line, sweep_tangent_at, sweep_concavity, sweep_amgm):
        for count in (MAX_SWEEP_COUNT + 1, 10**100):
            with pytest.raises(ValueError, match=f"count must be at most {MAX_SWEEP_COUNT}, got {count}"):
                sweep(count=count)


def test_sweep_seed_is_an_integer_of_either_sign():
    # The number-rule table in test_records covers numpy integers and the other refusals.
    for seed in (True, None, "a", b"x", 2.5):
        with pytest.raises(TypeError, match="seed"):
            sweep_tangent_line(count=3, seed=seed)
    assert sweep_tangent_line(count=50, seed=-3) == sweep_tangent_line(count=50, seed=-3)


def test_sweep_counts_violations_as_a_recount_does():
    points = ((v - 0.5, (v,)) for v in iter(random.Random(9).random, None))
    report = _sweep("half", points, 0.0, 200)
    assert report.checked == 200
    rng = random.Random(9)
    values = [rng.random() for _ in range(200)]
    below = [v for v in values if v - 0.5 < 0.0]
    assert report.violations == len(below) > 0
    assert report.first_violation == ((below[0],), below[0] - 0.5)
    assert report.min_margin == min(values) - 0.5
    assert report.worst_input == (min(values),)


def _recount(draw, check, threshold, count, seed):
    """A sweep's (min_margin, worst_input, violations, first_violation), redrawn and checked through ``check``."""
    rng = random.Random(seed)
    draws = [draw(rng) for _ in range(count)]
    margins = [check(*args) for args in draws]
    worst = min(range(count), key=margins.__getitem__)
    below = [i for i in range(count) if margins[i] < threshold]
    first = (draws[below[0]], margins[below[0]]) if below else None
    return margins[worst], draws[worst], len(below), first


def _amgm_margin(values):
    report = amgm_check(values)
    return (report.arithmetic_mean - report.geometric_mean) / report.arithmetic_mean


@pytest.mark.parametrize("seed", [0, 42, 1711])
def test_sweeps_report_what_the_public_checks_compute(seed):
    # The sweeps skip the argument checks on their own draws; the public checks must agree on each one.
    cases = [
        (sweep_tangent_line, lambda rng: (_log_uniform(rng),), tangent_line_gap),
        (sweep_tangent_at, lambda rng: (_log_uniform(rng), _log_uniform(rng)), tangent_at),
        (sweep_concavity, lambda rng: (_log_uniform(rng), _log_uniform(rng), rng.random()), concavity_check),
        (sweep_amgm, lambda rng: (tuple(_log_uniform(rng) for _ in range(rng.randint(2, 16))),), _amgm_margin),
    ]
    for sweep, draw, check in cases:
        report = sweep(count=2000, seed=seed)
        recount = _recount(draw, check, report.threshold, 2000, seed)
        assert (report.min_margin, report.worst_input, report.violations, report.first_violation) == recount


@pytest.mark.parametrize("sweep", [sweep_tangent_at, sweep_concavity])
def test_sweep_memory_does_not_grow_with_count(sweep):
    sweep(count=10)  # one-time first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        sweep(count=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The sweep draws and reduces one point at a time, so its peak is O(1) in count
    # (3-4 KB); a list of 100,000 pre-drawn points would hold over 1 MB.
    assert peak < 64 * 1024


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


@pytest.mark.parametrize("seed", [0, 42, 1711])
def test_sweep_amgm_worst_case_is_a_vector_with_two_or_more_values(seed):
    # At length 1 AM = GM exactly, so one such draw would pin the reported minimum at 0.
    report = sweep_amgm(seed=seed)
    (values,) = report.worst_input
    assert len(values) >= 2
    assert report.min_margin > 0.0


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
