"""Unit tests for the decrement chain, terms, partial sums, and eval_log."""

import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from logseries.series import (
    EvalConfig,
    LogApproxResult,
    PositiveInput,
    decrement_step,
    difference_quotient,
    eval_log,
    partial_sum,
    tail_ratio,
    trace,
)
from logseries.series import _log, _walk

DBL_MAX = sys.float_info.max
DBL_MIN = sys.float_info.min
SQRT_HALF = math.sqrt(0.5)

# Correctly rounded doubles of exact targets, frozen from 60-digit
# mpmath evaluations.
ROOT4_OF_TWO_MINUS_ONE = 0.18920711500272105  # 2**(1/4) - 1
SQRT_TWO_MINUS_ONE = 0.41421356237309503      # 2**(1/2) - 1
S2_AT_FOUR = 1.3431457505076199               # 1 + 2*(sqrt(2) - 1)**2
D2_AT_FOUR = 1.6568542494923801               # 4*(sqrt(2) - 1)


def test_positive_input_accepts_and_converts():
    p = PositiveInput(4)
    assert p.x == 4.0 and isinstance(p.x, float)
    assert float(p) == 4.0
    assert eval_log(PositiveInput(2.0)).log_value == eval_log(2.0).log_value


@pytest.mark.parametrize("bad", [0.0, -3.0, math.inf, -math.inf, math.nan])
def test_positive_input_rejects_nonpositive_and_nonfinite(bad):
    with pytest.raises(ValueError):
        PositiveInput(bad)


@pytest.mark.parametrize("bad", ["2", None, True, 2 + 0j])
def test_positive_input_rejects_non_reals(bad):
    with pytest.raises(TypeError):
        PositiveInput(bad)


def test_decrement_step_fixed_point_and_exact_cases():
    assert decrement_step(0.0) == 0.0
    # 3 -> sqrt(4) - 1 with every intermediate exact
    assert decrement_step(3.0) == 1.0
    assert decrement_step(-0.75) == -0.5


def test_decrement_step_tracks_fourth_root():
    # One step from sqrt(2) - 1 should land on 2**(1/4) - 1 to within an ulp or two.
    assert decrement_step(SQRT_TWO_MINUS_ONE) == pytest.approx(ROOT4_OF_TWO_MINUS_ONE, abs=2.5e-16)


def test_decrement_step_contracts_and_preserves_sign():
    for u in (1e-9, 0.25, 3.0, 80.0):
        v = decrement_step(u)
        assert 0.0 < v <= u / 2
    for u in (-0.9, -0.5, -1e-7):
        v = decrement_step(u)
        assert u < v < 0.0
        assert abs(v) < abs(u)


def test_decrement_step_domain_errors():
    for bad in (-1.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            decrement_step(bad)
    for bad in ("0.5", None, True):
        with pytest.raises(TypeError):
            decrement_step(bad)


def _chain(x, n):
    """u_0..u_n as the (k, u) columns of the trace rows."""
    return [(row.k, row.u) for row in trace(x, n)]


def test_trace_chain_below_half_seeds_from_roots():
    # 0.25 -> 0.5 in one square root; both leading subtractions are exact.
    chain = _chain(0.25, 2)
    assert chain[0] == (0, -0.75)
    assert chain[1] == (1, -0.5)
    assert chain[2][1] == pytest.approx(0.25 ** 0.25 - 1.0, abs=1e-15)


def test_trace_chain_matches_recurrence_above_half():
    for x in (0.5, 0.9, 2.0, 10.0, 1e8):
        chain = _chain(x, 30)
        u = x - 1.0
        assert chain[0] == (0, u)
        for k, chain_u in chain[1:]:
            u = decrement_step(u)
            assert chain_u == u, (x, k)


def test_trace_chain_tracks_true_roots():
    # Oracle check against 50-digit arithmetic, including x far below 1/2
    # where the chain is seeded from direct square roots.
    with mpmath.workdps(50):
        for x in (1e-8, 0.3, 0.5, 7.0, 4e5):
            chain = _chain(x, 50)
            for k in (0, 3, 10, 27, 50):
                expected = float(mpmath.root(mpmath.mpf(x), 2 ** k) - 1)
                assert chain[k][1] == pytest.approx(expected, rel=5e-13, abs=1e-18)


def test_term_matches_extended_precision():
    # Each term of trace is one multiply and an exact power-of-two scale, so it is
    # 2**(k-1) * u_k**2 correctly rounded, from the row's own u_k, wherever u_k and
    # the term are normal.  Past the cutoff a subnormal row u is a rounding of
    # u_m * 2**(m-k), and the term, formed from u_m, is the more accurate of the two.
    rng = random.Random(20)
    xs = [5e-324, DBL_MIN, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), DBL_MAX]
    xs += [math.exp(rng.uniform(-744.0, 709.78)) for _ in range(50)]
    xs += [1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** -rng.uniform(1.0, 15.0) for _ in range(50)]
    checked = 0
    with mpmath.workprec(120):  # u_k**2 * 2**(k-1) exactly: 106 bits
        for x in xs:
            for row in trace(x, 1300)[1:]:
                if abs(row.u) < DBL_MIN:
                    continue
                expected = float(mpmath.ldexp(mpmath.mpf(row.u) ** 2, row.k - 1))
                if DBL_MIN <= expected <= DBL_MAX:
                    assert row.term == expected, (x, row.k)
                    checked += 1
    assert checked > 100_000


def test_partial_sum_examples():
    assert partial_sum(3.7, 0) == 0.0
    assert partial_sum(4.0, 1) == 1.0
    assert partial_sum(4.0, 2) == pytest.approx(S2_AT_FOUR, abs=5e-16)
    assert partial_sum(1.0, 40) == 0.0


def test_partial_sum_nonnegative_and_monotone():
    for x in (0.3, 2.0, 50.0):
        previous = 0.0
        for n in range(41):
            s = partial_sum(x, n)
            assert s >= 0.0
            assert s >= previous
            previous = s


def test_partial_sum_converges_to_residual():
    for x in (0.2, 0.5, 2.0, 9.0):
        assert partial_sum(x, 60) == pytest.approx(x - 1.0 - math.log(x), rel=1e-12, abs=1e-15)


def test_difference_quotient_examples():
    assert difference_quotient(4.0, 0) == 3.0
    assert difference_quotient(4.0, 1) == 2.0
    assert difference_quotient(4.0, 2) == pytest.approx(D2_AT_FOUR, abs=1e-15)
    assert difference_quotient(1.0, 17) == 0.0


def test_difference_quotient_converges_to_log():
    for x in (1e-3, 0.5, 2.0, 1e3):
        d = difference_quotient(x, 60)
        assert d == pytest.approx(math.log(x), rel=1e-13, abs=1e-15)


def test_telescoping_identity_per_row():
    for x in (0.07, 0.5, 4.0, 250.0):
        scale = max(1.0, abs(x - 1.0))
        for n in (1, 10, 40):
            defect = partial_sum(x, n) + difference_quotient(x, n) - (x - 1.0)
            assert abs(defect) <= 1e-13 * scale


def test_eval_log_at_one_stops_immediately():
    result = eval_log(1.0)
    assert result.log_value == 0.0
    assert result.residual == 0.0
    assert result.terms_used == 1
    assert result.tail_estimate == 0.0
    assert result.converged is True


def test_eval_log_matches_reference():
    for x in (0.5, 4.0):
        result = eval_log(x)
        assert result.converged
        assert result.log_value == pytest.approx(math.log(x), abs=1e-13)


def test_eval_log_result_consistency():
    for x in (0.01, 0.7, 3.0, 500.0):
        result = eval_log(x)
        assert result.converged
        assert result.residual >= 0.0
        assert result.tail_estimate <= 1e-14
        assert result.log_value + result.residual == pytest.approx(x - 1.0, abs=1e-13 * max(1.0, abs(x - 1.0)))


def test_eval_log_nonconvergence_is_reported_not_raised():
    result = eval_log(2.0, EvalConfig(tol=1e-30))
    assert result.converged is False
    assert result.terms_used == 96
    assert result.tail_estimate > 1e-30
    # the estimate is still the best the budget allows
    assert result.log_value == pytest.approx(math.log(2.0), rel=1e-12)


def test_eval_log_respects_term_budget():
    result = eval_log(10.0, EvalConfig(tol=1e-14, max_terms=5))
    assert result.terms_used == 5
    assert result.converged is False


def test_eval_log_does_not_stop_at_a_seeding_step_below_minus_half():
    # There the tail exceeds 2 * term_k: x = 0.01 at tol = 2 stopped at term 1 with
    # tail_estimate 1.62 and an error of 2.81.  Past the seeding the estimate bounds the error.
    for x, tol in ((0.01, 2.0), (1e-6, 20.0)):
        result = eval_log(x, EvalConfig(tol=tol))
        assert result.converged
        assert abs(result.log_value - math.log(x)) <= result.tail_estimate <= tol, (x, result)
    result = eval_log(1e-6, EvalConfig(tol=20.0, max_terms=1))
    assert result.tail_estimate == math.inf
    assert result.converged is False


def test_eval_config_defaults_and_validation():
    config = EvalConfig()
    assert config.tol == 1e-14
    assert config.max_terms == 96
    for kwargs in ({"tol": 0.0}, {"tol": -1e-10}, {"tol": math.nan},
                   {"max_terms": 0}, {"max_terms": -2}, {"max_terms": 2.5}):
        with pytest.raises(ValueError):
            EvalConfig(**kwargs)
    # An int tol is accepted, as x is, and stored as a float; bool and out-of-range ints are not.
    assert EvalConfig(tol=1) == EvalConfig(tol=1.0)
    assert type(EvalConfig(tol=1).tol) is float
    assert type(EvalConfig()._replace(tol=2).tol) is float
    for bad in (True, 0, -1, 10**400, "1e-10", None):
        with pytest.raises(ValueError, match="tol"):
            EvalConfig(tol=bad)


def test_eval_config_has_no_tail_factor_field():
    # The tail factor is the constant 2; a stop at factor f is tol scaled by 2 / f.
    assert EvalConfig._fields == ("tol", "max_terms")
    with pytest.raises(TypeError):
        EvalConfig(safety_factor=3.0)
    with pytest.raises(TypeError):
        EvalConfig(1e-14, 96, 2.0)


def test_tail_ratio_examples():
    # term_1(4) = 1, so the scaled term is exactly 2
    assert tail_ratio(4.0, 1) == 2.0
    assert tail_ratio(2.0, 40) == pytest.approx(0.5 * math.log(2.0) ** 2, abs=1e-7)
    assert tail_ratio(0.5, 40) == pytest.approx(0.5 * math.log(0.5) ** 2, abs=1e-7)
    assert tail_ratio(math.exp(2.0), 40) == pytest.approx(2.0, abs=1e-6)


def test_tail_ratio_domain():
    # x = 1 is in the domain: every term is 0, and so is the limit log(1)**2 / 2.
    assert tail_ratio(1.0, 10) == 0.0
    with pytest.raises(ValueError):
        tail_ratio(2.0, 0)


def test_term_ratio_near_half_at_k50():
    # The computed ratio saturates at exactly 1/2 once 1 + u has no spare
    # bits, so the window must be closed on both sides.
    for x in (0.5, 2.0, 10.0):
        rows = trace(x, 51)
        ratio = rows[51].term / rows[50].term
        assert 0.5 - 1e-6 <= ratio <= 0.5 + 1e-6


def test_term_ratio_strictly_below_half_before_saturation():
    # Strictness is a real-arithmetic fact; in doubles it holds while
    # u_k >= 2**-50 (4 eps).  Below 2**-52 the step returns u_k / 2
    # exactly and the ratio is exactly 1/2; in between it can go either
    # way (already 1/2 at u ~ 7.8e-16 = 3.5 eps for some x > 1).  k <= 40
    # keeps u_k far above 2**-50 for these x.
    for x in (2.0, 10.0, 100.0):
        rows = trace(x, 41)
        for k in range(1, 41):
            ratio = rows[k + 1].term / rows[k].term
            assert ratio < 0.5


def test_trace_rows_at_four():
    rows = trace(4.0, 2)
    assert rows[0] == (0, 3.0, 0.0, 0.0, 3.0)
    assert rows[1] == (1, 1.0, 1.0, 1.0, 2.0)
    assert [row.k for row in rows] == [0, 1, 2]
    assert rows[2].u == pytest.approx(SQRT_TWO_MINUS_ONE, abs=1e-15)
    assert rows[2].partial_sum == pytest.approx(S2_AT_FOUR, abs=5e-16)
    assert rows[2].diff_quotient == pytest.approx(D2_AT_FOUR, abs=1e-15)


def test_trace_at_one_is_all_zero():
    assert _chain(1.0, 3) == [(0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0)]
    for row in trace(1.0, 5):
        assert (row.u, row.term, row.partial_sum, row.diff_quotient) == (0.0, 0.0, 0.0, 0.0)


def test_trace_single_row_and_validation():
    rows = trace(9.0, 0)
    assert len(rows) == 1 and rows[0] == (0, 8.0, 0.0, 0.0, 8.0)
    with pytest.raises(ValueError):
        trace(9.0, -1)
    with pytest.raises(TypeError):
        trace(4.0, 1.5)
    with pytest.raises(ValueError):
        trace(0.0, 3)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=sys.float_info.max, exclude_min=True), st.integers(0, 90))
def test_property_telescoping(x, n):
    # Every row over the whole double range: S_k + D_k = x - 1, S_k nondecreasing, D_k nonincreasing, term_k >= 0.
    rows = trace(x, n)
    for prev, row in zip(rows, rows[1:]):
        assert row.partial_sum >= prev.partial_sum, (x, row)
        # Exact, no slack: a step divides u by d >= 2 when u >= 0 and by d < 2 when u < 0, and rounding is monotone.
        assert row.diff_quotient <= prev.diff_quotient, (x, row)
    for row in rows:
        assert row.term >= 0.0, (x, row)
        defect = row.partial_sum + row.diff_quotient - (x - 1.0)
        assert abs(defect) <= 1e-13 * max(1.0, abs(x - 1.0), abs(row.diff_quotient)), (x, row)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=DBL_MAX, exclude_min=True),
    st.floats(min_value=0.0, max_value=DBL_MAX, exclude_min=True),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from((1, 2, 4, 8, 16, 32, 60)),
)
@example(math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 0.5, 60)  # the mix rounds to 1.0
@example(3.0305781200384156e272, 3.030578103441419e272, 0.561357864778379, 60)  # close points: rounding is all
def test_property_difference_quotient_is_concave(x, y, lam, n):
    # Jensen for D_n: D_n(mix) >= w * D_n(x) + (1 - w) * D_n(y).  w is the exact weight of the
    # rounded mix (kept between x and y, so w is in [0, 1]), so the mix's own rounding does not
    # enter; near 1 that rounding alone breaks the inequality by up to about eps absolute.
    mix = min(max(lam * x + (1.0 - lam) * y, min(x, y)), max(x, y))
    w = (Fraction(mix) - Fraction(y)) / (Fraction(x) - Fraction(y)) if x != y else Fraction(1)
    wx, wy = float(w), float(1 - w)
    d_mix, d_x, d_y = (difference_quotient(v, n) for v in (mix, x, y))
    # The slack is the rounding of the three D_n, each within about n * eps relative (the chain
    # carries O(k * eps); against mpmath at 200 bits the worst measured is 13.9 eps at n = 60),
    # plus the weights' and the sum's.  For close points the true margin is below that rounding.
    slack = (n + 4) * 2.0**-52 * (abs(d_mix) + wx * abs(d_x) + wy * abs(d_y))
    assert d_mix >= wx * d_x + wy * d_y - slack, (x, y, lam, n)


def _close_vector(base_and_steps):
    base, steps = base_and_steps
    return [base + step * math.ulp(base) for step in steps]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(st.floats(min_value=0.0, max_value=DBL_MAX / 16, exclude_min=True), min_size=2, max_size=16),
        st.tuples(
            st.floats(min_value=1e-300, max_value=DBL_MAX / 16),
            st.lists(st.integers(-1000, 1000), min_size=2, max_size=16),
        ).map(_close_vector),
    ),
    st.sampled_from((1, 2, 4, 8, 16, 32, 60)),
)
@example([0.99999999999999, 1.00000000000002], 1)  # without the shift: a margin of -2.5e13 eps of the scale
@example([5e-324, 1e-323, 1e-323], 60)  # the rounded mean is subnormal
@example(_close_vector((1.1235582092889473e307, [0] * 15 + [7])), 1)  # the sum passes DBL_MAX
def test_property_difference_quotient_power_mean(values, n):
    # Jensen for D_n over a vector, the power-mean inequality M_(2^-n) <= AM: D_n(mean) >= mean of the D_n.
    # The mean a is the exact mean rounded once, which cannot overflow: a sum of 16 values near
    # DBL_MAX / 16 can.  D_n rises with slope t**(2**-n - 1), which falls in t, so D_n at the exact
    # mean is at most D_n(a) + shift, shift = |a - mean| * min(a, mean)**(2**-n - 1); the shift takes
    # a's own rounding out of the margin.  The slack is the D_n's rounding, as for two points.
    size = len(values)
    mean = sum(map(Fraction, values)) / size
    a = float(mean)
    low = min(Fraction(a), mean)
    shift = float(abs(Fraction(a) - mean) / low) * float(low) ** 2.0**-n
    d_a = difference_quotient(a, n)
    ds = [difference_quotient(v, n) for v in values]
    slack = (n + 4) * 2.0**-52 * (abs(d_a) + math.fsum(map(abs, ds)) / size)
    assert d_a - math.fsum(ds) / size + shift >= -slack, (values, n)


@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=0.0, max_value=DBL_MAX, exclude_min=True))
def test_property_eval_log_accuracy(x):
    result = eval_log(x)
    assert result.converged
    ref = math.log(x)
    assert abs(result.log_value - ref) <= 1e-12 * max(1.0, abs(ref))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-0.999999, max_value=1e6))
def test_property_decrement_step_contracts(u):
    v = decrement_step(u)
    assert v > -1.0
    if u == 0.0:
        assert v == 0.0
    else:
        assert math.copysign(1.0, v) == math.copysign(1.0, u)
        assert abs(v) < abs(u)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e-4, max_value=1e4))
def test_property_eval_log_deterministic(x):
    assert eval_log(x) == eval_log(x)


@pytest.mark.parametrize(
    "call",
    [
        lambda: eval_log(10**400),
        lambda: PositiveInput(-(10**400)),
        lambda: trace(10**400, 2),
        lambda: decrement_step(10**400),
    ],
    ids=["eval_log", "PositiveInput", "trace", "decrement_step"],
)
def test_int_beyond_float_range_is_a_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_eval_log_at_dbl_max_keeps_the_identity():
    # Term 1 overflows here (fl(u_1) rounds up to 2**512); the residual
    # must still be finite and close log_value + residual = x - 1.
    result = eval_log(DBL_MAX)
    assert result.converged
    assert math.isfinite(result.residual)
    assert result.log_value == pytest.approx(math.log(DBL_MAX), rel=1e-15)
    assert result.log_value + result.residual == pytest.approx(DBL_MAX - 1.0, rel=1e-12)


@pytest.mark.parametrize("n", [1, 5, 60])
def test_partial_sum_at_dbl_max_keeps_the_identity(n):
    # Term 1 overflows here, as in eval_log; S_n must still be finite and
    # close S_n + D_n = x - 1.
    s = partial_sum(DBL_MAX, n)
    assert math.isfinite(s)
    assert s + difference_quotient(DBL_MAX, n) == pytest.approx(DBL_MAX - 1.0, rel=1e-12)


@pytest.mark.parametrize("n", [1, 5, 60])
def test_trace_at_dbl_max_keeps_the_identity(n):
    rows = trace(DBL_MAX, n)
    for row in rows:
        assert math.isfinite(row.partial_sum), row
        assert row.partial_sum + row.diff_quotient == pytest.approx(DBL_MAX - 1.0, rel=1e-12), row
    assert rows[-1].partial_sum == partial_sum(DBL_MAX, n)


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__


def _reference_chain(x, n):
    """u_0..u_n step by step: square roots below 1/2, then decrement_step."""
    us = []
    r = x
    while r < 0.5:
        us.append(r - 1.0)
        r = math.sqrt(r)
    us.append(r - 1.0)
    while len(us) <= n:
        us.append(decrement_step(us[-1]))
    return us[: n + 1]


def _reference_eval_log(x, cfg=EvalConfig()):
    # The term loop of eval_log, one step per term: the chain is stepped with
    # decrement_step, every term is ldexp(u_n**2, n - 1), and the stop test
    # 2 * term_n <= tol runs after each term is added.  Only a
    # seeding step leaves u_n < -1/2, and there the tail estimate is inf.
    us = _reference_chain(x, cfg.max_terms)
    s = 0.0
    u = 0.0
    tail = math.inf
    n = 0
    for n in range(1, cfg.max_terms + 1):
        u = us[n]
        t = math.ldexp(u * u, n - 1)
        s += t
        tail = 2.0 * t if u >= -0.5 else math.inf
        if tail <= cfg.tol:
            break
    log_value = math.ldexp(u, n)
    if not math.isfinite(s):
        s = (x - 1.0) - log_value
    return (log_value, s, n, tail, tail <= cfg.tol)


def _walked_chain(x, n):
    # _walk's chain-only mode appends u_1..u_j, j = min(n, m), and forms no terms; u_0 seeds the list, as in trace.
    us = [x - 1.0]
    _walk(x, n, us=us)
    return us


def test_walk_stops_where_steps_become_exact_halvings():
    for x in (1e-300, 0.3, 2.0, 1e300):
        us = _walked_chain(x, 10**6)
        assert decrement_step(us[-1]) == us[-1] / 2
        assert decrement_step(us[-2]) == us[-1]


def test_walk_length_bounded_over_double_range():
    # A count guard: the walk is O(1) in n, whatever the x.
    rng = random.Random(20)
    xs = [5e-324, sys.float_info.min, 0.5, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 2.0, DBL_MAX]
    xs += [math.exp(rng.uniform(-744.0, 709.7)) for _ in range(2000)]
    assert max(len(_walked_chain(x, 10**6)) for x in xs) <= 70


@pytest.mark.parametrize("n", [1070, 1100, 5000])
def test_difference_quotient_past_underflow(n):
    # u_n itself is subnormal or zero here; D_n = 2**m * u_m stays put.
    assert difference_quotient(2.0, n) == pytest.approx(math.log(2.0), rel=1e-15, abs=0.0)


def test_tail_ratio_and_trace_past_underflow():
    half_log2_squared = 0.5 * math.log(2.0) ** 2
    ratio = tail_ratio(2.0, 1100)
    # The ratio is D_m**2 / 2, so it carries twice the relative error of
    # D_m (6.4e-16 at x = 2, the chain's rounding over its 52 steps): 1.3e-15.
    # The step-by-step chain gives the same double at k = 60.
    assert ratio == math.ldexp(_reference_chain(2.0, 60)[60] ** 2, 119)
    assert ratio == pytest.approx(half_log2_squared, rel=2e-15, abs=0.0)
    assert trace(2.0, 1100)[-1].diff_quotient == difference_quotient(2.0, 1100)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=DBL_MAX, exclude_min=True), st.integers(min_value=0, max_value=80))
@example(1.0, 60)
@example(1.0, 1100)
def test_property_views_bit_identical_to_stepwise_chain(x, n):
    us = _reference_chain(x, n)
    terms = [math.ldexp(u * u, k - 1) for k, u in enumerate(us) if k]
    sums = list(itertools.accumulate(terms, initial=0.0))
    quotients = [math.ldexp(u, k) for k, u in enumerate(us)]
    # repr tells -0.0 from 0.0 and prints every double exactly.
    assert repr(_chain(x, n)) == repr(list(enumerate(us)))
    if not math.isfinite(sums[n]):
        # Near DBL_MAX term 1 overflows; trace and partial_sum close every
        # S_k by the identity, as _reference_eval_log does for the residual.
        sums = [(x - 1.0) - q for q in quotients]
    rows = list(zip(range(n + 1), us, [0.0, *terms], sums, quotients))
    assert repr([tuple(r) for r in trace(x, n)]) == repr(rows)
    assert repr(partial_sum(x, n)) == repr(sums[n])
    assert repr(difference_quotient(x, n)) == repr(quotients[n])
    if n >= 1:
        # At k = 1 for x near DBL_MAX, 2 * u_1**2 is beyond the float range:
        # the reference's ldexp raises OverflowError there, or returns inf
        # where u_1**2 itself overflows, and tail_ratio raises the documented
        # ValueError in both cases.
        expected = _outcome(math.ldexp, us[n] * us[n], 2 * n - 1).replace("OverflowError", "ValueError")
        assert _outcome(tail_ratio, x, n) == ("ValueError" if expected == "inf" else expected)
    assert repr(tuple(eval_log(x))) == repr(_reference_eval_log(x))


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=DBL_MAX, exclude_min=True),
    st.floats(min_value=1e-300, max_value=1.0),
    st.integers(min_value=1, max_value=300),
)
def test_property_eval_log_stopping_rule_under_any_config(x, tol, max_terms):
    # The kernel tests the stop inside its single pass; the reference adds
    # each term and then tests, one decrement_step per term.
    cfg = EvalConfig(tol=tol, max_terms=max_terms)
    assert repr(tuple(eval_log(x, cfg))) == repr(_reference_eval_log(x, cfg))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.floats(min_value=0.0, max_value=DBL_MAX, exclude_min=True),
        st.floats(min_value=1.0, max_value=15.0).map(lambda e: 1.0 - 10.0**-e),
    ),
    st.floats(min_value=-300.0, max_value=3.0).map(lambda e: 10.0**e),
    st.integers(min_value=1, max_value=300),
)
def test_property_tail_estimate_bounds_the_exact_tail(x, tol, max_terms):
    # The exact tail past term n is x - 1 - log(x) - S_n = D_n - log(x) = 2**n * (u_n - log1p(u_n)).
    # It is compared with the estimate itself, not with the exact residual
    # minus the computed S_n: once tol is below S_n's rounding, that
    # difference is rounding error.
    result = eval_log(x, EvalConfig(tol=tol, max_terms=max_terms))
    if not math.isfinite(result.tail_estimate):
        return
    n = result.terms_used
    with mpmath.workprec(300):
        u = mpmath.expm1(mpmath.log(x) / 2**n)
    # u_n - log1p(u_n) cancels about -log2|u_n| bits: carry that many more.
    with mpmath.workprec(300 + max(0, -mpmath.mag(u)) if u else 300):
        exact_tail = mpmath.ldexp(u - mpmath.log1p(u), n)
    assert mpmath.mpf(result.tail_estimate) >= exact_tail


# Where _log's chain takes its steps: m in [sqrt(1/2), 0.875) or (1.125, sqrt(2)), mostly at e = 0.
CHAIN_BANDS = st.tuples(
    st.one_of(
        st.floats(min_value=SQRT_HALF, max_value=0.875, exclude_max=True),
        st.floats(min_value=1.125, max_value=2.0 * SQRT_HALF, exclude_min=True, exclude_max=True),
    ),
    st.one_of(st.just(0), st.sampled_from((-1074, -1022, -60, -1, 1, 60, 1023))),
).map(lambda me: math.ldexp(*me))


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.floats(min_value=0.0, max_value=DBL_MAX, exclude_min=True),
        st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(min_value=1.0, max_value=15.0)).map(
            lambda se: 1.0 + se[0] * 10.0**-se[1]
        ),
        CHAIN_BANDS,
    )
)
@example(0.875)  # |z| = 1/15, its largest
@example(1.2903512157716528)  # the worst relative error measured, 7.06e-16
@example(1.2758107251945436)  # the worst in ulps measured, 5.24
@example(1.3245061035020365)  # the worst relative error and ulps on 50,000 points per band
@example(1.2782093422196905)
@example(5e-324)
@example(DBL_MAX)
@example(1.0)
@example(math.nextafter(SQRT_HALF, 0.0))  # the range reduction's edges: m just below and at sqrt(1/2), ...
@example(SQRT_HALF)
@example(math.nextafter(2.0 * SQRT_HALF, 0.0))  # ... m just below sqrt(2)
@example(0.5)
@example(2.0)
@example(DBL_MIN)
def test_property_closed_log_relative_accuracy(x):
    # The kernel of the inequality checks is accurate relative to log(x), also next to 1.
    if x == 1.0:
        assert repr(_log(x)) == "0.0"
        return
    with mpmath.workprec(200):
        ref = mpmath.log(mpmath.mpf(x))
        assert abs((mpmath.mpf(_log(x)) - ref) / ref) <= 1e-15, x


def test_closed_log_chain_is_bounded_at_zero():
    # 0.0 is outside _log's domain, and u = -1 is a fixed point of the step: an unbounded chain
    # would never end there.  A child process, so that a hang fails the test instead of the run.
    code = "from logseries.series import _log; _log(0.0)"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=30)


def test_closed_log_at_every_power_of_two():
    # x = 2**k reduces to m = 1 exactly, so _log(x) is k * log(2) from its two-part constant alone.
    assert repr(_log(1.0)) == "0.0"
    with mpmath.workprec(200):
        ln2 = mpmath.log(2)
        for k in range(-1074, 1024):
            if k:
                ref = k * ln2
                assert abs((mpmath.mpf(_log(math.ldexp(1.0, k))) - ref) / ref) <= 2.0**-52, k


def test_log_approx_result_is_an_immutable_record():
    result = eval_log(1.0)
    assert LogApproxResult._fields == ("log_value", "residual", "terms_used", "tail_estimate", "converged")
    assert repr(result) == (
        "LogApproxResult(log_value=0.0, residual=0.0, terms_used=1, tail_estimate=0.0, converged=True)"
    )
    with pytest.raises(AttributeError):
        result.log_value = 1.0
    assert result == LogApproxResult(log_value=0.0, residual=0.0, terms_used=1, tail_estimate=0.0, converged=True)


@pytest.mark.parametrize(
    "call",
    [
        lambda: tail_ratio(1e308, 1),
        lambda: tail_ratio(8.988465674311582e307, 1),
        lambda: tail_ratio(DBL_MAX, 1),
    ],
    ids=[
        "tail_ratio_1e308", "tail_ratio_8p99e307", "tail_ratio_dbl_max",
    ],
)
def test_values_beyond_the_float_range_are_a_value_error(call):
    with pytest.raises(ValueError, match="beyond the float range"):
        call()
