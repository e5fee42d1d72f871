"""Classical logarithm inequalities, verified through the series evaluator.

Because every series term is a square, the evaluator makes these facts
checkable with tiny, explainable slack rather than by trusting libm:

* tangent line at 1:   log(x) <= x - 1, equality only at x = 1;
* tangent line at a:   log(x) <= log(a) + (x - a)/a;
* concavity:           log of a convex mix dominates the mix of logs;
* AM-GM:               exp(mean(log v_i)) <= mean(v_i).

Each check returns a signed margin (or a report); the caller compares
against a tolerance that covers evaluator rounding, not model error.
The randomized sweeps draw log-uniformly from [1e-6, 100] with a fixed
default seed so that reruns are reproducible bit for bit.
"""

import math
import random
import sys
from typing import Callable, NamedTuple, Sequence

from .series import PositiveInput, _int_at_least, _positive_value, _real, eval_log

__all__ = [
    "AmgmReport",
    "SweepReport",
    "tangent_line_gap",
    "tangent_at",
    "concavity_check",
    "amgm_check",
    "log_uniform",
    "sweep_tangent_line",
    "sweep_tangent_at",
    "sweep_concavity",
    "sweep_amgm",
    "GAP_TOL",
    "PAIR_TOL",
    "EQUALITY_TOL",
]

# Rounding slack for single-evaluation margins (tangent line at 1) and for
# margins combining two or three evaluations.  Relative equality threshold
# for the AM-GM report.
GAP_TOL = 1e-12
PAIR_TOL = 1e-11
EQUALITY_TOL = 1e-12

DEFAULT_SEED = 42
SAMPLE_LO = 1e-6
SAMPLE_HI = 100.0


class AmgmReport(NamedTuple):
    """Means of a positive vector and the AM-GM verdicts.

    ``holds`` allows GM to exceed AM by at most EQUALITY_TOL relative
    slack; ``equality`` flags |AM - GM| within the same relative window,
    which is the numerical face of an all-equal vector.
    """

    arithmetic_mean: float
    geometric_mean: float
    holds: bool
    equality: bool


class SweepReport(NamedTuple):
    """Aggregate of one randomized sweep: worst margin and any violations."""

    name: str
    checked: int
    threshold: float
    min_margin: float
    worst_input: tuple
    violations: int
    first_violation: "tuple | None"


def tangent_line_gap(x: "float | PositiveInput") -> float:
    """x - 1 - log(x), nonnegative with equality only at x = 1.

    Up to rounding this is the residual series itself, so positivity is
    structural; the returned gap uses the explicit subtraction to keep
    the check's arithmetic independent of the residual accumulator.
    """
    xv = _positive_value(x)
    return xv - 1.0 - eval_log(xv).log_value


def tangent_at(a: "float | PositiveInput", x: "float | PositiveInput") -> float:
    """Margin log(a) + (x - a)/a - log(x), nonnegative for all a, x > 0."""
    av = _positive_value(a)
    xv = _positive_value(x)
    return eval_log(av).log_value + (xv - av) / av - eval_log(xv).log_value


def concavity_check(x: "float | PositiveInput", y: "float | PositiveInput", lam: float) -> float:
    """Margin log(lam*x + (1-lam)*y) - lam*log(x) - (1-lam)*log(y).

    Nonnegative for lam in [0, 1]; zero when x = y or lam is 0 or 1.
    """
    xv = _positive_value(x)
    yv = _positive_value(y)
    lam = _real(lam, "lam")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam!r}")
    mix = lam * xv + (1.0 - lam) * yv
    if mix < sys.float_info.min and 0.0 < lam < 1.0:
        # The mix underflowed, to 0 or to a subnormal short of low bits.  The
        # margin is unchanged by scaling x and y (both < 2**52 here) by 2**64.
        xv, yv = xv * 2.0**64, yv * 2.0**64
        mix = lam * xv + (1.0 - lam) * yv
    return eval_log(mix).log_value - (lam * eval_log(xv).log_value + (1.0 - lam) * eval_log(yv).log_value)


def amgm_check(values: Sequence[float]) -> AmgmReport:
    """Compare the arithmetic mean with exp(mean of logs) for values > 0."""
    if isinstance(values, (str, bytes)):
        raise TypeError("values must be a sequence of positive numbers, not a string")
    vs = [_positive_value(v) for v in values]
    if not vs:
        raise ValueError("values must be nonempty")
    n = len(vs)
    mean_log = math.fsum(eval_log(v).log_value for v in vs) / n
    try:
        am = math.fsum(vs) / n
        gm = math.exp(mean_log)
    except OverflowError:
        # Near DBL_MAX the sum or exp(mean_log) passes the float range, yet
        # both means are <= max(vs): sum on a 2**-e scale, square a half root.
        e = n.bit_length()
        top = max(vs)
        am = min(top, math.fsum([math.ldexp(v, -e) for v in vs]) / n * 2.0**e)
        half = math.exp(mean_log / 2.0)
        gm = min(top, half * half)
    slack = EQUALITY_TOL * am
    return AmgmReport(
        arithmetic_mean=am,
        geometric_mean=gm,
        holds=gm <= am + slack,
        equality=abs(am - gm) <= slack,
    )


def log_uniform(rng: random.Random, lo: float = SAMPLE_LO, hi: float = SAMPLE_HI) -> float:
    """One draw whose logarithm is uniform on [log lo, log hi]."""
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _sweep(
    name: str,
    draw: "Callable[[random.Random], tuple]",
    margin: "Callable[..., float]",
    threshold: float,
    count: int,
    seed: int,
) -> SweepReport:
    count = _int_at_least(count, "count", 1)
    rng = random.Random(seed)
    min_margin = math.inf
    worst: tuple = ()
    violations = 0
    first: "tuple | None" = None
    for _ in range(count):
        args = draw(rng)
        value = margin(*args)
        if value < min_margin:
            min_margin = value
            worst = args
        if value < threshold:
            violations += 1
            if first is None:
                first = (args, value)
    return SweepReport(name, count, threshold, min_margin, worst, violations, first)


def sweep_tangent_line(count: int = 10000, seed: int = DEFAULT_SEED) -> SweepReport:
    """Randomized tangent-line margins; must stay above -GAP_TOL."""
    return _sweep(
        "tangent_line_gap",
        lambda rng: (log_uniform(rng),),
        tangent_line_gap,
        -GAP_TOL,
        count,
        seed,
    )


def sweep_tangent_at(count: int = 10000, seed: int = DEFAULT_SEED) -> SweepReport:
    """Randomized general tangent margins; must stay above -PAIR_TOL."""
    return _sweep(
        "tangent_at",
        lambda rng: (log_uniform(rng), log_uniform(rng)),
        tangent_at,
        -PAIR_TOL,
        count,
        seed,
    )


def sweep_concavity(count: int = 10000, seed: int = DEFAULT_SEED) -> SweepReport:
    """Randomized chord-vs-curve margins; must stay above -PAIR_TOL."""
    return _sweep(
        "concavity_check",
        lambda rng: (log_uniform(rng), log_uniform(rng), rng.uniform(0.0, 1.0)),
        concavity_check,
        -PAIR_TOL,
        count,
        seed,
    )


def sweep_amgm(count: int = 1000, seed: int = DEFAULT_SEED) -> SweepReport:
    """Randomized AM-GM vectors (lengths 1..16); every report must hold.

    The margin is (AM - GM) scaled by AM, so the threshold mirrors the
    ``holds`` flag of :func:`amgm_check`.
    """
    def draw(rng: random.Random) -> tuple:
        length = rng.randint(1, 16)
        return (tuple(log_uniform(rng) for _ in range(length)),)

    def margin(values: tuple) -> float:
        report = amgm_check(values)
        return (report.arithmetic_mean - report.geometric_mean) / report.arithmetic_mean

    return _sweep("amgm_check", draw, margin, -EQUALITY_TOL, count, seed)
