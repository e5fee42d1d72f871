"""Classical logarithm inequalities, verified through the decrement chain.

Each log(x) here is ``series._log``: x = m * 2**e with m in
[sqrt(1/2), sqrt(2)), and log(m) is the chain u_k = m**(2**-k) - 1 with its
tail closed, log(m) = 2**n * log1p(u_n) at the first |u_n| <= 2**-3 (at most
2 steps), not the summed series of :func:`~logseries.series.eval_log`.  It
is accurate relative to log(x) (at worst 7.1e-16 against mpmath, measured
on 8.6 million points where its chain takes steps), also next to 1, where
the summed series is accurate only in absolute terms.  That
makes these facts checkable with tiny, explainable slack rather than by
trusting libm:

* tangent line at 1:   log(x) <= x - 1, equality only at x = 1;
* tangent line at a:   log(x) <= log(a) + (x - a)/a;
* concavity:           log of a convex mix dominates the mix of logs;
* AM-GM:               exp(mean(log v_i)) <= mean(v_i).

The two-point checks are the first fact at a ratio: log(x) - log(a) is
log(x/a), and the concavity margin does not change when x, y and the mix
are divided by y.  So ``tangent_at`` takes one log, of x/a, and
``concavity_check`` two, of mix/y and x/y, and their errors are a few ulps
of 1 + |log(x/a)| (or |log(x/y)|), not of the logs of the points.  Where
that ratio is not a normal double (0 or subnormal at the ends of the
range), they take the log of each point, as written above.

Each check returns a signed margin (or a report); the caller compares
against a tolerance that covers evaluator rounding, not model error.
The public checks validate their arguments, then run a private margin
kernel.  The randomized sweeps draw log-uniformly from [1e-6, 100] with a
fixed default seed, so that reruns are reproducible bit for bit, and pass
their own draws, valid by construction, to the same kernels unchecked.
Each sweep is a lazy stream of (margin, args) pairs over one draw stream,
:func:`_draws`, reduced to a report in one loop, so it holds one point at a
time and its memory does not grow with ``count``.
"""

import math
import random
import sys
from itertools import islice
from typing import Iterator, NamedTuple, Sequence

from .series import _int_at_least, _log, _positive_value, _real

__all__ = [
    "AmgmReport",
    "SweepReport",
    "tangent_line_gap",
    "tangent_at",
    "concavity_check",
    "amgm_check",
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
# The bound limits a sweep's time: 100 times the two-point sweeps' default count.
# At the bound they take 1.2 to 2.2 s and sweep_amgm about 12 s (Python 3.11, one
# core of a shared x86-64 VM).
MAX_SWEEP_COUNT = 1000000
SAMPLE_LO = 1e-6
SAMPLE_HI = 100.0

# The logs of the sweeps' bounds, taken once for every draw of :func:`_draws`.
_LOG_LO = math.log(SAMPLE_LO)
_LOG_SPAN = math.log(SAMPLE_HI) - _LOG_LO

# The two-point checks take the log of a ratio only where it is a normal double.
_DBL_MIN = sys.float_info.min
_DBL_MAX = sys.float_info.max


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


def tangent_line_gap(x: float) -> float:
    """x - 1 - log(x), nonnegative with equality only at x = 1.

    This is the residual series in closed form.  Near 1, x - 1 and log(x)
    agree to within a factor 2, so the subtraction is exact and the gap's
    error is that of log(x): a few ulps of |x - 1|.
    """
    return _gap(_positive_value(x))


def _gap(x: float) -> float:
    return x - 1.0 - _log(x)


def tangent_at(a: float, x: float) -> float:
    """Margin log(a) + (x - a)/a - log(x), nonnegative for all a, x > 0.

    Evaluated as (x - a)/a - log(x/a), one log of the ratio, so the error
    is a few ulps of 1 + |log(x/a)| + |(x - a)/a|, not of |log a| + |log x|.
    Where x/a is not a normal double (it rounds to 0 or a subnormal at the
    ends of the range, as in tangent_at(1e300, 1e-300)), the two logs are
    taken apart.  ValueError where (x - a)/a is beyond the float range
    (tiny a, large x); it is above -1, so it can overflow only upward.
    """
    av = _positive_value(a)
    xv = _positive_value(x)
    if (xv - av) / av == math.inf:
        raise ValueError(f"tangent_at({av!r}, {xv!r}) is beyond the float range")
    return _tangent_at(av, xv)


def _tangent_at(a: float, x: float) -> float:
    slope = (x - a) / a
    ratio = x / a
    if _DBL_MIN <= ratio <= _DBL_MAX:
        return slope - _log(ratio)
    return _log(a) + slope - _log(x)


def concavity_check(x: float, y: float, lam: float) -> float:
    """Margin log(lam*x + (1-lam)*y) - lam*log(x) - (1-lam)*log(y).

    Nonnegative for lam in [0, 1], and exactly 0 at lam = 0 or 1, where the mix
    is an endpoint.  At x = y only the rounding of the mix is left: a margin of
    either sign, below 2**-51 (concavity_check(DBL_MAX, DBL_MAX, 0.3) is
    -1.1e-16).  The margin does not change when x, y and the mix are divided
    by y, so it is evaluated as log(mix/y) - lam*log(x/y), two logs of
    ratios, and its error is a few ulps of 1 + |log(x/y)|.  Where x/y is not
    a normal double (concavity_check(5e-324, DBL_MAX, 0.5)), the three logs
    are taken apart.
    """
    xv = _positive_value(x)
    yv = _positive_value(y)
    lam = _real(lam, "lam")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam!r}")
    return _concavity(xv, yv, lam)


def _concavity(x: float, y: float, lam: float) -> float:
    mix = lam * x + (1.0 - lam) * y
    if mix < _DBL_MIN and 0.0 < lam < 1.0:
        # The mix underflowed, to 0 or to a subnormal short of low bits.  The
        # margin is unchanged by scaling x and y (both < 2**52 here) by 2**64.
        x, y = x * 2.0**64, y * 2.0**64
        mix = lam * x + (1.0 - lam) * y
    ratio = x / y
    if _DBL_MIN <= ratio <= _DBL_MAX:
        # mix lies between x and y up to rounding, so mix/y is positive and finite too.
        return _log(mix / y) - lam * _log(ratio)
    return _log(mix) - (lam * _log(x) + (1.0 - lam) * _log(y))


def amgm_check(values: Sequence[float]) -> AmgmReport:
    """Compare the arithmetic mean with exp(mean of logs) for values > 0."""
    if isinstance(values, (str, bytes)):
        raise TypeError("values must be a sequence of positive numbers, not a string")
    vs = [_positive_value(v) for v in values]
    if not vs:
        raise ValueError("values must be nonempty")
    am, gm = _means(vs)
    slack = EQUALITY_TOL * am
    return AmgmReport(am, gm, gm <= am + slack, abs(am - gm) <= slack)


def _means(vs: Sequence[float]) -> "tuple[float, float]":
    n = len(vs)
    mean_log = math.fsum(map(_log, vs)) / n
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
    return am, gm


def _draws(rng: random.Random) -> "Iterator[float]":
    """exp(rng.uniform(log SAMPLE_LO, log SAMPLE_HI)) bit for bit, one rng.random() per draw, taken lazily.

    uniform(a, b) is a + (b - a) * random().  No clamp is needed: random() in
    [0, 1 - 2**-53] gives draws from 1.0000000000000004e-06 to
    99.99999999999987, inside [1e-6, 100].
    """
    exp, lo, span, rand = math.exp, _LOG_LO, _LOG_SPAN, rng.random
    while True:
        yield exp(lo + span * rand())


def _seeded(count: int, seed: int) -> "tuple[int, random.Random]":
    """``count`` checked (at least 1, at most MAX_SWEEP_COUNT), then the generator seeded by ``seed``."""
    count = _int_at_least(count, "count", 1)
    if count > MAX_SWEEP_COUNT:
        raise ValueError(f"count must be at most {MAX_SWEEP_COUNT}, got {count}")
    return count, random.Random(_int_at_least(seed, "seed", -math.inf))


def _sweep(name: str, points: "Iterator[tuple[float, tuple]]", threshold: float, count: int) -> SweepReport:
    """Reduce the first ``count`` (margin, args) pairs of ``points`` to a report."""
    min_margin = math.inf
    worst: tuple = ()
    violations = 0
    first: "tuple | None" = None
    for value, args in islice(points, count):
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
    count, rng = _seeded(count, seed)
    points = ((_gap(x), (x,)) for x in _draws(rng))
    return _sweep("tangent_line_gap", points, -GAP_TOL, count)


def sweep_tangent_at(count: int = 10000, seed: int = DEFAULT_SEED) -> SweepReport:
    """Randomized general tangent margins; must stay above -PAIR_TOL."""
    count, rng = _seeded(count, seed)
    draws = _draws(rng)
    points = ((_tangent_at(a, x), (a, x)) for a, x in zip(draws, draws))
    return _sweep("tangent_at", points, -PAIR_TOL, count)


def sweep_concavity(count: int = 10000, seed: int = DEFAULT_SEED) -> SweepReport:
    """Randomized chord-vs-curve margins; must stay above -PAIR_TOL."""
    count, rng = _seeded(count, seed)

    def points() -> "Iterator[tuple[float, tuple]]":
        draws = _draws(rng)
        for x, y in zip(draws, draws):
            lam = rng.random()
            yield _concavity(x, y, lam), (x, y, lam)

    return _sweep("concavity_check", points(), -PAIR_TOL, count)


def sweep_amgm(count: int = 1000, seed: int = DEFAULT_SEED) -> SweepReport:
    """Randomized AM-GM vectors (lengths 2..16); every report must hold.

    The margin is (AM - GM) scaled by AM, so the threshold mirrors the
    ``holds`` flag of :func:`amgm_check`.  Length 1 is left out: AM = GM
    exactly there, so it would pin the minimum margin at 0.
    """
    count, rng = _seeded(count, seed)

    def points() -> "Iterator[tuple[float, tuple]]":
        draws = _draws(rng)
        while True:
            values = tuple(islice(draws, rng.randint(2, 16)))
            am, gm = _means(values)
            yield (am - gm) / am, (values,)

    return _sweep("amgm_check", points(), -EQUALITY_TOL, count)
