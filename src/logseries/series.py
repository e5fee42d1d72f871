"""Natural logarithm from repeated square roots, without cancellation.

For x > 0 write u_k = x**(2**-k) - 1, the k-th square-root decrement of x.
Two classical sequences meet in that quantity:

* the difference quotient D_n = 2**n * u_n, which converges to log(x), and
* the nonnegative series S_n = sum(2**(k-1) * u_k**2 for k = 1..n), which
  converges to x - 1 - log(x).

S_n + D_n = x - 1 holds exactly for every n, so the series and the
quotient are two views of one iteration, and the identity doubles as a
per-row self check.  Every term is a square, which makes S_n nondecreasing
and gives log(x) <= x - 1 for free; the terms decay with ratio tending to
1/2, which drives the stopping rule in :func:`eval_log`.

Numerically the decrement is never formed as sqrt - 1.  That subtraction
loses roughly k bits near 1; instead the chain is carried through

    u_{k+1} = u_k / (sqrt(1 + u_k) + 1)

which is the same map algebraically and keeps the relative error of u_k
at O(k * eps).  For x < 1/2 the chain is seeded from square roots of x
itself: fl(x - 1) would discard the low bits of x, an absolute error of
order eps that no later step can recover and that inflates to eps/x in
the computed logarithm.  Once the repeated root r reaches [1/2, 1) the
subtraction r - 1 is exact (Sterbenz) and the recurrence takes over.

Every public function here validates x once and is then a view over one
of two passes over the chain, which take the same steps.  The sum pass
:func:`_walk` carries u_k, the term 2**(k-1) * u_k**2 (the power of two
kept by doubling, so scaling by it is exact), the running sum S_k and the
stopping test, and returns (k, D_k, S_k, 2 * term_k), with D_k and the
closure S_k = (x - 1) - D_k of a sum past the float range formed at its
one return.  The chain list :func:`_chain` forms no term: it holds
u_0..u_j, j = min(n, _FREE_STEPS), and :func:`trace` sums its rows from
it.  The quotient and the tail ratio read D_j = 2**j * u_j from its last
entry (2**k * term_k = D_k**2 / 2).  Trace rows give the chain publicly:
``[(r.k, r.u) for r in trace(x, n)]`` is u_0..u_n.  In both passes
seeding takes a loop of its own, and the recurrence loop tests neither
for seeding nor for the cutoff m, the first step whose denominator
sqrt(1 + u_m) + 1 rounds to exactly 2, once |u_m| is below about 2**-52.
u only shrinks toward 0 from there, and rounding is monotone, so every
later denominator is 2 as well and every later step is an exact halving.
The rest of the chain is therefore scaling by powers of two:

    u_k = u_m * 2**(m-k),  term_k = u_m**2 * 2**(2m-k-1),  D_k = 2**m * u_m

for k >= m.  D_k is constant past m because the true
D_k = log(x) * (1 + u_k/2 + ...) moves by a relative u_k/2 or less, which
past |u_m| < 2**-52 is below half an ulp.  m is at most 63, so both
passes step on past it to the one hand-off k = _FREE_STEPS = 80, where a
step still gives the doubles of the scaling, and scale u_j from there.
That stays right where the step-by-step chain would underflow (it gives
D_1100 = 0 at x = 2).

The inequality checks need log(x) alone, and :func:`_log` gives it by
closing the chain's tail instead of summing it (Briggs' repeated-root
method): log(x) = 2**n * log1p(u_n) holds exactly for every n.  It first
splits x = m * 2**e with m in [sqrt(1/2), sqrt(2)), exactly, and takes
e * log(2) from a two-part constant.  The chain on m runs to the first
|u_n| <= 2**-3, which is at most 2 steps (the code takes no more), and
log1p(u_n) is closed as 2 * atanh(u_n / (2 + u_n)) to degree 13, with no
libm log.  The result is accurate relative to log(x), also next to 1: the
worst measured against mpmath at 200 bits is 7.1e-16 (5.2 ulp), on 8.6
million m in [sqrt(1/2), 0.875) and (1.125, sqrt(2)) at e = 0, where the
chain takes its steps; it is not a proved bound.  The public functions
stay the paper's series: :func:`eval_log` stops on the absolute test
2 * term_n <= tol, so near 1 its log_value is accurate only in absolute
terms.
"""

import math
import operator
from typing import NamedTuple

__all__ = [
    "PositiveInput",
    "EvalConfig",
    "LogApproxResult",
    "TraceRow",
    "decrement_step",
    "partial_sum",
    "difference_quotient",
    "eval_log",
    "tail_ratio",
    "trace",
]


class _PositiveInputFields(NamedTuple):
    x: float


class PositiveInput(_PositiveInputFields):
    """A validated argument for the logarithm: finite, strictly positive."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through _make: validate there too

    def __new__(cls, x):
        return super().__new__(cls, _positive_value(x))

    def __float__(self) -> float:
        return self.x


class _EvalConfigFields(NamedTuple):
    tol: float = 1e-14
    max_terms: int = 96


class EvalConfig(_EvalConfigFields):
    """Stopping parameters for :func:`eval_log`: the tolerance on the tail estimate, and the term budget."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs):
        tol, max_terms = _EvalConfigFields(*args, **kwargs)
        try:  # a bad value of any type is a ValueError naming the field
            tol = _real_above(tol, "tol", 0.0, "a finite positive real")
            max_terms = _int_at_least(max_terms, "max_terms", 1)
        except TypeError as exc:
            raise ValueError(str(exc)) from None
        return super().__new__(cls, tol, max_terms)


class TraceRow(NamedTuple):
    """Row k of the evaluation table.

    ``partial_sum + diff_quotient`` should reproduce x - 1 up to rounding;
    the trace renderer reports that defect per row.
    """

    k: int
    u: float
    term: float
    partial_sum: float
    diff_quotient: float


class LogApproxResult(NamedTuple):
    """Outcome of :func:`eval_log`.

    ``log_value`` approximates log(x), ``residual`` approximates
    x - 1 - log(x); the two are tied by log_value + residual ~= x - 1.
    ``tail_estimate`` is the stopping bound compared against tol, and
    ``converged`` records whether it was met within max_terms.
    """

    log_value: float
    residual: float
    terms_used: int
    tail_estimate: float
    converged: bool


def _is_number(value, method: str, kinds: tuple) -> bool:
    """The number rule: no bool, the type has ``method``, and a value with a dtype is a scalar of a kind in ``kinds``."""
    if type(value) is bool or not hasattr(type(value), method):
        return False
    dtype = getattr(value, "dtype", None)  # numpy bools, complex numbers, strings and arrays have __float__ too
    return dtype is None or (getattr(dtype, "kind", None) in kinds and getattr(value, "ndim", 0) == 0)


def _real(value, name: str) -> float:
    """``value`` as a finite float.  A real is any object that passes :func:`_is_number` with ``__float__``.

    TypeError for anything else; ValueError for NaN, the infinities and values beyond the float range.
    """
    if type(value) is not float and type(value) is not int and not _is_number(value, "__float__", ("i", "u", "f")):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a finite real, got a value beyond the float range") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real, got {value!r}")
    return value


def _int_at_least(value, name: str, low: int) -> int:
    """``value`` as an int >= ``low``.  An integer is any object that passes :func:`_is_number` with ``__index__``."""
    if type(value) is not int and not _is_number(value, "__index__", ("i", "u")):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = operator.index(value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _positive_value(x: float) -> float:
    if type(x) is float and 0.0 < x < math.inf:
        return x
    return _real_above(x, "x", 0.0, "a finite positive real")


def _real_above(value, name: str, low: float, what: str) -> float:
    """``value`` as a finite float > ``low``: x > 0 for the logarithm, u > -1 for a decrement x**w - 1."""
    value = _real(value, name)
    if value <= low:
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


_DEFAULT_CONFIG = EvalConfig()

# The bound limits the rows :func:`trace` builds.  Past about k = 1100 every row
# has u_k = term_k = 0 (the largest k with either nonzero was 1093, measured on 59
# x across the double range), so the bound keeps every row that carries a digit.
MAX_TRACE_N = 10000

# The tail past term n is estimated as _TAIL_FACTOR * term_n.  The true tail
# over term_n is 2 * (u - log1p(u)) / u**2 at u = u_n: below 1 for x > 1, at
# most 1.545 once u_n >= -1/2, so 2 covers it.  A seeding step that leaves
# u_n < -1/2 bounds no tail, and there the estimate is inf.
_TAIL_FACTOR = 2.0

# Both recurrence loops, of :func:`_walk` and :func:`_chain`, take at most this many steps and then hand off to
# scaling, with no test for the cutoff m.  m <= 63 for every double x: |u| <= 2**-53 rounds sqrt(1 + u) + 1 to 2,
# and u_k is log(x) * 2**-k to first order with |log x| < 745 < 2**9.55 (the largest m measured is 62).  A step past
# m halves u exactly, the double the scaling gives while u_k**2 is normal: the smallest nonzero |u_m| is 2**-53
# (x = nextafter(1, 0)), so that holds to k = 458, and any bound from 63 to 458 gives the same doubles.
_FREE_STEPS = 80
_new = tuple.__new__  # builds a record from a tuple of its fields, as the namedtuple's _make does
_sqrt = math.sqrt
_ldexp = math.ldexp
_inf = math.inf


def decrement_step(u: float) -> float:
    """Advance one square root: send x**w - 1 to x**(w/2) - 1.

    Uses u / (sqrt(1 + u) + 1), the rationalized form of sqrt(1 + u) - 1,
    so no digits cancel.  Preserves sign, and |result| <= |u| / 2 for
    u >= 0 (for -1 < u < 0 the magnitude still shrinks, the factor
    tending to 1/2 as u -> 0).

    No code path of the package calls it; the pass inlines the step.  It
    is the paper's map, kept public as the stepwise reference that the
    tests check the chain of :func:`trace` against.
    """
    u = _real_above(u, "u", -1.0, "a finite real > -1")
    return u / (math.sqrt(1.0 + u) + 1.0)


def _walk(x: float, n: int, tol: float = 0.0) -> tuple:
    """The sum pass over terms 1..n at x (not checked): (k, D_k, S_k, 2 * term_k).

    Seeding steps while r < 1/2, then recurrence steps, to the first k with 2 * term_k <= tol or to
    min(n, _FREE_STEPS), the hand-off it shares with :func:`_chain`; then j = k, and while the tail exceeds tol,
    terms j+1..n scale u_j (at tol = 0 until one underflows to 0.0, by about k = 1100).  The tail is inf while a
    seeding step leaves u_k < -1/2.
    """
    sqrt = _sqrt
    r = x
    u = x - 1.0
    s = 0.0
    t = tail = _inf
    factor = _TAIL_FACTOR
    p = 0.5  # 2**(k-1) by doubling: u * u * p is the double ldexp(u * u, k - 1)
    k = 0
    while r < 0.5 and k < n and tail > tol:  # at r = 0.5 - 2**-54, r - 1 rounds to -1/2 and the tail is finite
        k += 1
        r = sqrt(r)
        u = r - 1.0
        factor = _TAIL_FACTOR if u >= -0.5 else _inf
        p += p
        t = u * u * p
        s += t
        tail = factor * t
    if tail > tol:
        # A step here starts from r >= 1/2, so the tail is 2 * t, and t <= tol / 2 is exactly 2 * t <= tol: up to
        # _FREE_STEPS, t >= u_k**2 is normal, and tol / 2 rounds only for a subnormal tol, where both are false.
        half = tol * 0.5
        for k in range(k + 1, (n if n < _FREE_STEPS else _FREE_STEPS) + 1):
            u /= sqrt(1.0 + u) + 1.0
            p += p
            t = u * u * p
            s += t
            if t <= half:
                break
        tail = factor * t  # where the loop took no step, t and factor are still the seeding's
    j = k
    if tail > tol:
        # From j = _FREE_STEPS on, u_k = ldexp(u_j, j - k), so term_k = ldexp(u_j**2, 2j - k - 1).
        u2 = u * u
        for k in range(j + 1, n + 1):
            t = _ldexp(u2, 2 * j - k - 1)
            s += t
            tail = factor * t  # _TAIL_FACTOR: the free steps left u_j >= -1/2
            if tail <= tol:
                break
    d = _ldexp(u, j)  # past m, u_k = ldexp(u_m, m - k) and so D_k = D_m
    return k, d, s if s < _inf else (x - 1.0) - d, tail


def _chain(x: float, n: int) -> list:
    """The chain alone at x (not checked): [u_0, .., u_j], j = min(n, _FREE_STEPS), by the steps of :func:`_walk`."""
    sqrt = _sqrt
    r = x
    us = [x - 1.0]
    while r < 0.5 and len(us) <= n:
        r = sqrt(r)
        us.append(r - 1.0)
    u = us[-1]
    for _ in range(len(us), (n if n < _FREE_STEPS else _FREE_STEPS) + 1):
        u /= sqrt(1.0 + u) + 1.0
        us.append(u)
    return us


# log(2) split as in fdlibm: _LN2_HI has its low 21 bits zero, so e * _LN2_HI
# is exact for every binary exponent e of a double (|e| <= 1074).
_LN2_HI = float.fromhex("0x1.62e42fee00000p-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
_SQRT_HALF = math.sqrt(0.5)
_frexp = math.frexp


def _log(x: float) -> float:
    """log(x) for a checked x = m * 2**e: e * log(2), plus log(m) from at most two chain steps and an atanh tail.

    x must be a positive double, subnormals and DBL_MAX included; at 0.0,
    where u = -1 is a fixed point of the step, the bounded chain returns a
    value without meaning.  x = m * 2**e with m in [sqrt(1/2), sqrt(2))
    exactly, and u = m - 1 is exact (Sterbenz).  At most two steps of the
    chain take u from [-0.293, 0.414) to |u_n| <= 1/8, and none next to 1.
    The tail is log(m) = 2**n * log1p(u_n) = 2**(n+1) * atanh(z) with
    z = u_n / (2 + u_n), |z| <= 1/15, summed to z**13 / 13; the rest is at
    most 2 * |z|**15 / (15 * (1 - z*z)) < 2**-58 * |2z|.  No libm log is used.
    Worst relative error measured against mpmath at 200 bits: 7.06e-16 at
    x = 1.2903512157716528, and 5.24 ulp at x = 1.2758107251945436, on 8.6
    million m in the two bands where the chain takes steps, at e = 0.
    """
    m, e = _frexp(x)
    if m < _SQRT_HALF:
        m += m
        e -= 1
    u = m - 1.0
    scale = 2.0  # 2**(n+1) after n steps; p * scale is exact, p being 0 or normal
    if u > 0.125 or u < -0.125:  # two steps at most, also at x = 0.0 where u = -1 is a fixed point
        u /= _sqrt(1.0 + u) + 1.0
        scale = 4.0
        if u > 0.125 or u < -0.125:
            u /= _sqrt(1.0 + u) + 1.0
            scale = 8.0
    z = u / (2.0 + u)
    zz = z * z
    p = z + z * zz * (1.0 / 3.0 + zz * (0.2 + zz * (1.0 / 7.0 + zz * (1.0 / 9.0 + zz * (1.0 / 11.0 + zz / 13.0)))))
    return e * _LN2_HI + (e * _LN2_LO + p * scale)


def partial_sum(x: float, n: int) -> float:
    """S_n = sum of the first n terms; approximates x - 1 - log(x).

    Nonnegative and nondecreasing in n.  S_0 = 0 by the empty-sum
    convention.
    """
    return _walk(_positive_value(x), _int_at_least(n, "n", 0))[2]


def difference_quotient(x: float, n: int) -> float:
    """D_n = 2**n * u_n, the difference-quotient approximation to log(x)."""
    us = _chain(_positive_value(x), _int_at_least(n, "n", 0))
    return math.ldexp(us[-1], len(us) - 1)


def eval_log(x: float, config: "EvalConfig | None" = None) -> LogApproxResult:
    """Approximate log(x) adaptively.

    Accumulates terms until the tail estimate 2 * term_n <= tol or max_terms is
    reached; the returned log_value is the difference quotient D_n at the
    stopping index, not x - 1 - S_n, so it never subtracts two close
    numbers.  A result with ``converged`` false (tolerance not reached
    within max_terms) is still the best available approximation; no
    exception is raised for that case.
    """
    xv = _positive_value(x)
    if config is None:
        config = _DEFAULT_CONFIG
    elif not isinstance(config, EvalConfig):
        raise TypeError(f"config must be an EvalConfig or None, got {type(config).__name__}")
    k, d, s, tail = _walk(xv, config.max_terms, config.tol)
    return _new(LogApproxResult, (d, s, k, tail, tail <= config.tol))


def tail_ratio(x: float, k: int) -> float:
    """term_k * 2**k = D_k**2 / 2, which converges to log(x)**2 / 2 as k grows.

    ValueError past the float range (k = 1 near DBL_MAX).
    """
    xv = _positive_value(x)
    k = _int_at_least(k, "k", 1)
    us = _chain(xv, k)
    d = math.ldexp(us[-1], len(us) - 1)
    ratio = d * 0.5 * d  # halving D_k is exact, so this is D_k**2 / 2 rounded once
    if ratio == math.inf:
        raise ValueError(f"tail_ratio({xv!r}, {k}) is beyond the float range")
    return ratio


def trace(x: float, n: int) -> list[TraceRow]:
    """Rows (k, u_k, term_k, S_k, D_k) for k = 0..n.

    Row 0 carries term 0 and S_0 = 0; D_0 = u_0.  Within each row
    S_k + D_k reproduces x - 1 up to accumulated rounding.  ValueError
    for n > MAX_TRACE_N.
    """
    xv = _positive_value(x)
    n = _int_at_least(n, "n", 0)
    if n > MAX_TRACE_N:
        raise ValueError(f"n must be at most {MAX_TRACE_N}, got {n}")
    us = _chain(xv, n)
    j = len(us) - 1
    u = d = us[0]
    rows = [_new(TraceRow, (0, u, 0.0, 0.0, d))]
    s = 0.0
    p = 0.5  # 2**(k-1) by doubling, as in _walk: u * u * p and u * (p + p) are exact scalings
    for k in range(1, j + 1):
        u = us[k]
        p += p
        t = u * u * p
        s += t
        d = u * (p + p)
        rows.append(_new(TraceRow, (k, u, t, s, d)))
    for k in range(j + 1, n + 1):  # past j >= m, u_k = ldexp(u_j, j - k), term_k = ldexp(u_j**2, 2j - k - 1), D_k = D_j
        t = _ldexp(u * u, 2 * j - k - 1)
        s += t
        rows.append(_new(TraceRow, (k, _ldexp(u, j - k), t, s, d)))
    if not math.isfinite(s):
        # Past the float range x - 1 dwarfs D_k = log(x), so S_k = (x - 1) - D_k cancels nothing.
        rows = [_new(TraceRow, (k, u, t, (xv - 1.0) - d, d)) for k, u, t, _, d in rows]
    return rows
