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
pass of :func:`_walk`, which carries u_k, the term 2**(k-1) * u_k**2 (the
power of two kept by doubling, so scaling by it is exact), the running sum
S_k and the stopping test together, and returns (k, D_k, S_k, 2 * term_k).
Its chain loop has one exit for the tolerance, the cutoff and n alike, and
the pass has one return: D_k is formed there once, and so is the closure
S_k = (x - 1) - D_k of a sum past the float range; the views only read the
tuple.  The tail ratio needs D_k alone, since 2**k * term_k =
2**k * 2**(k-1) * u_k**2 = D_k**2 / 2.  The quotient, the tail ratio and
:func:`trace` (which sums its rows itself) run the pass in its chain-only
mode, which forms no term or sum.  The chain itself is read from trace rows:
``[(r.k, r.u) for r in trace(x, n)]`` gives u_0..u_n.  The chain ends at
the first step m whose denominator sqrt(1 + u_m) + 1 rounds to exactly 2,
once |u_m| is below about 2**-52.  u only shrinks toward 0 from there, and
rounding is monotone, so every later denominator is 2 as well and every
later step is an exact halving.  The rest of the chain is therefore
scaling by powers of two:

    u_k = u_m * 2**(m-k),  term_k = u_m**2 * 2**(2m-k-1),  D_k = 2**m * u_m

for k >= m.  These are the doubles the step-by-step chain gives while
u_k**2 is a normal double, and they stay right where that chain would
underflow (it gives D_1100 = 0 at x = 2).  D_k is constant past m
because the true D_k = log(x) * (1 + u_k/2 + ...) moves by a relative
u_k/2 or less, which past |u_m| < 2**-52 is below half an ulp.  The chain
takes at most about 70 steps for any x and n.

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

# The tail past term n is estimated as _TAIL_FACTOR * term_n.  The true tail
# over term_n is 2 * (u - log1p(u)) / u**2 at u = u_n: below 1 for x > 1, at
# most 1.545 once u_n >= -1/2, so 2 covers it.  A seeding step that leaves
# u_n < -1/2 bounds no tail, and there the estimate is inf.
_TAIL_FACTOR = 2.0


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


def _walk(x: float, n: int, tol: float = -1.0, us: "list | None" = None) -> tuple:
    """One pass over terms 1..n at x (not checked): (k, D_k, S_k, 2 * term_k).

    The chain loop has one exit: the first k with tail 2 * term_k <= tol,
    the cutoff m (k stepped back to m) or n; then j = k, and while the tail
    exceeds tol, terms j+1..n scale u_j.  D_k = 2**j * u_j and the closure
    (x - 1) - D_k of an S_k past the float range are formed once, at the one
    return.  The tail is inf while a seeding step leaves u_k < -1/2.  With
    tol < 0 the sum may end once later terms stop moving it, leaving k and
    the tail stale; :func:`partial_sum` reads neither.  Given a list ``us``,
    the chain alone: append u_1..u_j, no term or sum, return (j, D_j, 0.0, inf).
    """
    sqrt = math.sqrt
    ldexp = math.ldexp
    r = x
    u = x - 1.0
    s = 0.0
    tail = math.inf
    factor = _TAIL_FACTOR
    p = 0.5  # 2**(k-1) by doubling: u * u * p is the double ldexp(u * u, k - 1)
    k = 0
    for k in range(1, n + 1):
        if r < 0.5:
            r = sqrt(r)
            u = r - 1.0
            factor = _TAIL_FACTOR if u >= -0.5 else math.inf
        else:
            d = sqrt(1.0 + u) + 1.0
            if d == 2.0:
                k -= 1  # the cutoff m = k - 1: step k and every later one is an exact halving
                break
            u /= d
        if us is not None:
            us.append(u)
            continue
        p += p
        t = u * u * p
        s += t
        tail = factor * t
        if tail <= tol:
            break
    j = k
    if us is None and tail > tol:
        # Past the cutoff u_k = ldexp(u_j, j - k), so term_k = ldexp(u_j**2, 2j - k - 1).
        u2 = u * u
        for k in range(j + 1, n + 1):
            t = ldexp(u2, 2 * j - k - 1)
            if tol < 0.0 and s + t == s:
                break  # smaller terms cannot move s either (rounding is monotone)
            s += t
            tail = factor * t  # _TAIL_FACTOR: the step that reached the cutoff left u_j >= -1/2
            if tail <= tol:
                break
    d = ldexp(u, j)  # past m, u_k = ldexp(u_m, m - k) and so D_k = D_m
    return k, d, s if math.isfinite(s) else (x - 1.0) - d, tail


# log(2) split as in fdlibm: _LN2_HI has its low 21 bits zero, so e * _LN2_HI
# is exact for every binary exponent e of a double (|e| <= 1074).
_LN2_HI = float.fromhex("0x1.62e42fee00000p-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
_SQRT_HALF = math.sqrt(0.5)
_frexp = math.frexp
_sqrt = math.sqrt


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
    return _walk(_positive_value(x), _int_at_least(n, "n", 0), us=[])[1]


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
    return LogApproxResult(d, s, k, tail, tail <= config.tol)


def tail_ratio(x: float, k: int) -> float:
    """term_k * 2**k = D_k**2 / 2, which converges to log(x)**2 / 2 as k grows.

    ValueError past the float range (k = 1 near DBL_MAX).
    """
    xv = _positive_value(x)
    k = _int_at_least(k, "k", 1)
    d = _walk(xv, k, us=[])[1]
    ratio = d * 0.5 * d  # halving D_k is exact, so this is D_k**2 / 2 rounded once
    if ratio == math.inf:
        raise ValueError(f"tail_ratio({xv!r}, {k}) is beyond the float range")
    return ratio


def trace(x: float, n: int) -> list[TraceRow]:
    """Rows (k, u_k, term_k, S_k, D_k) for k = 0..n.

    Row 0 carries term 0 and S_0 = 0; D_0 = u_0.  Within each row
    S_k + D_k reproduces x - 1 up to accumulated rounding.
    """
    xv = _positive_value(x)
    n = _int_at_least(n, "n", 0)
    ldexp = math.ldexp
    us = [xv - 1.0]
    m = _walk(xv, n, us=us)[0]
    rows = [TraceRow(0, us[0], 0.0, 0.0, us[0])]
    s = 0.0
    for k in range(1, n + 1):
        j = k if k <= m else m
        u = us[j]
        t = ldexp(u * u, 2 * j - k - 1)
        s += t
        rows.append(TraceRow(k, ldexp(u, j - k), t, s, ldexp(u, j)))
    if not math.isfinite(s):
        # Past the float range x - 1 dwarfs D_k = log(x), so S_k = (x - 1) - D_k cancels nothing.
        rows = [TraceRow(k, u, t, (xv - 1.0) - d, d) for k, u, t, _, d in rows]
    return rows
