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
the computed logarithm.  Once the repeated root reaches [1/2, 1) the
subtraction r - 1 is exact and the recurrence takes over.

Every public function here validates x once and is then a view over one
pass of :func:`_walk`, which carries u_k, the term 2**(k-1) * u_k**2 (the
power of two kept by doubling, so scaling by it is exact), the running
sum S_k and the stopping test together.  The chain itself ends at the first
step m whose denominator sqrt(1 + u_m) + 1 rounds to exactly 2, which
happens once |u_m| is below about 2**-52.  u only shrinks toward 0 from
there, and rounding is monotone, so every later denominator is 2 as well
and every later step is an exact halving.  The rest of the chain is
therefore scaling by powers of two:

    u_k = u_m * 2**(m-k),  term_k = u_m**2 * 2**(2m-k-1),  D_k = 2**m * u_m

for k >= m.  These are the doubles the step-by-step chain gives while
u_k**2 is a normal double, and they stay right where that chain would
underflow (it gives D_1100 = 0 at x = 2).  D_k is constant past m
because the true D_k = log(x) * (1 + u_k/2 + ...) moves by a relative
u_k/2 or less, which past |u_m| < 2**-52 is below half an ulp.  The chain
takes at most about 70 steps for any x and n.
"""

import math
import operator
from typing import NamedTuple

__all__ = [
    "PositiveInput",
    "EvalConfig",
    "DecrementState",
    "LogApproxResult",
    "TraceRow",
    "decrement_step",
    "iterate_decrements",
    "term",
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
        x = _real(x, "x")
        if x <= 0.0:
            raise ValueError(f"x must be a finite positive real, got {x!r}")
        return super().__new__(cls, x)

    def __float__(self) -> float:
        return self.x


class _EvalConfigFields(NamedTuple):
    tol: float = 1e-14
    max_terms: int = 96
    safety_factor: float = 2.0


class EvalConfig(_EvalConfigFields):
    """Stopping parameters for :func:`eval_log`.

    The estimated tail of the series is ``safety_factor * term_n``; the
    factor covers the worst case sum(r**j) = term_n * r / (1 - r) of a
    geometric tail with ratio r <= 1/2, with slack because the actual
    ratio sits slightly below 1/2 for x > 1 and approaches it from below.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs):
        tol, max_terms, factor = fields = _EvalConfigFields(*args, **kwargs)
        try:  # a bad value of any type is a ValueError naming the field
            tol = _positive_value(tol)  # a finite positive real, as x is
        except (TypeError, ValueError):
            raise ValueError(f"tol must be a finite positive real, got {tol!r}") from None
        try:
            max_terms = _int_at_least(max_terms, "max_terms", 1)
        except (TypeError, ValueError):
            raise ValueError(f"max_terms must be a positive integer, got {max_terms!r}") from None
        try:
            factor = _real(factor, "safety_factor")
            if factor < 1.0:
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError(f"safety_factor must be >= 1, got {fields.safety_factor!r}") from None
        return super().__new__(cls, tol, max_terms, factor)


class DecrementState(NamedTuple):
    """One link of the decrement chain: u = x**(2**-k) - 1."""

    k: int
    u: float


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


def _positive_value(x: "float | PositiveInput") -> float:
    if type(x) is float and 0.0 < x < math.inf:
        return x
    return PositiveInput(x).x


_DEFAULT_CONFIG = EvalConfig()


def decrement_step(u: float) -> float:
    """Advance one square root: send x**w - 1 to x**(w/2) - 1.

    Uses u / (sqrt(1 + u) + 1), the rationalized form of sqrt(1 + u) - 1,
    so no digits cancel.  Preserves sign, and |result| <= |u| / 2 for
    u >= 0 (for -1 < u < 0 the magnitude still shrinks, the factor
    tending to 1/2 as u -> 0).
    """
    u = _real(u, "u")
    if u <= -1.0:
        raise ValueError(f"u must be a finite real > -1, got {u!r}")
    return u / (math.sqrt(1.0 + u) + 1.0)


def _walk(x: float, n: int, tol: float, safety: float, us: "list | None" = None) -> tuple:
    """One pass over terms 1..n at x (not checked): (k, j, u_j, S_k, safety * term_k).

    The pass stops at the first k with safety * term_k <= tol (never if
    tol < 0) or at n; j = min(k, m), m the cutoff.  u_0..u_j go to ``us``
    if given.  For x < 1/2 the leading u_k are fl(r - 1) of repeated square
    roots r of x until r >= 1/2, where r - 1 is exact (Sterbenz).
    """
    sqrt = math.sqrt
    r = x
    u = x - 1.0
    if us is not None:
        us.append(u)
    s = 0.0
    tail = math.inf
    p = 0.5  # 2**(k-1) by doubling: u * u * p is the double ldexp(u * u, k - 1)
    k = 0
    for k in range(1, n + 1):
        if r < 0.5:
            r = sqrt(r)
            u = r - 1.0
        else:
            d = sqrt(1.0 + u) + 1.0
            if d == 2.0:
                k -= 1
                break
            u /= d
        p += p
        t = u * u * p
        s += t
        tail = safety * t
        if us is not None:
            us.append(u)
        if tail <= tol:
            return k, k, u, s, tail
    j = k
    # Past the cutoff u_k = ldexp(u_j, j - k), so term_k = ldexp(u_j**2, 2j - k - 1).
    ldexp = math.ldexp
    u2 = u * u
    for k in range(j + 1, n + 1):
        t = ldexp(u2, 2 * j - k - 1)
        if tol < 0.0 and s + t == s:
            # Smaller terms cannot move s either (rounding is monotone).
            k = n
            tail = safety * ldexp(u2, 2 * j - n - 1)
            break
        s += t
        tail = safety * t
        if tail <= tol:
            break
    return k, j, u, s, tail


def _decrements(x: float, n: int) -> list[float]:
    """[u_0, ..., u_j] for u_k = x**(2**-k) - 1, j = min(n, m); x is not checked."""
    us = []
    _walk(x, n, -1.0, 1.0, us)
    return us


def iterate_decrements(x: "float | PositiveInput", n: int) -> list[DecrementState]:
    """Return [(0, u_0), (1, u_1), ..., (n, u_n)] for u_k = x**(2**-k) - 1."""
    xv = _positive_value(x)
    n = _int_at_least(n, "n", 0)
    us = _decrements(xv, n)
    m = len(us) - 1
    us += [math.ldexp(us[m], m - k) for k in range(m + 1, n + 1)]
    return [DecrementState(k, u) for k, u in enumerate(us)]


def term(k: int, u_k: float) -> float:
    """Series term 2**(k-1) * u_k**2, scaled exactly via ldexp; ValueError past the float range."""
    k = _int_at_least(k, "k", 1)
    u_k = _real(u_k, "u_k")
    if u_k <= -1.0:
        raise ValueError(f"u_k must be a finite real > -1, got {u_k!r}")
    try:
        return math.ldexp(u_k * u_k, k - 1)
    except OverflowError:
        raise ValueError(f"term({k}, {u_k!r}) is beyond the float range") from None


def partial_sum(x: "float | PositiveInput", n: int) -> float:
    """S_n = sum of the first n terms; approximates x - 1 - log(x).

    Nonnegative and nondecreasing in n.  S_0 = 0 by the empty-sum
    convention.
    """
    xv = _positive_value(x)
    _, j, u, s, _ = _walk(xv, _int_at_least(n, "n", 0), -1.0, 1.0)
    return s if math.isfinite(s) else (xv - 1.0) - math.ldexp(u, j)  # term 1 overflows near DBL_MAX


def difference_quotient(x: "float | PositiveInput", n: int) -> float:
    """D_n = 2**n * u_n, the difference-quotient approximation to log(x)."""
    _, j, u, _, _ = _walk(_positive_value(x), _int_at_least(n, "n", 0), -1.0, 1.0)
    return math.ldexp(u, j)  # past m, u_n = ldexp(u_m, m - n) and so D_n = D_m


def eval_log(x: "float | PositiveInput", config: "EvalConfig | None" = None) -> LogApproxResult:
    """Approximate log(x) adaptively.

    Accumulates terms until safety_factor * term_n <= tol or max_terms is
    reached; the returned log_value is the difference quotient D_n at the
    stopping index, not x - 1 - S_n, so it never subtracts two close
    numbers.  A result with ``converged`` false (tolerance not reached
    within max_terms) is still the best available approximation; no
    exception is raised for that case.
    """
    xv = _positive_value(x)
    cfg = _DEFAULT_CONFIG if config is None else config
    tol = cfg.tol
    n, j, u, s, tail = _walk(xv, cfg.max_terms, tol, cfg.safety_factor)
    log_value = math.ldexp(u, j)
    if not math.isfinite(s):
        # Near DBL_MAX term 1 overflows.  x - 1 dwarfs log(x) there, so the
        # identity S_n + D_n = x - 1 gives the residual without cancellation.
        s = (xv - 1.0) - log_value
    return LogApproxResult(log_value, s, n, tail, tail <= tol)


def tail_ratio(x: "float | PositiveInput", k: int) -> float:
    """term_k * 2**k, which converges to log(x)**2 / 2 as k grows.

    Undefined at x = 1, where every term vanishes; ValueError past the
    float range (k = 1 near DBL_MAX).
    """
    xv = _positive_value(x)
    k = _int_at_least(k, "k", 1)
    if xv == 1.0:
        raise ValueError("tail_ratio is undefined at x = 1 (all terms are zero)")
    _, j, u, _, _ = _walk(xv, k, -1.0, 1.0)
    try:
        ratio = math.ldexp(u * u, 2 * j - 1)  # past m, 2**(2k-1) * u_k**2 = 2**(2m-1) * u_m**2
    except OverflowError:
        ratio = math.inf
    if ratio == math.inf:  # u * u itself is inf at k = 1 near DBL_MAX, and ldexp(inf, 1) does not raise
        raise ValueError(f"tail_ratio({xv!r}, {k}) is beyond the float range")
    return ratio


def trace(x: "float | PositiveInput", n: int) -> list[TraceRow]:
    """Rows (k, u_k, term_k, S_k, D_k) for k = 0..n.

    Row 0 carries term 0 and S_0 = 0; D_0 = u_0.  Within each row
    S_k + D_k reproduces x - 1 up to accumulated rounding.
    """
    xv = _positive_value(x)
    n = _int_at_least(n, "n", 0)
    ldexp = math.ldexp
    us = _decrements(xv, n)
    m = len(us) - 1
    rows = [TraceRow(0, us[0], 0.0, 0.0, us[0])]
    s = 0.0
    for k in range(1, n + 1):
        j = k if k <= m else m
        u = us[j]
        t = ldexp(u * u, 2 * j - k - 1)
        s += t
        rows.append(TraceRow(k, ldexp(u, j - k), t, s, ldexp(u, j)))
    if not math.isfinite(s):
        # Term 1 overflows near DBL_MAX: close every S_k by the identity, as partial_sum does.
        rows = [TraceRow(k, u, t, (xv - 1.0) - d, d) for k, u, t, _, d in rows]
    return rows
