"""Independent cross-checks for the series evaluator.

x - 1 - log(x) is the double integral of 1/s**2 over t in [1, x], s in [1, t]
(for x < 1 both orientations flip, so it stays nonnegative).  Exchanging the
order of integration, an exact step, makes it the single integral of
(x - s)/s**2 over s in [1, x].  Composite Simpson quadrature of that takes no
antiderivative (the closed form would smuggle the answer in) and no log or
square root, so it shares no code and no algebraic identity with the
square-root recurrence: agreement is evidence, not tautology.  The platform
libm logarithm, ``math.log``, is the second, cheaper yardstick.

The mesh is graded (Davis & Rabinowitz, *Methods of Numerical Integration*):
[1, x] is split at the powers of two between 1 and x, by doubling or halving,
so every breakpoint is exact and no logarithm is taken.  1/s**2 changes by at
most a factor of 4 on a piece, so ``panels`` panels per piece give about the
same relative error, of order panels**-4, at every x.

The mesh is also self-similar: s = 2**i * r maps the piece [2**i, 2**(i+1)]
onto [1, 2] exactly, nodes and weights alike, so that piece's Simpson sum of
(x - s)/s**2 is (x/2**i)*A - B in exact arithmetic, where A and B are the
same-panel Simpson sums of 1/r**2 and 1/r on [1, 2] (below 1, the piece
[2**-(i+1), 2**-i] gives B - x*2**(i+1)*A).  These are geometric and
arithmetic series in i, so every full piece before the one that ends at x
sums in closed form; still no log, no square root and no antiderivative enters.
Only that last piece is summed node by node.  A and B are formed once per panel
count, so a call costs one piece of pure-Python node work, O(panels) time and
O(1) memory, whatever x.  Where the arithmetic leaves the float range,
ValueError says so: the integrand peaks at 1/(4x) for x < 1/2, so it
overflows from x = 2**-1026 down whatever the panel count, and near
x = DBL_MAX the sum rounds past it.
"""

import math
from typing import NamedTuple

from .series import _int_at_least, _positive_value

__all__ = ["QuadratureConfig", "double_integral_residual"]


# The bound limits time and the reference-sum cache: a call walks panels + 1 nodes, and forming A and B
# for a new panel count takes 2 * (panels + 1) terms; the cache holds at most MAX_PANELS/2 panel counts.
MAX_PANELS = 4096


class _QuadratureConfigFields(NamedTuple):
    panels: int = 1024


class QuadratureConfig(_QuadratureConfigFields):
    """Panel count per piece for composite Simpson; even, 2 <= panels <= MAX_PANELS."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through _make: validate there too

    def __new__(cls, *args, **kwargs):
        (panels,) = _QuadratureConfigFields(*args, **kwargs)
        try:  # a bad value of any type is a ValueError naming the field
            panels = _int_at_least(panels, "panels", 2)
            if panels % 2 != 0:
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError(f"panels must be an even integer >= 2, got {panels!r}") from None
        if panels > MAX_PANELS:
            raise ValueError(f"panels must be at most {MAX_PANELS}, got {panels}")
        return super().__new__(cls, panels)


def _piece(a: float, b: float, n: int) -> float:
    """Composite Simpson in n panels of the integrand (x - s)/s**2 on the last piece [a, b], where b = x.

    The nodes run from the piece end, s = b - j*h, so x - s is formed as j*h, with no
    cancellation next to x.  Each node adds (x - s)/s**2 times its Simpson weight h/3, 4h/3 or
    2h/3, so no partial sum passes the result, and the end node s = a is scaled on its own.
    """
    h = (b - a) / n
    w1 = h / 3.0
    w2 = w1 + w1
    w4 = w2 + w2
    # The node s = b adds 0.  The loop adds the last node, j = n or s = a, with weight 2 instead of 1: start it at -1.
    acc = (a - b) / a / a * w1
    for j in range(1, n, 2):
        t = j * h
        u = t + h
        s = b - t
        r = b - u
        acc += t / s / s * w4 + u / r / r * w2
    return acc


def _reference_sums(n: int) -> "tuple[float, float]":
    """Return (A, B), the n-panel Simpson sums of 1/s**2 and 1/s on [1, 2].

    The node 1 + j/n is k/n for k = n + j, and its weight is c/(3n) with c = 1, 4, 2, ..., 2, 4, 1,
    so the terms are c*n/(3*k*k) and c/(3*k): one division of two exact integers each.  All are
    positive and ``math.fsum`` rounds their sum once, so A and B are within 1 ulp of exact.
    """

    def terms():
        yield 1, n
        yield 1, 2 * n
        for k in range(n + 1, 2 * n):
            yield 4 if k % 2 else 2, k  # n is even, so k is odd where j is

    return math.fsum(c * n / (3 * k * k) for c, k in terms()), math.fsum(c / (3 * k) for c, k in terms())


# (A, B) per panel count, formed on first use; at most MAX_PANELS/2 entries.
_REFERENCE_SUMS: "dict[int, tuple[float, float]]" = {}


def double_integral_residual(x: float, config: "QuadratureConfig | None" = None) -> float:
    """Approximate x - 1 - log(x) by composite Simpson quadrature of (x - s)/s**2 on a graded mesh.

    The result is nonnegative, with a relative error below 1e-12 at 1024 panels for x from
    about 2**-1026 to 1e308.  ValueError where it is not finite.
    """
    xv = _positive_value(x)
    if config is None:
        config = QuadratureConfig()
    elif not isinstance(config, QuadratureConfig):
        raise TypeError(f"config must be a QuadratureConfig or None, got {type(config).__name__}")
    n = config.panels
    if xv == 1.0:
        return 0.0

    # The last piece runs from 2**k to x, and |k| full pieces precede it: x is in (2**k, 2**(k+1)]
    # above 1 and in [2**(k-1), 2**k) below.  frexp reads k exactly.
    m, e = math.frexp(xv)
    k = e - 1 - (m == 0.5) if xv > 1.0 else e
    result = 0.0
    if k:
        sums = _REFERENCE_SUMS.get(n)
        if sums is None:
            sums = _REFERENCE_SUMS[n] = _reference_sums(n)
        a_n, b_n = sums
        if k > 0:  # the pieces [2**i, 2**(i+1)] give (x/2**i)*A - B, i = 0 .. k-1
            result = xv * a_n * (2.0 - math.ldexp(2.0, -k)) - k * b_n
        else:  # the pieces [2**-(i+1), 2**-i] give B - x*2**(i+1)*A, i = 0 .. -k-1
            result = -k * b_n - 2.0 * a_n * (math.ldexp(xv, -k) - xv)
    result += _piece(math.ldexp(1.0, k), xv, n)
    # (x - s)/s**2 peaks at 1/(4x), at s = 2x on a full piece, whose nodes are not formed:
    # the node-by-node sum overflowed there for every x <= 2**-1026, and 0.25/x does too.
    if not math.isfinite(result) or 0.25 / xv == math.inf:
        raise ValueError(f"the quadrature at x = {xv!r} is beyond the float range")
    return result
