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
same relative error, of order panels**-4, at every x.  The work is pure Python,
O(pieces * panels) time and O(1) memory.  Where the arithmetic leaves the float
range, ValueError says so: the integrand peaks at 1/(4x) for x < 1/2, so it
overflows from about x = 2**-1026 down whatever the panel count, and near
x = DBL_MAX the sum rounds past it.
"""

import math
from typing import NamedTuple

from .series import _int_at_least, _positive_value

__all__ = ["QuadratureConfig", "double_integral_residual"]


# The bound limits time: pieces * panels nodes, and x = 1e308 or 2**-1025 has about 1024 pieces, 4.2M nodes at 4096.
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


def _piece(a: float, b: float, d: float, n: int) -> float:
    """Composite Simpson on [a, b] in n panels of the integrand (x - s)/s**2, given d = x - b.

    The nodes run from the piece end, s = b - j*h, so x - s is formed as d + j*h, a sum of
    two numbers of one sign, with no cancellation next to x.  Each node adds (x - s)/s**2
    times its Simpson weight h/3, 4h/3 or 2h/3, so no partial sum passes the result, and the
    two end nodes are scaled one by one: their sum alone can pass DBL_MAX.
    """
    h = (b - a) / n
    w1 = h / 3.0
    w2 = w1 + w1
    w4 = w2 + w2
    # The loop adds the last node, j = n or s = a, with weight 2 instead of 1: start it at -1.
    acc = d / b / b * w1 - (d + (b - a)) / a / a * w1
    for j in range(1, n, 2):
        t = j * h
        u = t + h
        s = b - t
        r = b - u
        acc += (d + t) / s / s * w4 + (d + u) / r / r * w2
    return acc


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

    result = 0.0
    a = 1.0
    while a != xv and math.isfinite(result):  # stop at the first piece that leaves the float range
        b = min(a + a, xv) if xv > a else max(0.5 * a, xv)
        result += _piece(a, b, xv - b, n)
        a = b
    if not math.isfinite(result):
        raise ValueError(f"the quadrature at x = {xv!r} is beyond the float range")
    return result

