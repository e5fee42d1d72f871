"""Independent cross-checks for the series evaluator.

x - 1 - log(x) is the double integral of 1/s**2 over t in [1, x], s in [1, t]
(for x < 1 both orientations flip, so it stays nonnegative).  Composite
Simpson quadrature of it, inner integral included (its closed form would
smuggle the answer in), shares no code and no algebraic identity with the
square-root recurrence: agreement is evidence, not tautology.  reference_log
exposes the platform libm logarithm as a second, cheaper oracle.

The mesh is graded (Davis & Rabinowitz, *Methods of Numerical Integration*):
[1, x] is split at the powers of two between 1 and x, by doubling or halving,
so every breakpoint is exact and no logarithm is taken.  1/s**2 changes by at
most a factor of 4 on a piece, so ``panels`` panels per piece give about the
same relative error, of order panels**-4, at every x.  The work is pure Python,
O(pieces * panels) time and O(1) memory.  Where the arithmetic leaves the float
range, ValueError says so: from about x = 2**-500 down the inner sums overflow,
and near x = DBL_MAX the outer sum rounds past it.
"""

import math
from typing import NamedTuple

from .series import PositiveInput, _int_at_least, _positive_value

__all__ = ["QuadratureConfig", "double_integral_residual", "reference_log"]


# The bound limits time: pieces * panels nodes, and x = 1e308 has 1024 pieces, about 4.2M nodes at 4096.
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


def _piece(a: float, b: float, inner: float, n: int) -> tuple:
    """Nested Simpson on [a, b] in n panels of width h, given I(a): (the outer integral over [a, b], I(b)).

    With f = 1/s**2 at the nodes, I(t_i) = I(a) + h/12 * e_i, where e_i adds a Simpson pair
    4 * (f0 + 4 f1 + f2) at each even node and the half-panel rule 5 f0 + 8 f1 - f2 at each
    odd one.  The outer sum h/3 * sum(w_i * I(t_i)) is then (b - a) * I(a) + h**2/36 * sum(w_i * e_i).
    """
    h = (b - a) / n
    f0 = 1.0 / (a * a)
    e = 0.0  # e at the last even node
    acc = 0.0  # sum(w_i * e_i) so far, weighting the last even node 2
    for i in range(1, n, 2):
        t1 = a + i * h
        t2 = a + (i + 1) * h
        f1 = 1.0 / (t1 * t1)
        f2 = 1.0 / (t2 * t2)
        # 4 * (e + 5 f0 + 8 f1 - f2) at the odd node plus 2 * (e + 4 * (f0 + 4 f1 + f2)) at the even one.
        acc += 6.0 * e + 28.0 * f0 + 64.0 * f1 + 4.0 * f2
        e += 4.0 * (f0 + 4.0 * f1 + f2)
        f0 = f2
    acc -= e  # the end node weighs 1
    # h * acc first: h * h leaves the float range at both ends of it.
    return (b - a) * inner + h * acc * h / 36.0, inner + h / 12.0 * e


def double_integral_residual(x: "float | PositiveInput", config: "QuadratureConfig | None" = None) -> float:
    """Approximate x - 1 - log(x) by nested composite Simpson quadrature on a graded mesh.

    The inner integral of 1/s**2 from 1 to each node is built on the same nodes.  The
    result is nonnegative, with a relative error below 1e-12 at 1024 panels for x from
    about 2**-500 to 1e308.  ValueError where it is not finite.
    """
    xv = _positive_value(x)
    if config is None:
        config = QuadratureConfig()
    elif not isinstance(config, QuadratureConfig):
        raise TypeError(f"config must be a QuadratureConfig or None, got {type(config).__name__}")
    n = config.panels

    result = 0.0
    inner = 0.0  # I(a) = the inner integral from 1 to the piece's start a
    a = 1.0
    while a != xv and math.isfinite(result):  # stop at the first piece that leaves the float range
        b = min(a + a, xv) if xv > a else max(0.5 * a, xv)
        piece, inner = _piece(a, b, inner, n)
        result += piece
        a = b
    if not math.isfinite(result):
        raise ValueError(f"the quadrature at x = {xv!r} is beyond the float range")
    return result


def reference_log(x: "float | PositiveInput") -> float:
    """The platform libm natural logarithm, as an accuracy yardstick."""
    return math.log(_positive_value(x))
