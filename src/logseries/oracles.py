"""Independent cross-checks for the series evaluator.

The residual x - 1 - log(x) equals the double integral of 1/u**2 over
the triangle-like region t in [1, x], s in [1, t] (with the usual signed
convention when x < 1: both orientations flip, so the value stays
nonnegative).  Evaluating that integral by composite Simpson quadrature
shares no code and no algebraic identity with the square-root recurrence,
which makes it a genuine oracle: agreement is evidence, not tautology.

The inner integral is itself done by quadrature rather than by its
closed form, since the closed form would smuggle the answer in.  Both
axes use the same panel count.  reference_log exposes the platform
libm logarithm as a second, cheaper oracle.

The inner nodes s_ij = 1 + (x - 1) * (f_i * f_j), f_i = i/panels, are symmetric
bit for bit, so only the strip j >= i of the (panels + 1)**2 grid is formed, in
row blocks of about _BLOCK_NODES nodes (256 KB, in cache) in one reused buffer.
Each block's rows and mirrored columns add into the inner integrals, each still
the Simpson sum over its own row but grouped differently, a few ulps from the
whole-grid formula.  Memory is O(panels); MAX_PANELS bounds time, not memory.
Where the arithmetic leaves the float range the result is not finite, and
ValueError says so: from about x = 1e156 up the sum overflows, and from
x = 2**-54 down fl(x - 1) is -1, so the last node is 0.

numpy is imported only when the quadrature runs, so importing the
package (and every CLI command but ``check integral``) does not load it.
"""

import math
from typing import NamedTuple

from .series import PositiveInput, _int_at_least, _positive_value

__all__ = ["QuadratureConfig", "double_integral_residual", "reference_log"]


# Memory is O(panels); the bound limits time: half of (4096 + 1)**2, about 8.4M nodes formed.
MAX_PANELS = 4096

# Nodes per row block: 32768 float64 are 256 KB, which stays in cache.
_BLOCK_NODES = 32768


class _QuadratureConfigFields(NamedTuple):
    panels: int = 1024


class QuadratureConfig(_QuadratureConfigFields):
    """Panel count per axis for composite Simpson; even, 2 <= panels <= MAX_PANELS."""

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


def _simpson_weights(panels: int) -> "numpy.ndarray":
    import numpy as np

    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def double_integral_residual(x: "float | PositiveInput", config: "QuadratureConfig | None" = None) -> float:
    """Approximate x - 1 - log(x) by nested composite Simpson quadrature.

    Outer nodes t_i span [1, x]; for each, the inner integral of 1/s**2 over [1, t_i]
    is done with the same rule.  The integrand is a square in disguise, so the result
    is nonnegative up to an error that falls off as panels**-4.  At 1024 panels that
    error is below 1e-8 for x in about [0.05, 10]; far from 1 the result is wrong with
    no warning (1067.0, not 10.51, at x = 1e-5).  ValueError where it is not finite.
    """
    import numpy as np

    xv = _positive_value(x)
    if config is None:
        config = QuadratureConfig()
    elif not isinstance(config, QuadratureConfig):
        raise TypeError(f"config must be a QuadratureConfig or None, got {type(config).__name__}")
    n = config.panels

    # t_i = 1 + (x - 1) * f_i, s_ij = 1 + (x - 1) * (f_i * f_j); block [lo, hi) forms columns lo..n.
    frac = np.arange(n + 1) / n
    w = _simpson_weights(n)
    inner = np.zeros(n + 1)
    buf = np.empty(_BLOCK_NODES)
    with np.errstate(all="ignore"):
        lo = 0
        while lo <= n:
            hi = min(n + 1, lo + max(1, _BLOCK_NODES // (n + 1 - lo)))
            g = buf[: (hi - lo) * (n + 1 - lo)].reshape(hi - lo, n + 1 - lo)
            np.multiply.outer(frac[lo:hi], frac[lo:], out=g)
            g *= xv - 1.0
            g += 1.0
            np.multiply(g, g, out=g)
            np.divide(1.0, g, out=g)  # g = 1 / s**2
            inner[lo:hi] += g @ w[lo:]
            inner[hi:] += w[lo:hi] @ g[:, hi - lo :]  # columns past hi are rows hi..n, mirrored
            lo = hi
        inner *= (xv - 1.0) * frac / (3.0 * n)
        result = float((w @ inner) * ((xv - 1.0) / (3.0 * n)))
    if not math.isfinite(result):
        raise ValueError(f"the quadrature at x = {xv!r} is beyond the float range")
    return result


def reference_log(x: "float | PositiveInput") -> float:
    """The platform libm natural logarithm, as an accuracy yardstick."""
    return math.log(_positive_value(x))
