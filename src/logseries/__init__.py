"""Cancellation-safe natural logarithm from repeated square roots.

The identity x - 1 - log(x) = sum(2**(k-1) * (x**(2**-k) - 1)**2, k >= 1)
turns the logarithm into a sum of squares.  :mod:`logseries.series`
evaluates it stably, :mod:`logseries.oracles` cross-checks it against
independent quadrature, and :mod:`logseries.inequalities` uses
it to verify the classical tangent, concavity, and AM-GM inequalities.
The ``logseries`` command line fronts all of it.
"""

from . import inequalities, oracles, series
from .inequalities import *
from .oracles import *
from .series import *

__version__ = "0.1.0"

__all__ = sorted({*series.__all__, *inequalities.__all__, *oracles.__all__})
