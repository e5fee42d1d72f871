"""Cancellation-safe natural logarithm from repeated square roots.

The identity x - 1 - log(x) = sum(2**(k-1) * (x**(2**-k) - 1)**2, k >= 1)
turns the logarithm into a sum of squares.  :mod:`logseries.series`
evaluates it stably, :mod:`logseries.oracles` cross-checks it against
independent quadrature, and :mod:`logseries.inequalities` uses
it to verify the classical tangent, concavity, and AM-GM inequalities.
The ``logseries`` command line fronts all of it.

``import logseries`` loads :mod:`~logseries.series` alone.  The other two
library modules load on first use (PEP 562): the first lookup of one of
their public names, or of the module itself, imports that module alone and
binds all its public names here, so later lookups are plain attribute
reads.  ``dir()``, ``__all__`` and ``from logseries import *`` cover every
public name either way.  ``logseries.cli`` still imports every layer at
start: its parser defaults come from ``inequalities`` and ``oracles``, the
tests of its FAIL paths patch names in its namespace, and the benchmark's
``-X importtime`` probe reads all four layers from one ``import logseries.cli``.
"""

import importlib

from . import series
from .series import *

__version__ = "0.1.0"

# The public names of each module that loads on first use.  A name missing here
# is refused when its module loads, so a new public name cannot slip past.
_LAZY = {
    "inequalities": (
        "AmgmReport",
        "EQUALITY_TOL",
        "GAP_TOL",
        "PAIR_TOL",
        "SweepReport",
        "amgm_check",
        "concavity_check",
        "sweep_amgm",
        "sweep_concavity",
        "sweep_tangent_at",
        "sweep_tangent_line",
        "tangent_at",
        "tangent_line_gap",
    ),
    "oracles": ("QuadratureConfig", "double_integral_residual"),
}
# Each lazy name, the two module names included, to its home module.
_HOME = {name: home for home, names in _LAZY.items() for name in (home, *names)}

__all__ = sorted({*series.__all__, *(name for names in _LAZY.values() for name in names)})


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    names = _LAZY[home]
    if set(module.__all__) != set(names):
        unlisted = sorted(set(module.__all__) ^ set(names))
        raise ImportError(f"{module.__name__}.__all__ and the package's lazy-name table differ in {unlisted}")
    namespace = globals()  # the import above bound the module itself here
    namespace.update((public, getattr(module, public)) for public in names)
    return namespace[name]


def __dir__():
    return sorted({*globals(), *_HOME})
