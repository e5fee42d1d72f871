"""The package namespace is the union of its modules' public names, and those names are pinned."""

import logseries
from logseries import inequalities, oracles, series

MODULES = (series, inequalities, oracles)

# Adding or retiring a public name changes this list.
PUBLIC_NAMES = [
    "AmgmReport",
    "EQUALITY_TOL",
    "EvalConfig",
    "GAP_TOL",
    "LogApproxResult",
    "PAIR_TOL",
    "PositiveInput",
    "QuadratureConfig",
    "SweepReport",
    "TraceRow",
    "amgm_check",
    "concavity_check",
    "decrement_step",
    "difference_quotient",
    "double_integral_residual",
    "eval_log",
    "partial_sum",
    "sweep_amgm",
    "sweep_concavity",
    "sweep_tangent_at",
    "sweep_tangent_line",
    "tail_ratio",
    "tangent_at",
    "tangent_line_gap",
    "trace",
]


def test_public_names_are_pinned():
    assert logseries.__all__ == PUBLIC_NAMES


def test_package_all_is_the_modules_all():
    assert logseries.__all__ == sorted({name for module in MODULES for name in module.__all__})
    for module in MODULES:
        for name in module.__all__:
            assert getattr(logseries, name) is getattr(module, name)


def test_star_import_binds_the_tolerances():
    namespace = {}
    exec("from logseries import *", namespace)
    assert (namespace["GAP_TOL"], namespace["PAIR_TOL"], namespace["EQUALITY_TOL"]) == (
        inequalities.GAP_TOL,
        inequalities.PAIR_TOL,
        inequalities.EQUALITY_TOL,
    )
