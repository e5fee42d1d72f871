"""The package namespace is the union of its modules' public names."""

import logseries
from logseries import inequalities, oracles, series

MODULES = (series, inequalities, oracles)


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
