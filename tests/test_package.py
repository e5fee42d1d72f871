"""The package namespace is the union of its modules' public names, and those names are pinned.

``import logseries`` loads ``series`` alone; ``inequalities`` and ``oracles`` load on first use.
What an import loads is read in fresh interpreters, since this one has loaded every layer.
"""

import sys

import pytest

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


LOADED = "print(sorted(m for m in sys.modules if m.startswith('logseries.')))"


def test_import_loads_the_series_layer_alone(run_child):
    assert run_child(sys.executable, "-c", f"import sys, logseries; {LOADED}") == (0, b"['logseries.series']\n", b"")


@pytest.mark.parametrize(
    "name, home",
    [("tangent_at", "inequalities"), ("inequalities", "inequalities"), ("QuadratureConfig", "oracles"), ("oracles", "oracles")],
)
def test_first_use_loads_the_home_module_alone(run_child, name, home):
    out = f"{['logseries.' + home, 'logseries.series']}\n".encode()
    assert run_child(sys.executable, "-c", f"import sys, logseries; logseries.{name}; {LOADED}") == (0, out, b"")


def test_cli_import_loads_every_layer(run_child):
    # The parser defaults, the FAIL-path tests that patch cli.* and the benchmark's -X importtime probe read all four.
    out = b"['logseries.cli', 'logseries.inequalities', 'logseries.oracles', 'logseries.series']\n"
    assert run_child(sys.executable, "-c", f"import sys, logseries.cli; {LOADED}") == (0, out, b"")


def test_dir_lists_every_public_name_before_any_lazy_load(run_child):
    code = f"""
import sys, logseries
names = dir(logseries)
assert set({PUBLIC_NAMES!r}) | {{"inequalities", "oracles", "series"}} <= set(names), names
{LOADED}
"""
    assert run_child(sys.executable, "-c", code) == (0, b"['logseries.series']\n", b"")


def test_unknown_name_raises_and_imports_nothing(run_child):
    code = """
import sys, logseries
before = set(sys.modules)
try:
    logseries.no_such_name
except AttributeError as exc:
    print(exc)
assert not hasattr(logseries, "no_such_name") and set(sys.modules) == before
"""
    assert run_child(sys.executable, "-c", code) == (0, b"module 'logseries' has no attribute 'no_such_name'\n", b"")


def test_star_import_in_a_fresh_interpreter_binds_every_public_name(run_child):
    code = "from logseries import *; print(sorted(name for name in dir() if not name.startswith('_')))"
    assert run_child(sys.executable, "-c", code) == (0, f"{PUBLIC_NAMES}\n".encode(), b"")


def test_lazy_load_binds_the_modules_own_objects(run_child):
    # After the first lookup every name of the module is a plain entry of the package's namespace.
    code = """
import logseries
logseries.QuadratureConfig
logseries.tangent_at
from logseries import inequalities, oracles
for module in (inequalities, oracles):
    for name in module.__all__:
        assert vars(logseries)[name] is getattr(module, name), name
print("ok")
"""
    assert run_child(sys.executable, "-c", code) == (0, b"ok\n", b"")


def test_a_public_name_missing_from_the_lazy_table_fails_naming_it(run_child):
    code = """
import logseries, logseries.inequalities
logseries.inequalities.__all__.append("new_check")
logseries.inequalities.new_check = None
try:
    logseries.tangent_at
except ImportError as exc:
    print(exc)
"""
    out = b"logseries.inequalities.__all__ and the package's lazy-name table differ in ['new_check']\n"
    assert run_child(sys.executable, "-c", code) == (0, out, b"")
