"""The package namespace is the union of its modules' public names, and those names are pinned.

``import logseries`` loads ``series`` alone; ``inequalities`` and ``oracles`` load on first use.
What an import loads is read in fresh interpreters, since this one has loaded every layer.
"""

import subprocess
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


def _run_python(code: str) -> str:
    """Stdout of ``code`` in a fresh interpreter that imports this checkout's package (see conftest.py)."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = "print(sorted(m for m in sys.modules if m.startswith('logseries.')))"


def test_import_loads_the_series_layer_alone():
    assert _run_python(f"import sys, logseries; {LOADED}") == "['logseries.series']\n"


@pytest.mark.parametrize(
    "name, home",
    [("tangent_at", "inequalities"), ("inequalities", "inequalities"), ("QuadratureConfig", "oracles"), ("oracles", "oracles")],
)
def test_first_use_loads_the_home_module_alone(name, home):
    out = _run_python(f"import sys, logseries; logseries.{name}; {LOADED}")
    assert out == f"{['logseries.' + home, 'logseries.series']}\n"


def test_cli_import_loads_every_layer():
    # The parser defaults, the FAIL-path tests that patch cli.* and the benchmark's -X importtime probe read all four.
    out = _run_python(f"import sys, logseries.cli; {LOADED}")
    assert out == "['logseries.cli', 'logseries.inequalities', 'logseries.oracles', 'logseries.series']\n"


def test_dir_lists_every_public_name_before_any_lazy_load():
    code = f"""
import sys, logseries
names = dir(logseries)
assert set({PUBLIC_NAMES!r}) | {{"inequalities", "oracles", "series"}} <= set(names), names
{LOADED}
"""
    assert _run_python(code) == "['logseries.series']\n"


def test_unknown_name_raises_and_imports_nothing():
    code = """
import sys, logseries
before = set(sys.modules)
try:
    logseries.no_such_name
except AttributeError as exc:
    print(exc)
assert not hasattr(logseries, "no_such_name") and set(sys.modules) == before
"""
    assert _run_python(code) == "module 'logseries' has no attribute 'no_such_name'\n"


def test_star_import_in_a_fresh_interpreter_binds_every_public_name():
    code = "from logseries import *; print(sorted(name for name in dir() if not name.startswith('_')))"
    assert _run_python(code) == f"{PUBLIC_NAMES}\n"


def test_lazy_load_binds_the_modules_own_objects():
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
    assert _run_python(code) == "ok\n"


def test_a_public_name_missing_from_the_lazy_table_fails_naming_it():
    code = """
import logseries, logseries.inequalities
logseries.inequalities.__all__.append("new_check")
logseries.inequalities.new_check = None
try:
    logseries.tangent_at
except ImportError as exc:
    print(exc)
"""
    assert _run_python(code) == "logseries.inequalities.__all__ and the package's lazy-name table differ in ['new_check']\n"
