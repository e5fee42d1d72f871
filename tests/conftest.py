"""Child interpreters started by the tests import this checkout's package.

pyproject.toml puts ``src`` on pytest's own ``sys.path``; the CLI tests run
``python -m logseries`` in a fresh process, which sees only PYTHONPATH.
"""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
