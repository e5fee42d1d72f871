"""``run_main`` runs the CLI in process; ``run_child`` starts a child, only where a process is under test.

pyproject.toml puts ``src`` on pytest's own ``sys.path``; a child sees only PYTHONPATH, which
pytest_configure extends so that children import this checkout's package too.
"""

import os
import pathlib
import subprocess

import pytest

from logseries import cli

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
CHILD_TIMEOUT = 30  # seconds; the slowest child takes well under 1 s, so only a hang reaches it


def pytest_configure(config):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def run_main(capsys):
    """``run_main(*argv)``: ``cli.main`` in process, as (exit status, stdout, stderr)."""

    def run(*argv):
        try:
            status = cli.main(list(argv))
        except SystemExit as exc:  # argparse's usage errors and --help
            status = exc.code
        return (status, *capsys.readouterr())

    return run


@pytest.fixture
def run_child():
    """``run_child(*argv, stdout=PIPE)``: ``argv`` run to exit in a child, as (exit status, stdout, stderr) bytes.

    A child still running after CHILD_TIMEOUT seconds is killed and the test fails, so a hang cannot stall the run.
    """

    def run(*argv, stdout=subprocess.PIPE):
        proc = subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT)
        return proc.returncode, proc.stdout, proc.stderr

    return run
