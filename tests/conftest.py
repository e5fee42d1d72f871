"""``run_main`` runs the CLI in process; ``run_child`` starts a child, only where a process is under test.

pyproject.toml puts ``src`` on pytest's own ``sys.path``; a child sees only PYTHONPATH, which
pytest_configure extends so that children import this checkout's package too.  Where the platform
has SIGALRM, a test still running after TEST_TIMEOUT seconds fails.
"""

import os
import pathlib
import signal
import subprocess

import pytest

from logseries import cli

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
CHILD_TIMEOUT = 30  # seconds; the slowest child takes well under 1 s, so only a hang reaches it
TEST_TIMEOUT = 120  # seconds per test call; the slowest test takes about 2 s, so only a hang reaches it


class TimeLimitExceeded(BaseException):
    """Raised in a test call that outlives TEST_TIMEOUT.

    Not an Exception, so that hypothesis does not catch it and replay the hanging example while shrinking.
    """


def pytest_configure(config):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Run the test call under a TEST_TIMEOUT timer, then restore the SIGALRM handler it replaced."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} still running after {TEST_TIMEOUT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
