"""Yardsticks for the host's speed, measured next to the program.

On the 2-vCPU VM this benchmark was built on, the host's speed swings by
up to 2x in phases that last from seconds to more than a minute: the same
round of ``eval_log`` calls takes 25 ms in one phase and 50 ms in the
next, and process CPU time swings with it, so no statistic over a 10 s
run removes it.  The benchmark therefore times a fixed piece of its own
work, a yardstick, right after each batch of program work, and reports
the program's time in yardstick units, scaled to the yardstick's time on
a quiet host (``nominal_s``).  A faster program moves the metric; a
slower host moves both and cancels.

Each yardstick resembles the work it calibrates, because the host's
phases slow different kinds of work by different factors: interpreted
numeric Python for the library and the sweeps, a numpy outer-product
rule for the quadrature, and a bare interpreter start for processes.
None of them calls logseries.
"""

import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class _Row:
    value: float
    steps: int


def _checked_step(u):
    if isinstance(u, bool) or not isinstance(u, (int, float)):
        raise TypeError(type(u).__name__)
    u = float(u)
    if not math.isfinite(u) or u <= -1.0:
        raise ValueError(u)
    return u / (math.sqrt(1.0 + u) + 1.0)


def _chain(x):
    u = x - 1.0
    while True:
        yield u
        u = _checked_step(u)


def _python_work():
    for x in (1.5, 3.0, 0.7, 10.0, 100.0) * 4:
        chain = _chain(x)
        next(chain)
        total = 0.0
        for n in range(1, 60):
            u = next(chain)
            total += math.ldexp(u * u, n - 1)
        _Row(total, n)


def _numpy_work(panels=1536):
    import numpy as np

    frac = np.arange(panels + 1) / panels
    s = 1.0 + np.outer(frac, frac)
    g = 1.0 / (s * s)
    w = np.ones(panels + 1)
    float(w @ (g @ w))


class Yardstick:
    def __init__(self, work, nominal_s, repeats=1):
        self.work = work
        self.nominal_s = nominal_s
        self.repeats = repeats
        self.warm = False

    def measure(self):
        """Seconds one piece of yardstick work takes now: the median of ``repeats``."""
        if not self.warm:  # the first run pays for imports and caches
            self.work()
            self.warm = True
        samples = []
        for _ in range(self.repeats):
            start = time.perf_counter()
            self.work()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)


def process_yardstick(root, env):
    """A bare interpreter start, with the environment the program's children get."""

    def work():
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True)

    return Yardstick(work, PROCESS_NOMINAL_S)


# Each yardstick's time on a quiet phase of the reference VM (the fast
# mode of several hundred samples; see README.md).
PYTHON = Yardstick(_python_work, 0.4e-3, repeats=5)
NUMPY = Yardstick(_numpy_work, 17e-3)
PROCESS_NOMINAL_S = 42e-3
