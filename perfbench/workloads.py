"""The four workloads: what one round of operations is, and how it is judged.

A round is a fixed number of operations drawn from the run's seeded
``random.Random``.  Every run attempts whole rounds, so the share of
failed operations is the same in every run whatever the seed or the run
length.  An operation is ``(target, name, args, kwargs)``; the runner
looks ``target.name`` up at call time, so wrappers installed by the
tracer are seen.  A round's ``judge`` turns the outcomes (return values,
or the exceptions raised) into ``(attempted, failed, unexpected)``, where
``unexpected`` counts failures outside the known faults of the edge set.
"""

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import checks
import reference

EVAL_RANGES = ((1e-300, 1e300), (1e-8, 1e8), (0.5, 2.0))
EVALS_PER_RANGE = 300
HELPERS = ("trace", "partial_sum", "difference_quotient", "tail_ratio")
HELPER_CALLS = 30  # per helper and round: 120 of 1029 operations
HELPER_MAX_N = 60
HELPER_RANGE = (1e-8, 1e8)

# Inputs at the ends of the domain, attempted once in every round.  The
# first KNOWN_FAULTS fail today (see the FOUND lines in CHANGES.md); each
# passes once it returns a correct value or raises the documented ValueError.
KNOWN_FAULTS = 4
EDGE_CASES = (
    ("eval_log", (sys.float_info.max,)),  # residual = inf with converged = True
    ("eval_log", (10**400,)),  # OverflowError from float()
    ("difference_quotient", (2.0, 1100)),  # u_n underflows: 0.0, not log 2
    ("tail_ratio", (2.0, 1100)),  # 0.0, not (log 2)**2 / 2
    ("eval_log", (5e-324,)),
    ("eval_log", (sys.float_info.min,)),
    ("eval_log", (math.nextafter(1.0, 0.0),)),
    ("eval_log", (1.0,)),
    ("eval_log", (math.nextafter(1.0, 2.0),)),
)

# The sweeps' default counts, fixed here so the work per round cannot drift.
SWEEPS = (
    ("sweep_tangent_line", 10000),
    ("sweep_tangent_at", 10000),
    ("sweep_concavity", 10000),
    ("sweep_amgm", 1000),
)
CONSTANT_SCALES = (1e-6, 1e-3, 1.0, 7.0, 100.0)  # as `check amgm` uses them
CONSTANT_LENGTHS = range(1, 17)

QUAD_RANGE = (0.25, 10.0)
QUAD_PANELS = (64, 128, 256, 512, 1024, 2048)

SWEEP_RANGE = (1e-6, 100.0)  # the sweeps' own sampling range, for CLI inputs
CLI_EVAL_RANGE = (1e-8, 1e8)
CLI_TRACE_N = 60


def log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


@dataclass
class Round:
    ops: list
    judge: object


def run_ops(ops, yardstick=None, period_s=0.05):
    """Call each operation in turn; return the outcomes and their times.

    The times are per operation, in reference seconds: each stretch of
    about ``period_s`` of operations is divided by the mean of the
    yardstick samples taken right before and right after it, and
    multiplied by the yardstick's nominal time (see reference.py).  The
    last value returned is the round's plain wall time.  Yardstick time
    is in neither.  Without a yardstick the times are wall seconds.
    """
    outcomes = []
    seconds = []
    clock = time.perf_counter
    wall = stretch = 0.0
    first = 0  # the stretch's first operation
    before = yardstick.measure() if yardstick else None
    for i, (target, name, args, kwargs) in enumerate(ops):
        start = clock()
        try:
            outcomes.append(getattr(target, name)(*args, **kwargs))
        except Exception as exc:  # an operation's failure is an outcome to judge
            outcomes.append(exc)
        seconds.append(clock() - start)
        stretch += seconds[-1]
        if stretch >= period_s or i == len(ops) - 1:
            wall += stretch
            if yardstick:
                after = yardstick.measure()
                scale = 2.0 * yardstick.nominal_s / (before + after)
                seconds[first:] = [t * scale for t in seconds[first:]]
                before = after
            stretch = 0.0
            first = i + 1
    return outcomes, seconds, wall


class LibraryEval:
    """Scalar ``series`` calls over three ranges, helpers, and the edge set."""

    name = "library_eval"
    yardstick = reference.PYTHON

    def __init__(self, package):
        self.series = package.series

    def make_round(self, rng):
        cases = []
        for lo, hi in EVAL_RANGES:
            cases += [("eval_log", (log_uniform(rng, lo, hi),)) for _ in range(EVALS_PER_RANGE)]
        for helper in HELPERS:
            cases += [
                (helper, (log_uniform(rng, *HELPER_RANGE), rng.randint(1, HELPER_MAX_N)))
                for _ in range(HELPER_CALLS)
            ]
        known = range(len(cases), len(cases) + KNOWN_FAULTS)
        cases += EDGE_CASES
        ops = [(self.series, name, args, {}) for name, args in cases]

        def judge(outcomes):
            bad = [i for i, ((name, args), out) in enumerate(zip(cases, outcomes)) if not LIBRARY_CHECKS[name](*args, out)]
            return len(cases), len(bad), sum(i not in known for i in bad)

        return Round(ops, judge)


LIBRARY_CHECKS = {
    "eval_log": checks.eval_ok,
    "trace": checks.trace_rows_ok,
    "partial_sum": checks.partial_sum_ok,
    "difference_quotient": checks.difference_quotient_ok,
    "tail_ratio": checks.tail_ratio_ok,
}


class InequalitySweeps:
    """The four seeded sweeps at their default counts, plus constant AM-GM vectors."""

    name = "inequality_sweeps"
    yardstick = reference.PYTHON

    def __init__(self, package, seed):
        self.inequalities = package.inequalities
        self.seed = seed

    def make_round(self, rng):
        ops = [(self.inequalities, name, (), {"count": count, "seed": self.seed}) for name, count in SWEEPS]
        constants = [(scale, length) for scale in CONSTANT_SCALES for length in CONSTANT_LENGTHS]
        ops += [(self.inequalities, "amgm_check", ([scale] * length,), {}) for scale, length in constants]

        def judge(outcomes):
            reports, singles = outcomes[: len(SWEEPS)], outcomes[len(SWEEPS):]
            failed = sum(checks.sweep_failures(count, r) for (_, count), r in zip(SWEEPS, reports))
            failed += sum(not checks.constant_amgm_ok(s, n, out) for (s, n), out in zip(constants, singles))
            return sum(count for _, count in SWEEPS) + len(constants), failed, failed

        return Round(ops, judge)


class OracleQuadrature:
    """``double_integral_residual`` on a panel-halving ladder at one seeded x."""

    name = "oracle_quadrature"
    yardstick = reference.NUMPY

    def __init__(self, package):
        self.oracles = package.oracles
        self.config = package.oracles.QuadratureConfig

    def make_round(self, rng):
        x = log_uniform(rng, *QUAD_RANGE)
        ops = [(self.oracles, "double_integral_residual", (x, self.config(panels=p)), {}) for p in QUAD_PANELS]

        def judge(outcomes):
            verdicts = checks.quadrature_errors_ok(x, list(zip(QUAD_PANELS, outcomes)))
            return len(verdicts), verdicts.count(False), verdicts.count(False)

        return Round(ops, judge)


@dataclass
class CliRun:
    returncode: int
    stdout: str
    stderr: str


class CliRunner:
    """Runs ``python -m logseries`` children, one at a time, to their exit.

    With ``traced`` set, the child is the benchmark's launcher instead,
    which installs the span wrappers before it calls ``logseries.cli.main``.
    """

    def __init__(self, root, env):
        self.root = root
        self.env = env
        self.traced = False
        self.peak_kb = 0
        self.spans = []  # one list per traced child

    def run(self, argv):
        if self.traced:
            command = [sys.executable, os.path.join("perfbench", "cli_launcher.py"), *argv]
        else:
            command = [sys.executable, "-m", "logseries", *argv]
        proc = subprocess.Popen(
            command, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        with proc:
            stdout = proc.stdout.read()
            stderr = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if self.traced:
            stderr, _, spans = stderr.rpartition("SPANS ")
            self.spans.append([tuple(span) for span in json.loads(spans or "[]")])
        return CliRun(proc.returncode, stdout, stderr)


def cli_commands(rng):
    """One round: (kind, argv, numeric args) for each of the six commands."""
    x_eval = log_uniform(rng, *CLI_EVAL_RANGE)
    x_trace = log_uniform(rng, *CLI_EVAL_RANGE)
    x_tan = log_uniform(rng, *SWEEP_RANGE)
    conc = (log_uniform(rng, *SWEEP_RANGE), log_uniform(rng, *SWEEP_RANGE), rng.uniform(0.0, 1.0))
    amgm = tuple(log_uniform(rng, *SWEEP_RANGE) for _ in range(rng.randint(1, 16)))
    x_int = log_uniform(rng, *QUAD_RANGE)
    return [
        ("eval", ["eval", "--x", repr(x_eval)], (x_eval,)),
        ("trace", ["trace", "--x", repr(x_trace), "--n", str(CLI_TRACE_N), "--format", "csv"], (x_trace, CLI_TRACE_N)),
        ("check_tangent", ["check", "tangent", "--x", repr(x_tan)], (x_tan,)),
        ("check_concavity", ["check", "concavity", "--values", ",".join(map(repr, conc))], conc),
        ("check_amgm", ["check", "amgm", "--values", ",".join(map(repr, amgm))], amgm),
        ("check_integral", ["check", "integral", "--x", repr(x_int)], (x_int,)),
    ]


class CliCommands:
    """Six ``python -m logseries`` processes per round, run one after another."""

    name = "cli_commands"

    def __init__(self, runner, yardstick):
        self.runner = runner
        self.yardstick = yardstick

    def make_round(self, rng):
        commands = cli_commands(rng)
        ops = [(self.runner, "run", (argv,), {}) for _, argv, _ in commands]

        def judge(outcomes):
            failed = sum(
                isinstance(run, BaseException) or not checks.cli_ok(kind, args, run)
                for (kind, _, args), run in zip(commands, outcomes)
            )
            return len(commands), failed, failed

        return Round(ops, judge)


def make(name, package, seed, runner=None, yardstick=None):
    """The workload called ``name``; ``cli_commands`` needs the runner and its yardstick."""
    if name == "library_eval":
        return LibraryEval(package)
    if name == "inequality_sweeps":
        return InequalitySweeps(package, seed)
    if name == "oracle_quadrature":
        return OracleQuadrature(package)
    return CliCommands(runner, yardstick)
