"""Self-tests for the benchmark's checkers.

Each workload's round is judged against a stand-in program built from the
checkers' own libm references.  The stand-in passes every operation; one
wrong value fed into it must show up as one failed operation.  No test
runs logseries or spawns a process.
"""

import math
import random
from types import SimpleNamespace

import checks
import workloads


class Program:
    """Correct stand-ins for the functions the workloads call."""

    def __init__(self, wrong=None):
        self.wrong = wrong or (lambda name, args, value: value)

    def _out(self, name, args, value):
        return self.wrong(name, args, value)

    # series
    def eval_log(self, x):
        try:
            xf = float(x)
        except OverflowError:
            raise ValueError("x out of range") from None
        log_x = math.log(xf)
        return self._out("eval_log", (x,), SimpleNamespace(log_value=log_x, residual=xf - 1.0 - log_x, converged=True))

    def trace(self, x, n):
        log_x = math.log(x)
        sums = checks.ref_partial_sums(log_x, n)
        rows = []
        for k in range(n + 1):
            u = checks.ref_decrement(log_x, k)
            rows.append((k, u, math.ldexp(u * u, k - 1) if k else 0.0, sums[k], checks.ref_quotient(log_x, k)))
        return self._out("trace", (x, n), rows)

    def partial_sum(self, x, n):
        return self._out("partial_sum", (x, n), checks.ref_partial_sums(math.log(x), n)[n])

    def difference_quotient(self, x, n):
        return self._out("difference_quotient", (x, n), checks.ref_quotient(math.log(x), n))

    def tail_ratio(self, x, k):
        return self._out("tail_ratio", (x, k), checks.ref_tail_ratio(math.log(x), k))

    # inequalities
    def _sweep(self, name, worst, count):
        margin = checks.SWEEP_MARGINS[name][0](*worst)
        report = SimpleNamespace(name=name, checked=count, violations=0, min_margin=margin, worst_input=worst)
        return self._out(name, worst, report)

    def sweep_tangent_line(self, count, seed):
        return self._sweep("tangent_line_gap", (1.5,), count)

    def sweep_tangent_at(self, count, seed):
        return self._sweep("tangent_at", (2.0, 3.0), count)

    def sweep_concavity(self, count, seed):
        return self._sweep("concavity_check", (0.5, 4.0, 0.25), count)

    def sweep_amgm(self, count, seed):
        return self._sweep("amgm_check", ((1.0, 2.0, 8.0),), count)

    def amgm_check(self, values):
        mean = values[0]
        return self._out("amgm_check", values, SimpleNamespace(arithmetic_mean=mean, geometric_mean=mean, holds=True, equality=True))

    # oracles
    def double_integral_residual(self, x, config):
        exact = checks.tangent_line_margin(x)
        return self._out("double_integral_residual", (x, config.panels), exact + 1.0 / config.panels**4)

    # cli: a finished child process, with the output the real CLI prints
    def run(self, argv):
        kind = argv[1] if argv[0] == "check" else argv[0]
        flag = "--values" if "--values" in argv else "--x"
        numbers = [float(v) for v in argv[argv.index(flag) + 1].split(",")]
        x = numbers[0]
        if kind == "eval":
            log_x = math.log(x)
            text = f"log_value = {log_x!r}\nresidual = {x - 1 - log_x!r}\nterms_used = 48\ntail_estimate = 1e-15\nconverged = true\n"
        elif kind == "trace":
            rows = self.trace(x, int(argv[4]))
            lines = ["k,u_k,term_k,partial_sum_k,diff_quotient_k,telescope_defect"]
            lines += [",".join([str(r[0]), *map(repr, r[1:]), "0"]) for r in rows]
            text = "\n".join(lines) + "\n"
        elif kind == "tangent":
            text = f"tangent_line_gap({x!r}) = {checks.tangent_line_margin(x)!r}\nPASS\n"
        elif kind == "concavity":
            text = f"concavity_check(...) = {checks.concavity_margin(*numbers)!r}\nPASS\n"
        elif kind == "amgm":
            am = math.fsum(numbers) / len(numbers)
            gm = math.exp(math.fsum(map(math.log, numbers)) / len(numbers))
            text = f"arithmetic_mean = {am!r}\ngeometric_mean = {gm!r}\nholds = true\nequality = false\nPASS\n"
        else:
            quad = checks.tangent_line_margin(x)
            text = f"x = {x!r}: quadrature = {quad!r}, series = {quad!r}, |diff| = 0.000e+00\nPASS\n"
        return self._out("cli", argv, workloads.CliRun(0, text, ""))


def judged(workload, program):
    round_ = workload.make_round(random.Random(7))
    outcomes, _, _ = workloads.run_ops([(program, name, args, kwargs) for _, name, args, kwargs in round_.ops])
    return round_.judge(outcomes)


def once(target, change, when=lambda args: True):
    """A wrong() hook that changes one output of ``target``: the first where ``when(args)``."""
    seen = []

    def wrong(name, args, value):
        if name == target and when(args) and not seen:
            seen.append(args)
            return change(value)
        return value

    return wrong


PACKAGE = SimpleNamespace(
    series=None, inequalities=None, oracles=SimpleNamespace(QuadratureConfig=lambda panels: SimpleNamespace(panels=panels))
)
LIBRARY = workloads.LibraryEval(PACKAGE)
SWEEPS = workloads.InequalitySweeps(PACKAGE, seed=1)
QUADRATURE = workloads.OracleQuadrature(PACKAGE)
CLI = workloads.CliCommands(None, None)


def test_correct_outputs_pass_every_workload():
    for workload in (LIBRARY, SWEEPS, QUADRATURE, CLI):
        attempted, failed, _ = judged(workload, Program())
        assert attempted > 0 and failed == 0, workload.name


def test_log_off_by_1e_9_fails_one_operation():
    wrong = once("eval_log", lambda r: SimpleNamespace(**{**vars(r), "log_value": r.log_value + 1e-9}))
    assert judged(LIBRARY, Program(wrong))[1:] == (1, 1)


def test_trace_row_missing_telescoping_fails_one_operation():
    def bend(rows):
        k, u, term, s, d = rows[-1]
        return rows[:-1] + [(k, u, term, s, d * (1 + 1e-9))]

    assert not checks.trace_rows_ok(2.0, 3, bend(Program().trace(2.0, 3)))
    assert judged(LIBRARY, Program(once("trace", bend)))[1:] == (1, 1)


def test_sweep_report_with_one_violation_fails_one_draw():
    wrong = once("tangent_at", lambda r: SimpleNamespace(**{**vars(r), "violations": 1}))
    assert judged(SWEEPS, Program(wrong))[1] == 1


def test_quadrature_off_by_1e_6_fails():
    wrong = once("double_integral_residual", lambda v: v + 1e-6, when=lambda args: args[1] == 1024)
    # The bad rung fails its 1e-8 bound, and the rung below it its error ratio.
    assert judged(QUADRATURE, Program(wrong))[1] == 2


def test_cli_run_exiting_2_fails_one_operation():
    wrong = once("cli", lambda run: workloads.CliRun(2, run.stdout, run.stderr))
    assert judged(CLI, Program(wrong))[1] == 1


def test_known_faults_are_expected_failures():
    def fault(name, args, value):
        if name == "difference_quotient" and args == (2.0, 1100):
            return 0.0
        return value

    assert judged(LIBRARY, Program(fault))[1:] == (1, 0)
