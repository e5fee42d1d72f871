"""Checkers for the benchmark: each one judges one program output.

Every reference here is computed apart from the program, from libm
(``math.log``, ``math.expm1``, ``math.fsum``) or from a property the
method must have.  Nothing is compared against a saved copy of earlier
output.  A checker returns True when the output is correct; the caller
counts a False as one failed operation.  This module does not import
``logseries``, so the self-tests can feed it hand-made wrong values.
"""

import math
from types import SimpleNamespace

LOG_TOL = 1e-12  # eval_log: |log_value - log x| <= LOG_TOL * max(1, |log x|)
CHAIN_TOL = 1e-12  # relative, for u_k, S_n, D_n and tail ratios at n <= 60
QUAD_TOL = 1e-8  # quadrature against x - 1 - log x at 1024 panels and up
QUAD_RATIO = (14.0, 18.0)  # Simpson error ratio per panel halving, ideally 16
QUAD_RATIO_FLOOR = 1e-12  # error ratios are judged only above this error
MARGIN_TOL = 1e-11  # recomputed sweep / CLI margins, scaled by the log sizes
GAP_TOL = 1e-12  # the program's tangent-line threshold
PAIR_TOL = 1e-11  # the program's two- and three-evaluation threshold
EQUALITY_TOL = 1e-12  # the program's AM-GM relative slack


def _close(value, ref, scale):
    return math.isfinite(value) and abs(value - ref) <= scale


def refused(outcome) -> bool:
    """The documented refusal of an input outside the domain."""
    return isinstance(outcome, ValueError)


def eval_ok(x, outcome) -> bool:
    """An ``eval_log`` result: accurate log, residual >= 0, identity holds.

    ``outcome`` is the returned record or the exception raised.  A
    ``ValueError`` is accepted: it is the documented refusal.  For an int
    beyond the float range no finite record can be correct, so only the
    refusal passes.
    """
    if refused(outcome):
        return True
    if isinstance(outcome, BaseException):
        return False
    try:
        xf = float(x)
    except OverflowError:
        return False
    log_x = math.log(xf)
    value, residual = outcome.log_value, outcome.residual
    if not (outcome.converged and math.isfinite(residual) and residual >= 0.0):
        return False
    if not _close(value, log_x, LOG_TOL * max(1.0, abs(log_x))):
        return False
    scale = LOG_TOL * max(1.0, abs(xf - 1.0), abs(value), residual)
    return _close(value + residual, xf - 1.0, scale)


def _scaled_expm1_factor(y):
    """expm1(y) / y, with y = log(x) / 2**n possibly underflowed to 0."""
    if abs(y) < 1e-8:
        return 1.0 + y / 2.0 + y * y / 6.0
    return math.expm1(y) / y


def ref_decrement(log_x, k):
    """u_k = x**(2**-k) - 1 = expm1(log x / 2**k)."""
    return math.expm1(math.ldexp(log_x, -k))


def ref_quotient(log_x, n):
    """D_n = 2**n * expm1(log x / 2**n), exact even when 2**-n underflows."""
    return log_x * _scaled_expm1_factor(math.ldexp(log_x, -n))


def ref_tail_ratio(log_x, k):
    """2**k * term_k = 2**(2k-1) * u_k**2 = (log x)**2 / 2 * factor**2."""
    factor = _scaled_expm1_factor(math.ldexp(log_x, -k))
    return log_x * log_x / 2.0 * factor * factor


def ref_partial_sums(log_x, n):
    """[S_0, ..., S_n], each an fsum of 2**(k-1) * expm1(log x / 2**k)**2."""
    terms = [math.ldexp(ref_decrement(log_x, k) ** 2, k - 1) for k in range(1, n + 1)]
    return [math.fsum(terms[:k]) for k in range(n + 1)]


def _rel_close(value, ref, log_x):
    return _close(value, ref, CHAIN_TOL * max(1.0, abs(log_x)) * abs(ref) + 1e-300)


def partial_sum_ok(x, n, outcome) -> bool:
    if isinstance(outcome, BaseException):
        return False
    log_x = math.log(x)
    return _rel_close(outcome, ref_partial_sums(log_x, n)[n], log_x)


def difference_quotient_ok(x, n, outcome) -> bool:
    if refused(outcome):
        return True
    if isinstance(outcome, BaseException):
        return False
    log_x = math.log(x)
    return _rel_close(outcome, ref_quotient(log_x, n), log_x)


def tail_ratio_ok(x, k, outcome) -> bool:
    if refused(outcome):
        return True
    if isinstance(outcome, BaseException):
        return False
    log_x = math.log(x)
    return _rel_close(outcome, ref_tail_ratio(log_x, k), log_x)


def trace_rows_ok(x, n, rows) -> bool:
    """Rows (k, u_k, term_k, S_k, D_k): each against libm, and S_k + D_k = x - 1."""
    if isinstance(rows, BaseException) or len(rows) != n + 1:
        return False
    log_x = math.log(x)
    sums = ref_partial_sums(log_x, n)
    for k, (kk, u, term, s, d) in enumerate(rows):
        if kk != k or not _rel_close(u, ref_decrement(log_x, k), log_x):
            return False
        if k and not _rel_close(term, math.ldexp(u * u, k - 1), log_x):
            return False
        if not _rel_close(s, sums[k], log_x) or not _rel_close(d, ref_quotient(log_x, k), log_x):
            return False
        scale = CHAIN_TOL * max(1.0, abs(x - 1.0), s, abs(d))
        if not _close(s + d, x - 1.0, scale):
            return False
    return True


def tangent_line_margin(x):
    return x - 1.0 - math.log(x)


def tangent_at_margin(a, x):
    return math.log(a) + (x - a) / a - math.log(x)


def concavity_margin(x, y, lam):
    mix = lam * x + (1.0 - lam) * y
    return math.log(mix) - (lam * math.log(x) + (1.0 - lam) * math.log(y))


def amgm_margin(values):
    am = math.fsum(values) / len(values)
    gm = math.exp(math.fsum(math.log(v) for v in values) / len(values))
    return (am - gm) / am


def _size(*values):
    """1 + the sizes that rounding in a margin scales with."""
    return 1.0 + sum(abs(v) for v in values)


# name -> (libm margin, rounding scale of that margin for the same inputs)
SWEEP_MARGINS = {
    "tangent_line_gap": (tangent_line_margin, lambda x: _size(x, math.log(x))),
    "tangent_at": (tangent_at_margin, lambda a, x: _size(math.log(a), math.log(x), x / a)),
    "concavity_check": (
        concavity_margin,
        lambda x, y, lam: _size(math.log(x), math.log(y), math.log(lam * x + (1.0 - lam) * y)),
    ),
    "amgm_check": (amgm_margin, lambda values: _size(max(abs(math.log(v)) for v in values))),
}


def sweep_failures(count, report) -> int:
    """Failed draws of one sweep of ``count`` draws.

    Each violation is one failed draw, and a sweep that raised failed all
    of them.  The worst input's margin is recomputed with libm; if it
    disagrees with the reported minimum, the report itself is wrong and
    one more draw is counted as failed.
    """
    if isinstance(report, BaseException):
        return count
    failed = report.violations
    margin, size = SWEEP_MARGINS[report.name]
    worst = report.worst_input
    if not worst or not _close(report.min_margin, margin(*worst), MARGIN_TOL * size(*worst)):
        failed += 1
    return min(failed, count)


def constant_amgm_ok(scale, length, outcome) -> bool:
    """amgm_check([scale] * length): both means equal scale, equality flagged."""
    if isinstance(outcome, BaseException):
        return False
    window = EQUALITY_TOL * scale
    return (
        outcome.holds
        and outcome.equality
        and _close(outcome.arithmetic_mean, scale, window)
        and _close(outcome.geometric_mean, scale, window)
    )


def quadrature_errors_ok(x, ladder) -> list:
    """Per rung of a panel ladder [(panels, value), ...] in increasing order.

    At 1024 panels and up the value must be within QUAD_TOL of
    x - 1 - log x.  Every rung whose next finer neighbour still has an
    error well above rounding must show an error ratio inside QUAD_RATIO,
    the fourth-order signature of composite Simpson.
    """
    ref = tangent_line_margin(x)
    errors = [None if isinstance(v, BaseException) else v - ref for _, v in ladder]
    verdicts = []
    for i, (panels, _) in enumerate(ladder):
        err = errors[i]
        ok = err is not None and math.isfinite(err)
        if ok and panels >= 1024:
            ok = abs(err) <= QUAD_TOL
        if ok and i + 1 < len(ladder):
            finer = errors[i + 1]
            if finer is not None and abs(finer) > QUAD_RATIO_FLOOR:
                ratio = err / finer
                ok = QUAD_RATIO[0] <= ratio <= QUAD_RATIO[1]
        verdicts.append(ok)
    return verdicts


# --- CLI output ------------------------------------------------------------


def _fields(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            out[key.strip()] = value.strip()
    return out


def _passed(run) -> bool:
    lines = run.stdout.splitlines()
    return bool(lines) and lines[-1] == "PASS"


def cli_ok(kind, args, run) -> bool:
    """One CLI process: exit code 0, and its stdout parsed and checked.

    ``run`` carries ``returncode`` and ``stdout`` (text).  ``args`` are
    the numeric inputs the command was given.
    """
    if run.returncode != 0:
        return False
    try:
        return _CLI_CHECKS[kind](args, run)
    except (ValueError, KeyError, IndexError):
        return False


def _cli_eval(args, run):
    f = _fields(run.stdout)
    result = SimpleNamespace(
        log_value=float(f["log_value"]), residual=float(f["residual"]), converged=f["converged"] == "true"
    )
    return eval_ok(args[0], result)


def _cli_trace(args, run):
    x, n = args
    lines = run.stdout.splitlines()
    if lines[0] != "k,u_k,term_k,partial_sum_k,diff_quotient_k,telescope_defect":
        return False
    rows = []
    for line in lines[1:]:
        k, u, term, s, d, _defect = line.split(",")
        rows.append((int(k), float(u), float(term), float(s), float(d)))
    return trace_rows_ok(x, n, rows)


def _cli_tangent(args, run):
    (x,) = args
    gap = float(run.stdout.splitlines()[0].rpartition(" = ")[2])
    margin, size = SWEEP_MARGINS["tangent_line_gap"]
    return _passed(run) and gap >= -GAP_TOL and _close(gap, margin(x), MARGIN_TOL * size(x))


def _cli_concavity(args, run):
    margin = float(run.stdout.splitlines()[0].rpartition(" = ")[2])
    ref, size = SWEEP_MARGINS["concavity_check"]
    return _passed(run) and margin >= -PAIR_TOL and _close(margin, ref(*args), MARGIN_TOL * size(*args))


def _cli_amgm(args, run):
    f = _fields(run.stdout)
    am, gm = float(f["arithmetic_mean"]), float(f["geometric_mean"])
    ref_am = math.fsum(args) / len(args)
    ref_gm = math.exp(math.fsum(math.log(v) for v in args) / len(args))
    return (
        _passed(run)
        and f["holds"] == "true"
        and gm <= am * (1.0 + EQUALITY_TOL)
        and _close(am, ref_am, LOG_TOL * ref_am)
        and _close(gm, ref_gm, MARGIN_TOL * ref_gm)
    )


def _cli_integral(args, run):
    (x,) = args
    line = run.stdout.splitlines()[0]
    quad = float(line.split("quadrature = ")[1].split(",")[0])
    return _passed(run) and _close(quad, tangent_line_margin(x), QUAD_TOL)


_CLI_CHECKS = {
    "eval": _cli_eval,
    "trace": _cli_trace,
    "check_tangent": _cli_tangent,
    "check_concavity": _cli_concavity,
    "check_amgm": _cli_amgm,
    "check_integral": _cli_integral,
}
