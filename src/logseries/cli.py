"""Command-line front end: eval, trace, check, bench.

Exit codes: 0 success, 1 usage or domain error (or a reader that closed
the output pipe early), 2 numeric failure (non-convergence or a violated
check).  Delimited output is plain CSV with 17-significant-digit floats so
values round-trip exactly; comment lines start with '#' and appear only
before the header row.
"""

import argparse
import math
import os
import sys

from .inequalities import (
    DEFAULT_SEED,
    GAP_TOL,
    PAIR_TOL,
    amgm_check,
    concavity_check,
    sweep_amgm,
    sweep_concavity,
    sweep_tangent_at,
    sweep_tangent_line,
    tangent_line_gap,
)
from .oracles import QuadratureConfig, double_integral_residual
from .series import EvalConfig, eval_log, trace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

# `check integral` fails where |quadrature - series| exceeds max(INTEGRAL_TOL, INTEGRAL_REL_TOL * residual).
# The oracle states a relative error below 1e-12 at its default 1024 panels, and the closed-tail gap is
# within a few ulps of |x - 1| + |log x|, so the relative term is the oracle's bound; the absolute term
# covers x next to 1, where the gap's own rounding dominates the residual.
INTEGRAL_TOL = 1e-8
INTEGRAL_REL_TOL = 1e-12
INTEGRAL_GRID = (0.25, 0.5, 2.0, 5.0, 10.0)
CONSTANT_SCALES = (1e-6, 1e-3, 1.0, 7.0, 100.0)
CONSTANT_LENGTHS = range(1, 17)

# A bench point costs TIMING_BATCHES * TIMING_REPS + 1 evaluations, 40 to 70 ms, so the bound keeps
# `bench` near a minute (Python 3.11, one core of a shared x86-64 VM).
MAX_GRID_COUNT = 1000
TIMING_REPS = 1000
TIMING_BATCHES = 5
TIMING_NOTE = (
    f"# timing: perf_counter, one warm-up eval per point, median over {TIMING_BATCHES} batches "
    f"of {TIMING_REPS} evaluations, garbage collection off"
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for
    # numeric failures, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _print_fields(record) -> None:
    """One ``name = value`` line per field: bools as true/false, floats by _fmt."""
    for name, value in zip(record._fields, record):
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = _fmt(value)
        print(f"{name} = {value}")


def _parse_values(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"--values must be comma-separated numbers: {exc}") from None
    if not values:
        raise ValueError("--values must contain at least one number")
    return values


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--grid must look like lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"--grid must look like lo:hi:count with numeric fields, got {text!r}") from None
    for bound in (lo, hi):
        if not 0.0 < bound < math.inf:
            raise ValueError(f"--grid bounds must be positive and finite, got {bound!r}")
    if count < 1:
        raise ValueError(f"--grid count must be >= 1, got {count}")
    if count > MAX_GRID_COUNT:
        raise ValueError(f"--grid count must be at most {MAX_GRID_COUNT}, got {count}")
    # Spaced in log(x), so hi / lo may lie past the float range; a count of 1 keeps lo alone.  log rounds
    # by about |log x| * 2**-53, so on a narrower grid a point may fall past an endpoint: it is clamped.
    a, b = math.log(lo), math.log(hi)
    least, most = min(lo, hi), max(lo, hi)
    inner = (math.exp(a + (b - a) * i / (count - 1)) for i in range(1, count - 1))
    return [lo, *(min(max(x, least), most) for x in inner), hi][:count]


def _cmd_eval(args) -> int:
    config = EvalConfig(tol=args.tol, max_terms=args.max_terms)
    result = eval_log(args.x, config)
    _print_fields(result)
    return EXIT_OK if result.converged else EXIT_NUMERIC


def _cmd_trace(args) -> int:
    rows = trace(args.x, args.n)
    base = args.x - 1.0
    header = ("k", "u_k", "term_k", "partial_sum_k", "diff_quotient_k", "telescope_defect")
    table = [
        (str(r.k), _fmt(r.u), _fmt(r.term), _fmt(r.partial_sum), _fmt(r.diff_quotient),
         _fmt((r.partial_sum + r.diff_quotient) - base))
        for r in rows
    ]
    if args.format == "csv":
        print(",".join(header))
        for row in table:
            print(",".join(row))
    else:
        widths = [max(len(h), *(len(row[i]) for row in table)) for i, h in enumerate(header)]
        print("  ".join(h.rjust(widths[i]) for i, h in enumerate(header)))
        for row in table:
            print("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return EXIT_OK


def _verdict(failed: bool) -> int:
    """The exit status of a check whose FAIL lines, if any, are already printed."""
    if failed:
        return EXIT_NUMERIC
    print("PASS")
    return EXIT_OK


def _point_check(call: str, margin: float, tol: float, noun: str) -> int:
    """One margin that must not fall below -tol."""
    print(f"{call} = {_fmt(margin)}")
    failed = margin < -tol
    if failed:
        print(f"FAIL: {noun} below {format(-tol, 'g')}")
    return _verdict(failed)


def _sweeps_failed(*reports) -> bool:
    """Print each sweep's summary and first violation; whether any sweep failed."""
    for report in reports:
        print(
            f"{report.name}: checked={report.checked} min_margin={_fmt(report.min_margin)} "
            f"threshold={format(report.threshold, 'g')} violations={report.violations}"
        )
        if report.violations:
            args_, margin = report.first_violation
            print(f"FAIL: {report.name} at {args_!r} with margin {_fmt(margin)}")
    return any(report.violations for report in reports)


def _cmd_check_tangent(args) -> int:
    if args.x is not None:
        return _point_check(f"tangent_line_gap({_fmt(args.x)})", tangent_line_gap(args.x), GAP_TOL, "gap")
    return _verdict(_sweeps_failed(sweep_tangent_line(seed=args.seed), sweep_tangent_at(seed=args.seed)))


def _cmd_check_concavity(args) -> int:
    if args.values is not None:
        parsed = _parse_values(args.values)
        if len(parsed) != 3:
            raise ValueError("--values for concavity must be x,y,lambda")
        x, y, lam = parsed
        call = f"concavity_check({_fmt(x)}, {_fmt(y)}, {_fmt(lam)})"
        return _point_check(call, concavity_check(x, y, lam), PAIR_TOL, "margin")
    return _verdict(_sweeps_failed(sweep_concavity(seed=args.seed)))


def _cmd_check_amgm(args) -> int:
    if args.values is not None:
        report = amgm_check(_parse_values(args.values))
        _print_fields(report)
        if not report.holds:
            print("FAIL: geometric mean exceeds arithmetic mean beyond tolerance")
        return _verdict(not report.holds)
    failed = _sweeps_failed(sweep_amgm(seed=args.seed))
    misses = [(s, n) for s in CONSTANT_SCALES for n in CONSTANT_LENGTHS if not amgm_check([s] * n).equality]
    if misses and not failed:  # name the first miss only, and only after a passing sweep
        scale, length = misses[0]
        print(f"FAIL: constant vector [{_fmt(scale)}] * {length} not flagged as equality")
    print(f"constant_vectors: checked={len(CONSTANT_SCALES) * len(CONSTANT_LENGTHS)} equality_failures={len(misses)}")
    return _verdict(failed or bool(misses))


def _cmd_check_integral(args) -> int:
    config = QuadratureConfig(panels=args.panels)
    failed = False
    for x in INTEGRAL_GRID if args.x is None else (args.x,):
        quad = double_integral_residual(x, config)
        series_residual = tangent_line_gap(x)
        diff = abs(quad - series_residual)
        # The smaller value scales the bound, so a wrong side cannot widen it by reading large.
        tol = max(INTEGRAL_TOL, INTEGRAL_REL_TOL * min(quad, series_residual))
        print(
            f"x = {_fmt(x)}: quadrature = {_fmt(quad)}, series = {_fmt(series_residual)}, "
            f"|diff| = {format(diff, '.3e')}"
        )
        if diff > tol:
            print(f"FAIL: disagreement above {format(tol, 'g')}")
            failed = True
    return _verdict(failed)


def _cmd_bench(args) -> int:
    import statistics  # only bench needs these; the other commands start faster without them
    import timeit

    points = _parse_grid(args.grid)
    config = EvalConfig(tol=args.tol, max_terms=args.max_terms)
    rows = []
    all_converged = True
    for x in points:
        result = eval_log(x, config)
        ref = math.log(x)
        abs_error = abs(result.log_value - ref)
        rel_error = abs_error / max(1.0, abs(ref))
        # The eval above is the warm-up; a string statement times eval_log with no extra call frame.
        batches = timeit.repeat("eval_log(x, config)", number=TIMING_REPS, repeat=TIMING_BATCHES,
                                globals={"eval_log": eval_log, "x": x, "config": config})
        rows.append((x, result.terms_used, abs_error, rel_error, statistics.median(batches) / TIMING_REPS))
        all_converged = all_converged and result.converged
    max_abs = max(r[2] for r in rows)
    max_rel = max(r[3] for r in rows)
    median_terms = statistics.median(r[1] for r in rows)
    if args.format == "csv":
        print(TIMING_NOTE)
        print("row,x,terms_used,abs_error,rel_error,time_per_eval_s")
        for x, terms, abs_error, rel_error, per_eval in rows:
            print(f"point,{_fmt(x)},{terms},{_fmt(abs_error)},{_fmt(rel_error)},{_fmt(per_eval)}")
        print(f"summary,,{_fmt(median_terms)},{_fmt(max_abs)},{_fmt(max_rel)},")
    else:
        for x, terms, abs_error, rel_error, per_eval in rows:
            print(
                f"x = {_fmt(x)}: terms_used = {terms}, abs_error = {format(abs_error, '.3e')}, "
                f"rel_error = {format(rel_error, '.3e')}, time_per_eval = {format(per_eval, '.3e')} s"
            )
        print(
            f"summary: points = {len(rows)}, max_abs_error = {format(max_abs, '.3e')}, "
            f"max_rel_error = {format(max_rel, '.3e')}, median_terms = {_fmt(median_terms)}"
        )
    return EXIT_OK if all_converged else EXIT_NUMERIC


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="logseries",
        description="Natural logarithm via its square-root decrement series: evaluate, trace, check, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # Options shared by several commands, with the library's defaults.
    defaults = EvalConfig()
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--tol", type=float, default=defaults.tol,
                        help="stopping tolerance (default %(default)s)")
    config.add_argument("--max-terms", type=int, default=defaults.max_terms,
                        help="term budget (default %(default)s)")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sweep seed (default %(default)s)")

    p_eval = sub.add_parser("eval", parents=[config], help="approximate log(x) adaptively")
    p_eval.add_argument("--x", type=float, required=True, help="argument, a positive real")
    p_eval.set_defaults(func=_cmd_eval)

    p_trace = sub.add_parser("trace", help="per-step table of decrements, terms, and partial sums")
    p_trace.add_argument("--x", type=float, required=True, help="argument, a positive real")
    p_trace.add_argument("--n", type=int, required=True, help="last step index (>= 0)")
    p_trace.add_argument("--format", choices=("human", "csv"), default="human")
    p_trace.set_defaults(func=_cmd_trace)

    p_check = sub.add_parser("check", help="verify a logarithm inequality or the quadrature oracle")
    check_sub = p_check.add_subparsers(dest="subcheck", required=True, parser_class=_Parser)

    p_tan = check_sub.add_parser("tangent", parents=[seeded],
                                 help="log(x) <= x - 1 and the general tangent bound")
    p_tan.add_argument("--x", type=float, default=None, help="single point; omit for a randomized sweep")
    p_tan.set_defaults(func=_cmd_check_tangent)

    p_conc = check_sub.add_parser("concavity", parents=[seeded], help="chord never exceeds the curve")
    p_conc.add_argument("--values", default=None, help="x,y,lambda for a single check; omit for a sweep")
    p_conc.set_defaults(func=_cmd_check_concavity)

    p_amgm = check_sub.add_parser("amgm", parents=[seeded], help="arithmetic mean dominates geometric mean")
    p_amgm.add_argument("--values", default=None, help="comma-separated positive values; omit for a sweep")
    p_amgm.set_defaults(func=_cmd_check_amgm)

    p_int = check_sub.add_parser("integral", help="closed-tail x - 1 - log(x) vs Simpson quadrature")
    p_int.add_argument("--x", type=float, default=None, help="single point; omit for the default grid")
    p_int.add_argument("--panels", type=int, default=QuadratureConfig().panels,
                       help="Simpson panels per power-of-two piece (default %(default)s)")
    p_int.set_defaults(func=_cmd_check_integral)

    p_bench = sub.add_parser("bench", parents=[config], help="accuracy and timing over a log-spaced grid")
    p_bench.add_argument("--grid", required=True, help="lo:hi:count, log-spaced, endpoints inclusive")
    p_bench.add_argument("--format", choices=("human", "csv"), default="human")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"logseries: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    try:
        status = main()
        sys.stdout.flush()  # so a reader that went away shows here, not at exit
    except BrokenPipeError:
        # The reader closed the pipe (``logseries ... | head``).  Point stdout at
        # devnull so the flush at exit cannot raise again, and exit 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_USAGE
    raise SystemExit(status)
