"""Acceptance checklist: one test per contract criterion.

Each test prints a single "[criterion N] ... PASS/FAIL" line (run with
pytest -s to read the checklist) and then asserts its bound exactly as
stated, with no slack added, so a red line here is a real finding.

Criterion 4 is stated in the form binary64 can meet.  In real arithmetic
every term ratio 2**k u_{k+1}**2 / 2**(k-1) u_k**2 lies strictly below
1/2 for x > 1.  The exact map is u_{k+1} = (u_k / 2)(1 - u_k / 4 + ...),
so once u_k < eps = 2**-52 the relative shift u_k / 4 is below half an
ulp of u_k / 2, and even correctly rounded arithmetic returns
u_{k+1} = u_k / 2 exactly; the computed ratio is then exactly 1/2.  The
criterion therefore asserts the ratio is <= 1/2 at every k, strictly
below 1/2 wherever u_k >= 2**-50 (4 eps), exactly 1/2 wherever
u_k < 2**-52, and inside (1/2 - 1e-6, 1/2] at k = 45..55.  For u_k
between 2**-52 and 2**-50 the shift is within a few ulps of u_k / 2 and
rounding may land on either side, so only the <= 1/2 bound applies
there.  The naive chain fl(sqrt(r)) - 1 breaks the strict bound from
k = 26 for x = 2.
"""

import math
import pathlib
import random
import subprocess
import sys

from logseries.inequalities import (
    amgm_check,
    concavity_check,
    sweep_amgm,
    tangent_at,
    tangent_line_gap,
)
from logseries.oracles import QuadratureConfig, double_integral_residual
from logseries.series import EvalConfig, eval_log, trace

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _verdict(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def _run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "logseries", *argv], capture_output=True)


def test_criterion_1_telescoping_identity():
    rng = random.Random(42)
    worst = 0.0
    for _ in range(1000):
        x = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        rows = trace(x, 60)
        scale = max(1.0, abs(x - 1.0))
        for n in (1, 5, 10, 20, 40, 60):
            defect = abs(rows[n].partial_sum + rows[n].diff_quotient - (x - 1.0))
            worst = max(worst, defect / scale)
    ok = worst <= 1e-13
    detail = _verdict(1, "telescoping identity", ok, f"max scaled defect {worst:.3e}, bound 1e-13")
    assert ok, detail


def test_criterion_2_accuracy_against_reference():
    points = [1e-8 * (1e16 ** (i / 999.0)) for i in range(1000)]
    points[0], points[-1] = 1e-8, 1e8
    worst = 0.0
    all_converged = True
    for x in points:
        result = eval_log(x)
        all_converged = all_converged and result.converged
        ref = math.log(x)
        worst = max(worst, abs(result.log_value - ref) / max(1.0, abs(ref)))
    ok = all_converged and worst <= 1e-12
    detail = _verdict(
        2, "accuracy on [1e-8, 1e8]", ok,
        f"max scaled error {worst:.3e}, bound 1e-12, all converged {all_converged}",
    )
    assert ok, detail


def test_criterion_3_tail_constant():
    worst = 0.0
    for x in (0.5, 2.0, math.exp(2.0), 100.0):
        limit = 0.5 * math.log(x) ** 2
        ratio40 = trace(x, 40)[40].term * 2.0 ** 40
        worst = max(worst, abs(ratio40 - limit) / limit)
    ok = worst <= 1e-6
    detail = _verdict(3, "tail constant (log x)^2/2", ok, f"max relative deviation {worst:.3e}, bound 1e-6")
    assert ok, detail


STRICT_DECAY_FLOOR = 2.0 ** -50
SATURATION_CEILING = 2.0 ** -52


def test_criterion_4_geometric_decay():
    violations = []
    strict_through = {}
    onsets = {}
    for x in (2.0, 10.0, 100.0):
        rows = trace(x, 61)
        for k in range(1, 61):
            u = rows[k].u
            current = rows[k].term
            ratio = rows[k + 1].term / current if current else math.nan
            checks = [("<= 1/2", ratio <= 0.5)]
            if u >= STRICT_DECAY_FLOOR:
                strict_through[x] = k
                checks.append(("< 1/2", ratio < 0.5))
            if u < SATURATION_CEILING:
                checks.append(("== 1/2", ratio == 0.5))
            if 45 <= k <= 55:
                checks.append(("in (1/2 - 1e-6, 1/2]", 0.5 - 1e-6 < ratio <= 0.5))
            violations.extend((x, k, label, ratio) for label, held in checks if not held)
            if ratio == 0.5 and x not in onsets:
                onsets[x] = k
    # u_49 = 2**(2**-49) - 1 ~ 1.39 * 2**-50, so for x = 2 the strict
    # bound must be checked at every k <= 49; fewer means the chain is off.
    coverage_ok = strict_through.get(2.0) == 49
    ok = not violations and coverage_ok
    strict_text = ", ".join(f"x={x:g} k<={k}" for x, k in strict_through.items())
    onset_text = ", ".join(f"x={x:g} k={k}" for x, k in onsets.items())
    detail_text = (
        f"k=1..60: strict below 1/2 for u_k >= 2^-50 ({strict_text}), "
        f"saturation at exactly 1/2 from {onset_text}"
    )
    if violations:
        x, k, label, ratio = violations[0]
        detail_text += f"; {len(violations)} violations, first at x={x:g} k={k}: ratio={ratio!r} not {label}"
    detail = _verdict(4, "geometric decay, binary64 bound", ok, detail_text)
    assert ok, detail


def test_criterion_5_quadrature_agreement_and_order():
    worst = 0.0
    for x in (0.25, 0.5, 2.0, 5.0, 10.0):
        quad = double_integral_residual(x, QuadratureConfig(1024))
        series_residual = x - 1.0 - eval_log(x).log_value
        worst = max(worst, abs(quad - series_residual))
    agreement_ok = worst <= 1e-8
    # Order check against the libm residual: at 1024+ panels the
    # quadrature defect is already below the series evaluator's own
    # rounding floor, so the series residual cannot resolve the decay.
    ref = 2.0 - 1.0 - math.log(2.0)
    d1024 = abs(double_integral_residual(2.0, QuadratureConfig(1024)) - ref)
    d2048 = abs(double_integral_residual(2.0, QuadratureConfig(2048)) - ref)
    order_ratio = d1024 / d2048
    order_ok = order_ratio >= 3.5
    ok = agreement_ok and order_ok
    detail = _verdict(
        5, "double-integral oracle", ok,
        f"max disagreement {worst:.3e} (bound 1e-8), halving ratio {order_ratio:.2f} (bound 3.5)",
    )
    assert ok, detail


def test_criterion_6_inequality_suite():
    log_lo, log_hi = math.log(1e-6), math.log(100.0)
    rng = random.Random(42)
    min_gap = math.inf
    window_ok = True
    for _ in range(10000):
        x = math.exp(rng.uniform(log_lo, log_hi))
        gap = tangent_line_gap(x)
        min_gap = min(min_gap, gap)
        if gap <= 1e-12 and abs(x - 1.0) > 1e-6:
            window_ok = False
    rng = random.Random(42)
    min_tangent = math.inf
    for _ in range(10000):
        a = math.exp(rng.uniform(log_lo, log_hi))
        x = math.exp(rng.uniform(log_lo, log_hi))
        min_tangent = min(min_tangent, tangent_at(a, x))
    rng = random.Random(42)
    min_concavity = math.inf
    for _ in range(10000):
        x = math.exp(rng.uniform(log_lo, log_hi))
        y = math.exp(rng.uniform(log_lo, log_hi))
        lam = rng.uniform(0.0, 1.0)
        min_concavity = min(min_concavity, concavity_check(x, y, lam))
    amgm_report = sweep_amgm(count=1000, seed=42)
    constants_ok = all(
        amgm_check([scale] * length).equality
        for scale in (1e-6, 0.5, 1.0, 7.0, 100.0)
        for length in (1, 2, 3, 8, 16)
    )
    ok = (
        min_gap >= -1e-11
        and min_tangent >= -1e-11
        and min_concavity >= -1e-11
        and amgm_report.violations == 0
        and constants_ok
        and window_ok
    )
    detail = _verdict(
        6, "inequality suite", ok,
        f"min margins {min_gap:.3e}/{min_tangent:.3e}/{min_concavity:.3e} (bound -1e-11), "
        f"amgm violations {amgm_report.violations}, constants equality {constants_ok}, "
        f"equality window {window_ok}",
    )
    assert ok, detail


def test_criterion_7_term_count_scaling():
    tol = 1e-14
    worst = 0.0
    for x in (2.0, 10.0, 1e4, 1e-4):
        predicted = math.log2(math.log(x) ** 2 / (2.0 * tol))
        used = eval_log(x, EvalConfig(tol=tol)).terms_used
        worst = max(worst, abs(used - predicted))
    ok = worst <= 4.0
    detail = _verdict(7, "term-count scaling", ok, f"max |terms - predicted| {worst:.2f}, bound 4")
    assert ok, detail


def test_criterion_8_cli_contract():
    trace_golden = _run_cli("trace", "--x", "4", "--n", "2", "--format", "csv")
    amgm_golden = _run_cli("check", "amgm", "--values", "2,8")
    golden_ok = (
        trace_golden.stdout == (GOLDEN / "trace_x4_n2.csv").read_bytes()
        and amgm_golden.stdout == (GOLDEN / "check_amgm_2_8.txt").read_bytes()
    )
    matrix = [
        (("eval", "--x", "4"), 0),
        (("trace", "--x", "4", "--n", "2", "--format", "csv"), 0),
        (("check", "tangent", "--x", "1"), 0),
        (("check", "amgm", "--values", "2,8"), 0),
        (("bench", "--grid", "1:1:1", "--format", "csv"), 0),
        (("eval", "--x", "abc"), 1),
        (("eval", "--x", "-3"), 1),
        (("eval",), 1),
        (("trace", "--x", "4", "--n", "-1"), 1),
        (("nosuch",), 1),
        (("check", "amgm", "--values", ""), 1),
        (("check", "integral", "--x", "2", "--panels", "3"), 1),
        (("bench", "--grid", "1:2"), 1),
        (("eval", "--x", "2", "--tol", "1e-30"), 2),
        (("bench", "--grid", "2:2:1", "--tol", "1e-30", "--format", "csv"), 2),
    ]
    results = [(argv, expected, _run_cli(*argv).returncode) for argv, expected in matrix]
    mismatches = [entry for entry in results if entry[1] != entry[2]]
    ok = golden_ok and not mismatches
    detail = _verdict(
        8, "CLI contract", ok,
        f"goldens byte-match {golden_ok}, exit-code mismatches {mismatches or 'none'}",
    )
    assert ok, detail
