"""The layer pass of a traced run: one metric set per module, from spans.

Every traced run ends with this pass, whatever its workload, so each
traced run reports every per-layer metric.  The pass draws its inputs
from the run's seed, calls each layer's public functions through the
span wrappers, and checks every output it gets back; a wrong output makes
the run's ``correct`` false.
"""

import math
import re
import statistics
import subprocess
import sys
import tracemalloc

import checks
import workloads
from tracer import Tracer, durations, summarize

EVALS_PER_RANGE = 1000
HELPER_CALLS = 100
BATCH_CALLS = 20000
BATCHES = 5
CLI_ROUNDS = 2
IMPORT_SAMPLES = 3


def _median_us(values):
    return statistics.median(values) * 1e6


def _series(package, tracer, rng, put):
    series = package.series
    ok = True
    xs = [workloads.log_uniform(rng, lo, hi) for lo, hi in workloads.EVAL_RANGES for _ in range(EVALS_PER_RANGE)]
    with tracer.span("bench.series.eval_log") as group:
        results = [series.eval_log(x) for x in xs]
    spans = durations(tracer.spans, "series.eval_log", {group.index})
    paths = {"seeded": [], "exact_start": [], "large": []}
    worst = 0.0
    for x, result, seconds in zip(xs, results, spans):
        paths["seeded" if x < 0.5 else "exact_start" if x <= 2.0 else "large"].append(seconds)
        worst = max(worst, abs(result.log_value - math.log(x)) / max(1.0, abs(math.log(x))))
        ok &= checks.eval_ok(x, result)
    put("series.eval_log_us", _median_us(spans), "us")
    for path, values in paths.items():
        put(f"series.eval_log_{path}_us", _median_us(values), "us")
    full_range = results[:EVALS_PER_RANGE]
    put("series.terms_per_eval", statistics.median(r.terms_used for r in full_range), "count")
    put("series.max_scaled_err", worst, "ratio")

    for helper in workloads.HELPERS:
        args = [
            (workloads.log_uniform(rng, *workloads.HELPER_RANGE), rng.randint(1, workloads.HELPER_MAX_N))
            for _ in range(HELPER_CALLS)
        ]
        fn = getattr(series, helper)
        with tracer.span(f"bench.series.{helper}") as group:
            outs = [fn(*a) for a in args]
        ok &= all(workloads.LIBRARY_CHECKS[helper](*a, out) for a, out in zip(args, outs))
        put(f"series.{helper}_us", _median_us(durations(tracer.spans, f"series.{helper}", {group.index})), "us")

    # Calls of about a microsecond are timed in batches: a span per call
    # would time the wrapper as much as the call.
    us = [rng.uniform(-0.5, 1.0) for _ in range(1000)]
    vs = [workloads.log_uniform(rng, 1e-8, 1e8) for _ in range(1000)]
    for metric, fn, inputs in (
        ("series.decrement_step_ns", series.decrement_step, us),
        ("series.validate_ns", series.PositiveInput, vs),
    ):
        batch = inputs * (BATCH_CALLS // len(inputs))
        for _ in range(BATCHES):
            with tracer.span(metric):
                for value in batch:
                    fn(value)
        put(metric, statistics.median(durations(tracer.spans, metric)) / len(batch) * 1e9, "ns")
    return ok


def _inequalities(package, tracer, seed, put):
    ineq = package.inequalities
    ok = True
    sweeps = set()
    for name, count in workloads.SWEEPS:
        index = len(tracer.spans)  # the sweep's own span opens first
        report = getattr(ineq, name)(count=count, seed=seed)
        ok &= checks.sweep_failures(count, report) == 0
        sweeps.add(index)
        start, end = tracer.spans[index][1:3]
        put(f"inequalities.{name.removeprefix('sweep_')}_sweep_s", (end - start) / 1e9, "s")
    # Each span's top-level ancestor; a parent always has the lower index.
    roots = []
    for i, (_, _, _, parent) in enumerate(tracer.spans):
        roots.append(i if parent < 0 else roots[parent])
    series_s = 0.0
    calls = 0
    for i, (name, start, end, _) in enumerate(tracer.spans):
        if roots[i] in sweeps and name.startswith("series."):
            series_s += (end - start) / 1e9
            calls += name == "series.eval_log"
    total_s = sum((tracer.spans[i][2] - tracer.spans[i][1]) / 1e9 for i in sweeps)
    put("inequalities.self_s", total_s - series_s, "s")
    put("inequalities.eval_log_calls", calls, "count")
    put("inequalities.series_share", series_s / total_s, "ratio")
    put("inequalities.series_share_base_s", total_s, "s")
    return ok


def _oracles(package, tracer, rng, put):
    oracles = package.oracles
    x = workloads.log_uniform(rng, *workloads.QUAD_RANGE)
    with tracer.span("bench.oracles.ladder") as group:
        values = [oracles.double_integral_residual(x, oracles.QuadratureConfig(panels=p)) for p in workloads.QUAD_PANELS]
    seconds = durations(tracer.spans, "oracles.double_integral_residual", {group.index})
    nodes = sum((p + 1) ** 2 for p in workloads.QUAD_PANELS)
    put("oracles.residual_ms", seconds[workloads.QUAD_PANELS.index(1024)] * 1e3, "ms")
    put("oracles.nodes_per_s", nodes / sum(seconds), "1/s")
    top = oracles.QuadratureConfig(panels=workloads.QUAD_PANELS[-1])
    tracemalloc.start()
    try:
        oracles.double_integral_residual(x, top)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    put("oracles.peak_alloc_mb", peak / 1e6, "MB")
    return all(checks.quadrature_errors_ok(x, list(zip(workloads.QUAD_PANELS, values))))


CLI_KINDS = {
    "cli.eval_ms": ("eval",),
    "cli.trace_ms": ("trace",),
    "cli.check_point_ms": ("check_tangent", "check_concavity", "check_amgm"),
    "cli.check_integral_ms": ("check_integral",),
}


def _cli(runner, rng, put):
    ok = True
    main_ms = {}
    runner.traced = True
    runner.spans.clear()
    try:
        for _ in range(CLI_ROUNDS):
            for kind, argv, args in workloads.cli_commands(rng):
                run = runner.run(argv)
                ok &= checks.cli_ok(kind, args, run)
                main = durations(runner.spans[-1], "cli.main", {-1})
                ok &= len(main) == 1
                main_ms.setdefault(kind, []).extend(m * 1e3 for m in main)
    finally:
        runner.traced = False
    for metric, kinds in CLI_KINDS.items():
        put(metric, statistics.median(v for k in kinds for v in main_ms.get(k, [math.nan])), "ms")
    put("cli.main_ms", statistics.median(v for values in main_ms.values() for v in values), "ms")
    return ok


IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)")


def _import_times(root, env, put):
    """Cumulative import time per module, from ``python -X importtime``."""
    samples = {}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import logseries.cli"],
            cwd=root, env=env, capture_output=True, text=True, check=True,
        )
        for line in proc.stderr.splitlines():
            match = IMPORT_LINE.match(line)
            if match and match.group(2).startswith("logseries."):
                samples.setdefault(match.group(2), []).append(int(match.group(1)) / 1e3)
    for layer in ("series", "inequalities", "oracles", "cli"):
        put(f"{layer}.import_ms", statistics.median(samples[f"logseries.{layer}"]), "ms")


def layer_metrics(package, runner, root, env, seed, rng):
    """Run the layer pass; return (metrics, every output correct, span summary)."""
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    tracer = Tracer()
    tracer.install()
    try:
        ok = _series(package, tracer, rng, put)
        ok &= _inequalities(package, tracer, seed, put)
        ok &= _oracles(package, tracer, rng, put)
    finally:
        tracer.uninstall()
    ok &= _cli(runner, rng, put)
    _import_times(root, env, put)
    return metrics, ok, summarize([tracer.spans, *runner.spans])
