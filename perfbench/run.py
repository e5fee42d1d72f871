"""Benchmark of logseries, end to end and per module.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It runs the package from ``src/`` of that checkout and refuses to run
without it.  One process, one client, closed loop: each operation starts
when the previous one has returned.  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics ``ops_per_s``,
``setup_s`` and ``peak_rss_mb``; with ``--trace 1`` it holds the
per-layer metrics instead (see README.md).  A copy of the result, and
for traced runs a span summary, is written under ``.perfbench_out/``.
"""

import argparse
import json
import os
import pathlib
import random
import statistics
import subprocess
import sys
import time

import layers
import reference
import tracer as tracing
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("library_eval", "inequality_sweeps", "cli_commands", "oracle_quadrature")
SETUP_SAMPLES = 9

# numpy's BLAS otherwise starts one thread per core at import, which
# costs CPU in every CLI child and makes start-up times noisy.
PROGRAM_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _program_env():
    env = dict(os.environ, **PROGRAM_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def _import_program():
    """Import logseries from this checkout's src/, and nowhere else."""
    if not (SRC / "logseries" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'logseries'}; run from a source checkout")
    os.environ.update(PROGRAM_ENV)
    sys.path.insert(0, str(SRC))
    import logseries
    import logseries.oracles  # noqa: F401  (submodules the workloads address directly)

    if pathlib.Path(logseries.__file__).resolve().parent != SRC / "logseries":
        raise SystemExit(f"perfbench: imported logseries from {logseries.__file__}, not from {SRC}")
    return logseries


def measure_setup(workload, env, seed):
    """Set-up time, and the peak memory of one round run in a fresh process.

    Set-up is the median time from starting a fresh interpreter to the
    workload being ready.  Each probe sits between two bare interpreter
    starts, and its time is reported in units of their mean, scaled to a
    quiet host (reference.py).  For an in-process workload the last probe
    then runs one round, and its peak resident memory is returned (else
    None).
    """
    yardstick = reference.process_yardstick(ROOT, env)
    samples = []
    peak_mb = None
    before = yardstick.measure()
    for i in range(SETUP_SAMPLES):
        probe = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload]
        last = i == SETUP_SAMPLES - 1 and workload != "cli_commands"
        if last:
            probe.append(str(seed))
        start = time.perf_counter()
        with subprocess.Popen(probe, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = code = os.waitstatus_to_exitcode(status)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up probe for {workload} failed (exit {code})")
        after = yardstick.measure()
        samples.append((ready - start) * 2.0 * yardstick.nominal_s / (before + after))
        before = after
        if last:
            peak_mb = usage.ru_maxrss * 1024 / 1e6
    return statistics.median(samples), peak_mb


def timed_loop(workload, rng, seconds, tracer=None, runner=None):
    """Whole rounds until ``seconds`` have passed; ops/s by mode.

    A round's calls sit in fixed slots (the same function, fresh inputs).
    The rate is one round's operations over the sum, across slots, of each
    slot's median time over the run's rounds, in reference seconds (see
    reference.py): a median round, robust to the host's bursts.  The
    median wall-clock rate of whole rounds is returned beside it.
    Without a tracer every round is untraced.  With one, rounds alternate
    untraced and traced, so both modes see the same stretch of host time,
    and the loop ends after a traced round.
    """
    scaled = {False: [], True: []}
    wall = {False: [], True: []}
    attempted = failed = unexpected = 0
    deadline = time.perf_counter() + seconds
    traced = False
    while True:
        round_ = workload.make_round(rng)
        if traced:
            tracer.install()
            runner.traced = True
        try:
            outcomes, op_times, wall_s = workloads.run_ops(round_.ops, workload.yardstick)
        finally:
            if traced:
                tracer.uninstall()
                runner.traced = False
        per_round, bad, odd = round_.judge(outcomes)
        attempted += per_round
        failed += bad
        unexpected += odd
        scaled[traced].append(op_times)
        wall[traced].append(per_round / wall_s)
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break
        traced = tracer is not None and not traced
    rates = {
        mode: per_round / sum(statistics.median(slot) for slot in zip(*rounds))
        for mode, rounds in scaled.items()
        if rounds
    }
    wall_rates = {mode: statistics.median(v) for mode, v in wall.items() if v}
    return rates, wall_rates, attempted, failed, unexpected


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    package = _import_program()
    env = _program_env()
    rng = random.Random(args.seed)
    runner = workloads.CliRunner(ROOT, env)
    workload = workloads.make(args.workload, package, args.seed, runner, reference.process_yardstick(ROOT, env))

    if args.trace:
        tracer = tracing.Tracer()
        rates, wall_rates, attempted, failed, unexpected = timed_loop(workload, rng, args.seconds, tracer, runner)
        loop_summary = tracing.summarize([tracer.spans, *runner.spans])
        tracer.spans.clear()
        metrics, layers_ok, layer_summary = layers.layer_metrics(package, runner, ROOT, env, args.seed, rng)
        plain, traced = rates[False], rates[True]
        metrics["trace.untraced_ops_per_s"] = {"value": plain, "unit": "ops/s"}
        metrics["trace.ops_per_s"] = {"value": traced, "unit": "ops/s"}
        metrics["trace.overhead"] = {"value": 1.0 - traced / plain, "unit": "ratio"}
        metrics["trace.wall_ops_per_s"] = {"value": wall_rates[False], "unit": "ops/s"}
        trace_out = {"workload_loop": loop_summary, "layer_pass": layer_summary}
    else:
        setup, probe_peak_mb = measure_setup(args.workload, env, args.seed)
        rates, _, attempted, failed, unexpected = timed_loop(workload, rng, args.seconds)
        peak_mb = runner.peak_kb * 1024 / 1e6 if args.workload == "cli_commands" else probe_peak_mb
        metrics = {
            "ops_per_s": {"value": rates[False], "unit": "ops/s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        layers_ok = True
        trace_out = None

    # Failed operations are counted, not hidden; `correct` is false when
    # an output is wrong outside the known faults of the edge set.
    correct = layers_ok and unexpected == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.result.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace_out is not None:
        (OUT / f"{stem}.trace.json").write_text(json.dumps(trace_out, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
