"""Set-up probe: a fresh interpreter readies one workload, then says so.

Usage: python3 perfbench/setup_probe.py WORKLOAD [SEED]

It imports logseries and makes one warm-up call of each public function
the workload uses, then prints ``ready``.  The parent times the span from
starting this process to reading that line; that is one sample of
``setup_s``.  Only the package is imported before that line, so the
sample is the program's own start-up.

Given SEED, it then runs one round of the in-process workload on inputs
drawn from SEED; the timed loop checks the outputs, not this probe.  The
parent reads this process's peak resident memory: the program's own,
with none of the timing loop's bookkeeping.
"""

import io
import sys


def main(workload):
    if workload == "cli_commands":
        import contextlib

        import logseries.cli

        with contextlib.redirect_stdout(io.StringIO()):
            logseries.cli.main(["eval", "--x", "2"])
    else:
        import logseries

        if workload == "library_eval":
            logseries.eval_log(2.0)
            logseries.trace(2.0, 4)
            logseries.partial_sum(2.0, 4)
            logseries.difference_quotient(2.0, 4)
            logseries.tail_ratio(2.0, 4)
        elif workload == "inequality_sweeps":
            for sweep in (
                logseries.sweep_tangent_line,
                logseries.sweep_tangent_at,
                logseries.sweep_concavity,
                logseries.sweep_amgm,
            ):
                sweep(count=1)
            logseries.amgm_check([1.0, 1.0])
        elif workload == "oracle_quadrature":
            logseries.double_integral_residual(2.0, logseries.QuadratureConfig(panels=64))
        else:
            raise SystemExit(f"unknown workload {workload!r}")
    print("ready", flush=True)
    return logseries


def run_round(workload, package, seed):
    import random

    import workloads

    round_ = workloads.make(workload, package, seed).make_round(random.Random(seed))
    workloads.run_ops(round_.ops)


if __name__ == "__main__":
    package = main(sys.argv[1])
    if len(sys.argv) > 2:
        run_round(sys.argv[1], package, int(sys.argv[2]))
