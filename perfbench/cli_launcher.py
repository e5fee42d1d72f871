"""Traced stand-in for ``python -m logseries``.

Usage: python3 perfbench/cli_launcher.py ARGS...

It installs the benchmark's span wrappers, calls ``logseries.cli.main``
with ARGS, and exits with its code, as ``python -m logseries`` does.
After the command's own output it writes one line to stderr,
``SPANS <json>``, holding the spans the process recorded.
"""

import json
import sys

from tracer import Tracer


def main(argv):
    import logseries.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = logseries.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        print("SPANS " + json.dumps(tracer.spans), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
