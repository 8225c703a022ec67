"""Traced stand-in for ``python -m psicalc``.

Usage: ``python cli_runner.py <psicalc arguments>`` with the package on
``PYTHONPATH``.  Imports ``psicalc.cli``, installs the benchmark's
wrappers, runs ``psicalc.cli.main(argv)`` and exits with its code.  The
counters, spans and import time go to stderr as one final line that
starts with ``tracer.TRACE_MARK``; stdout is the CLI's own.
"""

import json
import sys
import time

from tracer import TRACE_MARK, Tracer


def main() -> int:
    t0 = time.perf_counter()
    import psicalc.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    with tracer.installed():
        code = psicalc.cli.main(sys.argv[1:])
    sys.stdout.flush()
    data = tracer.to_dict()
    data["import_s"] = import_s
    print(TRACE_MARK + json.dumps(data, separators=(",", ":")), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
