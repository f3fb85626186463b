"""Traced `relcr check` child: installs the tracer, then runs relcr's CLI.

    python3 perfbench/traced_check.py SPANS_FILE check SCENARIO.json

The CLI's stdout and exit code are relcr's own; the spans and counters go to
SPANS_FILE.  The process starts cold, like an untraced `relcr check`.
"""

import os
import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    t0 = time.perf_counter()
    import relcr.cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.call("cli.main", relcr.cli.main, argv)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        tracer.dump(spans_path, {"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
