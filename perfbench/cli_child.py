"""Run one qgalois CLI command under the span tracer or the call counter.

    python3 perfbench/cli_child.py trace|count SIDE_FILE CLI_ARGS...

The command's stdout and exit code are those of ``python -m qgalois
CLI_ARGS``.  The spans (trace) or the layer call counts (count) go to
SIDE_FILE as JSON.  The benchmark sets PYTHONPATH to the checkout's ``src``.
"""

import json
import sys
import time

from layers import IMPORT_SPAN, CallCounter, Tracer


def main() -> int:
    mode, side, *args = sys.argv[1:]
    start = time.perf_counter_ns()
    from qgalois import cli

    imported = time.perf_counter_ns()
    instrument = Tracer() if mode == "trace" else CallCounter()
    instrument.install()
    if mode == "trace":
        instrument.add_span(-1, IMPORT_SPAN, start, imported)
    else:
        instrument.start()
    try:
        rc = cli.main(args)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        if mode == "count":
            instrument.stop()
        instrument.uninstall()
        sys.stdout.flush()
    data = instrument.export() if mode == "trace" else instrument.counts()
    with open(side, "w") as f:
        json.dump(data, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
