"""One traced `cycloper` CLI invocation, for the traced run of `cli`.

    python3 perfbench/cli_child.py TRACE_OUT PROBLEM_ID <cycloper arguments>

Behaves like `python -m cycloper <arguments>` (same stdout and exit code)
and writes the invocation's counters and spans to TRACE_OUT.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    out_path, problem_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, str(HERE))
    from tracing import Tracer

    t = time.perf_counter_ns()
    import cycloper.cli as cli

    import_ns = time.perf_counter_ns() - t
    tracer = Tracer()
    tracer.install()
    tracer.seconds["cli.import_s"] += import_ns
    tracer.problem = problem_id
    try:
        code = cli.main(argv)
    finally:
        tracer.dump(out_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
