"""Run one ``solarcast`` CLI command with the benchmark's tracer installed.

Usage: python3 perfbench/cli_shim.py <solarcast arguments...>

Environment: PERFBENCH_TRACE_OUT (span file written at exit),
PERFBENCH_RUN (run id), PERFBENCH_PARENT (id of the caller's span).
"""

import os
import sys

import tracing
from solarcast import cli


def main() -> int:
    tracer = tracing.Tracer(os.environ["PERFBENCH_RUN"], os.environ.get("PERFBENCH_PARENT"))
    tracing.install(tracer)
    code = cli.main(sys.argv[1:])
    tracer.dump(os.environ["PERFBENCH_TRACE_OUT"])
    return code


if __name__ == "__main__":
    sys.exit(main())
