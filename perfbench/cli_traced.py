"""Run one posiflag CLI command with the benchmark's layer tracing installed.

Usage: python3 perfbench/cli_traced.py <subcommand> [options...]

Behaves like `python -m posiflag.cli`, same arguments and exit code, and
writes the span summary and the spans as JSON to $PERFBENCH_TRACE_OUT,
stamping spans with op id $PERFBENCH_OP.
"""

import json
import os
import sys

import tracing


def main():
    import posiflag.cli

    tracer = tracing.Tracer()
    tracer.op = int(os.environ["PERFBENCH_OP"])
    tracer.install()
    try:
        posiflag.cli.main(args=sys.argv[1:], prog_name="posiflag")
    finally:
        tracer.uninstall()
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
            json.dump({"summary": tracer.summary(), "spans": tracer.spans}, fh)


if __name__ == "__main__":
    main()
