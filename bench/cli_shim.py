"""Run the disclose-eq CLI with the tracer installed (the cli workload's traced run).

    python3 bench/cli_shim.py SUMMARY.json SPANS.tsv <cli arguments>

Behaves like `python3 -m disclose_eq <cli arguments>` and afterwards
writes the tracer's per-layer summary and raw spans.
"""
import json
import sys

import tracer as tracing

if __name__ == "__main__":
    summary_path, spans_path, *argv = sys.argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from disclose_eq.cli import main

    try:
        code = main(argv)
    finally:
        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(), fh)
        tracer.write_spans(spans_path)
    sys.exit(code)
