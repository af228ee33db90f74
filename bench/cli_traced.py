"""Run one CLI command with spans on.

Usage: python3 bench/cli_traced.py <summary.json> <cli arguments...>

Installs the benchmark's wrappers in this fresh process, calls
``hugelschaffer.cli.main`` with the arguments, and writes the span summary
to ``<summary.json>`` however the command ends.
"""

from __future__ import annotations

import json
import os
import sys

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hugelschaffer import cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    raise SystemExit(main())
