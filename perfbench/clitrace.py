"""Run ``octoterm.cli`` with span tracing, for the traced ``cli`` workload.

    python3 perfbench/clitrace.py LAYERS.json REQUEST_ID <octoterm arguments...>

Behaves like ``python -m octoterm.cli <arguments>`` (same output, same exit
code) and writes the per-layer counts and spans of the call to LAYERS.json.
"""

import json
import sys

import spans


def main() -> int:
    out_path, request = sys.argv[1], sys.argv[2]
    tracer = spans.install()
    import octoterm.cli

    tracer.request = request
    tracer.active = True
    try:
        code = octoterm.cli.main(sys.argv[3:])
    finally:
        tracer.active = False
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.take(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
