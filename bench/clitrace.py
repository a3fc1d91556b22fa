"""Run one ``pcoh`` CLI command with the layer wrappers installed.

Usage: ``python bench/clitrace.py SPANS.json <pcoh arguments...>``.  Used by
traced runs of the ``cli`` workload; the spans go to SPANS.json and the exit
code is the command's own.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pcoh.cli  # noqa: E402  (loads every layer before wrapping)
from tracing import Tracer  # noqa: E402


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return pcoh.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
