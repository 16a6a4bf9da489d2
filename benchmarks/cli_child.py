"""``lambertq`` CLI entry point with the layer wrappers installed.

    PYTHONPATH=src python3 benchmarks/cli_child.py eval qpoch --z 0.5 --q 0.99 --format json

Behaves like ``python -m lambertq.cli`` and, on exit, writes the per-layer
totals of this process as the last line of stderr, prefixed by
``spans.TRACE_MARK``.
"""

import json
import sys

from lambertq import cli, identities, qseries

import spans


def main():
    tracer = spans.Tracer()
    spans.install(tracer, identities, qseries, cli=cli)
    code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    tracer.restore()
    summary = spans.summary(tracer, identities)
    sys.stderr.write(spans.TRACE_MARK + json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
