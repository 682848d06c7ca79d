"""Traced stand-in for ``python -m sapsim``: install the benchmark's wrappers,
run ``sapsim.cli.main`` and write the spans and counters out.

    python bench/cli_entry.py SPANS_FILE OP_ID <sapsim arguments>
"""

import json
import sys

from tracer import Tracer


def main():
    spans_path, op, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import sapsim.cli
    tracer = Tracer()
    tracer.install()
    tracer.op = op
    try:
        return sapsim.cli.main(argv)
    finally:
        tracer.op = None
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
