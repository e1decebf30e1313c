"""Traced CLI entry: ``preplay.cli:main`` with spans around every layer.

The benchmark's traced run starts this instead of the plain entry point and
reads the spans back from the file named by ``BENCH_SPANS``.
"""

import os

import preplay.cli
from spans import Tracer, instrument

if __name__ == "__main__":
    tracer = Tracer()
    try:
        with instrument(tracer):
            preplay.cli.main()
    finally:
        tracer.dump(os.environ["BENCH_SPANS"])
