"""Benchmark harness configuration.

Each benchmark regenerates one table or figure of the paper's evaluation,
prints the same rows/series the paper reports, and asserts the qualitative
shape (who wins, by roughly what factor, where crossovers fall).  Absolute
values are recorded in EXPERIMENTS.md.

Run with::

    pytest benchmarks/ --benchmark-only
"""

import sys
from pathlib import Path

# The speed harnesses time each fast path against its oracle in tests/oracles.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
