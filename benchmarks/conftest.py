"""Benchmark suite configuration.

Run with::

    pytest benchmarks/ --benchmark-only

Each bench regenerates one table or figure of the paper (see the module
docstrings and DESIGN.md's per-experiment index).  Result tables are written
to ``benchmarks/results/`` as a side effect.
"""

import sys
from pathlib import Path

# Make `harness` importable regardless of the pytest rootdir, and the
# repository root for the test-suite oracles some benches time
# (``tests.rtec.oracle``).
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(1, str(Path(__file__).parent.parent))
