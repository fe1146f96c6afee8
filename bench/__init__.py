"""Host-clock benchmark for the repro package.

Measures how long the Python takes — serve, sweep, query — from outside
``src/`` by timing calls into each layer's public functions.  The
simulated clock has its own regression suite in ``benchmarks/``; nothing
here reads it except as an exact count.  See ``bench/README.md``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

# The driver runs `python3 -m bench ...` from a bare checkout without
# PYTHONPATH; the program under test is the tree's own src/.
if SRC.is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
