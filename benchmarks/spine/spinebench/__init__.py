"""The measurement spine: one benchmark, four workloads, one schema.

Entry points live one directory up (``run.py``, ``compare.py``); this
package holds the parts they share.  Importing it puts the repository's
``src/`` on ``sys.path`` so the benchmark runs from a bare checkout (the
package under test is never installed).
"""

from __future__ import annotations

import sys
from pathlib import Path

#: ``benchmarks/spine`` — the one directory BENCHMARK.json lists in ``paths``
SPINE_DIR = Path(__file__).resolve().parent.parent
#: the checkout root (``benchmarks/spine`` is two levels below it)
REPO_ROOT = SPINE_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))
