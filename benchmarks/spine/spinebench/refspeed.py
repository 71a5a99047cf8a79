"""How fast the machine is right now, by a kernel that knows nothing of ``repro``.

The sandbox's cores lose up to 40 % of their speed (70 % for code that
misses the cache) to whatever else runs on the host, for half a second to
several minutes at a time.  CPU time equals wall time throughout and
``/proc/stat`` shows no steal: nothing the benchmark can read tells the
states apart, except how long known work takes.  So the three
single-process workloads time a fixed kernel right before, right after and
every 50 ms during every timed operation (``harness.Stopwatch``) and report
the operation's time *at reference speed*: its wall time divided by
``mean kernel reading / REFERENCE_MS``.  Over 18 s runs of identical code
on a noisy hour the plain median of a warm solve moved by 28 %, its fastest
repeat by 21 %, its median at reference speed by 6 %.

The kernel mixes what the matching code does: it allocates small sets into
a dict, sorts and unions them, then chases references across a heap of 20k
small objects (a few MB, built once).  An arithmetic loop slows less than
``repro`` does under contention, a 60k-object heap more.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Set, Tuple

#: the kernel's reading on the sandbox where the baselines were taken, with
#: the core to itself (5th percentile over ten minutes).  A constant, so
#: that a run that never sees a quiet machine is scaled like any other.
REFERENCE_MS = 2.40

_HEAP_OBJECTS = 20_000
_LOOKUPS = 3_000
_ALLOCATIONS = 1_500


class ReferenceKernel:
    def __init__(self) -> None:
        rng = random.Random(1)
        self._objects: List[Tuple[int, str, Dict[str, object]]] = [
            (i, str(i), {"a": i, "b": (i, i + 1)}) for i in range(_HEAP_OBJECTS)
        ]
        self._index: Dict[str, Set[int]] = {}
        for i, entry in enumerate(self._objects):
            self._index.setdefault(entry[1][:2], set()).add(i)
        self._order = [rng.randrange(_HEAP_OBJECTS) for _ in range(_LOOKUPS)]

    def read(self) -> float:
        """Run the kernel once; returns its milliseconds."""
        started = time.perf_counter()
        fresh = {(i, str(i)): {i, i + 1, i + 2} for i in range(_ALLOCATIONS)}
        union: Set[int] = set()
        for key in sorted(fresh, key=lambda pair: pair[1])[::3]:
            union |= fresh[key]
        total = len(union)
        objects, index = self._objects, self._index
        for position in self._order:
            entry = objects[position]
            total += entry[0] + len(entry[1]) + entry[2]["a"] + len(index[entry[1][:2]])
        return 1000.0 * (time.perf_counter() - started)

