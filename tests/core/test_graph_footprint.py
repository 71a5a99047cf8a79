"""Memory guard for the dict ``Graph``: two rows per node, not six indexes.

A ``Graph`` holds every triple twice, once in its subject's forward row and
once in its object's backward row.  Its copy is measured against the
``GraphSnapshot`` of the same graph under ``tracemalloc``, so the bound is a
ratio and holds across interpreter versions.  With six indexes per triple
the ratio was ~8.7 on the ``batch_cold`` graph (6,912 entities) and ~9.3
on the graph below; with the two rows it is ~4.5 and ~4.8.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.datasets.synthetic import synthetic_dataset
from repro.storage.snapshot import GraphSnapshot

#: bytes a Graph copy may allocate per byte of its snapshot
MAX_RATIO = 6.0


def _allocated(call):
    """The bytes *call*'s result still holds when it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held


def test_a_graph_copy_allocates_at_most_six_snapshots():
    graph = synthetic_dataset(
        num_keys=8, chain_length=2, radius=2, entities_per_type=8, scale=8, seed=1
    ).graph
    assert graph.num_triples > 2000
    copy, copy_bytes = _allocated(graph.copy)
    snapshot, snapshot_bytes = _allocated(lambda: GraphSnapshot.build(graph))
    assert copy == graph and snapshot.num_triples == graph.num_triples
    assert copy_bytes <= MAX_RATIO * snapshot_bytes, (copy_bytes, snapshot_bytes)
