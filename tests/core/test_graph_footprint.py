"""Memory guard for the ``Graph``: a published graph holds its triples once.

A ``Graph`` holds its published snapshot plus the rows written since; a
publish drops the written rows, so what a published graph holds beyond its
``GraphSnapshot`` is its entity table, its counters and its journal.  It is
measured against the ``GraphSnapshot`` of the same graph under
``tracemalloc``, so the bound is a ratio and holds across interpreter
versions.  With two dict rows per node beside the snapshot a graph held ~4.8
times its snapshot on the graph below (~4.5 on the ``batch_cold`` graph);
published, it holds ~1.1 times on both.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.datasets.synthetic import synthetic_dataset
from repro.storage.snapshot import GraphSnapshot

#: bytes a published Graph may hold per byte of its snapshot
MAX_RATIO = 2.0


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


def _published(graph):
    copy = graph.copy()
    copy.snapshot()
    return copy


def test_a_published_graph_holds_at_most_two_snapshots():
    graph = synthetic_dataset(
        num_keys=8, chain_length=2, radius=2, entities_per_type=8, scale=8, seed=1
    ).graph
    assert graph.num_triples > 2000 and graph.held_snapshot is None
    published, published_bytes = _allocated(lambda: _published(graph))
    snapshot, snapshot_bytes = _allocated(lambda: GraphSnapshot.build(graph))
    assert published.written_nodes() == set()
    assert published == graph and snapshot.num_triples == graph.num_triples
    assert published_bytes <= MAX_RATIO * snapshot_bytes, (published_bytes, snapshot_bytes)
