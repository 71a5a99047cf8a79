"""Compiled, immutable read layer under the matching hot paths.

The mutable :class:`~repro.core.graph.Graph` stays the single source of
truth for writes; this package compiles it into a :class:`GraphSnapshot` —
an interned, CSR-backed view that every read-side consumer (d-neighbourhood
extraction, candidate generation and blocking, the chase, the product
graph, the MR mappers and the VC supersteps) shares.  A snapshot is built
once per :attr:`Graph.version` and cached by
:class:`~repro.api.session.MatchSession`; the parallel runtimes pickle the
compact arrays once per worker instead of re-shipping dict-of-dict indexes.

The persistence layer (:mod:`repro.storage.store`) adds a versioned binary
on-disk format for snapshots and a :class:`SnapshotStore` directory cache
keyed by graph content fingerprint: cold starts ``mmap``-load the arrays
instead of rebuilding them, and store-backed snapshots pickle as path stubs
so process pools ship a file path, not the arrays.
"""

from .neighborhoods import SnapshotNeighborhoodIndex
from .snapshot import GraphSnapshot
from .store import (
    FORMAT_VERSION,
    SNAPSHOT_SUFFIX,
    SnapshotStore,
    as_snapshot_store,
    fingerprint_of,
    graph_fingerprint,
    read_snapshot,
    snapshot_info,
    verify_snapshot,
    write_snapshot,
)

__all__ = [
    "FORMAT_VERSION",
    "SNAPSHOT_SUFFIX",
    "GraphSnapshot",
    "SnapshotNeighborhoodIndex",
    "SnapshotStore",
    "as_snapshot_store",
    "fingerprint_of",
    "graph_fingerprint",
    "read_snapshot",
    "snapshot_info",
    "verify_snapshot",
    "write_snapshot",
]
