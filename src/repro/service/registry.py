"""Named graphs and the shared-artifact multiplexing contract.

A :class:`GraphRegistry` maps tenant-facing *names* to registered graphs.
Registration builds exactly one thread-safe
:class:`~repro.matching.artifacts.SessionArtifacts` cache per name, the one
home of that graph's state, and every request against that name — match,
ingest window, WAL recovery — runs on a request-private
:class:`~repro.api.session.MatchSession` view over it, so:

* the cache holds the graph's one fixpoint — the last finished run's,
  whichever run shape (:meth:`~repro.api.config.MatchConfig.run_shape`) ran
  it — beside the last results of the most recently run shapes, and
  ``chase(G, Σ)`` is a function of ``(G, Σ)`` alone: a read under a shape
  that already answered at this graph version (the shape the last ingest
  window ran under included) returns that shape's held result
  (``reused``), every other read is a delta re-run seeded from the cache's
  fixpoint (``incremental`` — an empty window when another shape already
  moved the cache on), and only the graph's very first run is a full one;
* requests for different graphs run in parallel, and the artifacts'
  build-once locks guarantee each expensive artifact — snapshot,
  neighbourhood index, candidates, product graph — is built exactly once per
  graph, no matter how many requests race on it; requests and ingest windows
  for *one* graph serialize on its ingest lock (:meth:`RegisteredGraph.match`),
  so a read never sees a half-applied window;
* all names multiplex the registry's single
  :class:`~repro.storage.store.SnapshotStore`: two names registered over
  content-identical graphs share one physical ``mmap``'d snapshot file, and
  a service restart warm-starts every graph off disk.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Union

import os

from ..api.config import MatchConfig
from ..api.events import ProgressObserver
from ..api.session import DeltaProvenance, MatchSession, held_result
from ..core.graph import Graph
from ..core.key import KeySet
from ..exceptions import AdmissionError, ServiceError, UnknownGraphError
from ..matching.artifacts import SessionArtifacts, SessionCacheInfo
from ..matching.result import EMResult
from ..storage.store import SnapshotStore, as_snapshot_store

#: staleness samples kept per graph for the /metrics percentiles
STALENESS_WINDOW = 2048


class ServedRead(NamedTuple):
    """One served match: the result, its provenance and the graph cache's
    phase timings and counters, read under the graph's ingest lock."""

    result: EMResult
    #: how the read was answered (``reused`` / ``incremental`` / ``full``)
    delta: DeltaProvenance
    phase_timings: Dict[str, float]
    #: the cache's counters before and after the run
    cache_before: SessionCacheInfo
    cache_after: SessionCacheInfo


class RegisteredGraph:
    """One named graph: the graph, its keys and the shared artifact cache."""

    def __init__(
        self,
        name: str,
        graph: Graph,
        keys: KeySet,
        *,
        store: Optional[SnapshotStore] = None,
        source: str = "api",
    ) -> None:
        self.name = name
        self.graph = graph
        self.keys = keys
        self.source = source
        self.registered_at = time.time()
        #: the one artifact cache every request for this name shares
        self.artifacts = SessionArtifacts(graph, keys, snapshot_store=store)
        #: completed match runs against this name (service bookkeeping)
        self.runs = 0
        self._lock = threading.Lock()
        #: serializes reads and mutation windows of this graph — concurrent
        #: ingests of one name interleave whole batches, never individual
        #: mutations, and a read sees the graph at a window boundary
        self._ingest_lock = threading.Lock()
        #: served reads by how they were answered
        self._reads_by_mode = {"reused": 0, "incremental": 0, "full": 0}
        self.ingested_ops = 0
        self.ingest_batches = 0
        #: durability + flow control (attached by the registry)
        self.wal = None
        self.max_pending_ops: Optional[int] = None
        self.last_recovery: Optional[Dict[str, object]] = None
        #: backpressure accounting: ops applied but not covered by a flush
        #: (failed flush) + ops admitted into in-flight windows
        self._pending_ops = 0
        self._inflight_ops = 0
        #: measured ingest cost, feeding Retry-After derivation
        self._ingest_seconds = 0.0
        #: recent per-mutation staleness samples (seconds), for /metrics
        self._staleness = deque(maxlen=STALENESS_WINDOW)

    def _session(self, config: Optional[MatchConfig]) -> MatchSession:
        """A request-private view of *config* over the graph's cache."""
        return MatchSession(self.graph, self.keys, config, artifacts=self.artifacts)

    def match(
        self,
        config: Optional[MatchConfig] = None,
        observer: Optional[ProgressObserver] = None,
    ) -> ServedRead:
        """Serve one match as a delta re-run over the graph's cache.

        ``reused`` when this run shape already answered at the current graph
        version, otherwise ``incremental`` from the fixpoint the shared
        cache holds — whichever shape's read or window put it there —
        and ``full`` only for the first run this graph ever sees (or once
        the journal window behind the seed has expired).

        The run holds the ingest lock, so a read never refreshes artifacts
        from a graph that a concurrent ingest window is still mutating: it
        sees the graph at a window boundary.  The session is this request's
        own view over the cache, so *observer* sees this run's events only.
        Lock order, the same as :meth:`ingest`: ingest lock → artifact-cache
        lock → snapshot-store fingerprint lock.
        """
        with self._ingest_lock:
            return self._read(self._session(config), observer)

    def held_read(
        self, config: MatchConfig, observer: Optional[ProgressObserver] = None
    ) -> Optional[ServedRead]:
        """:meth:`match`'s ``reused`` answer, checked and given under one
        non-blocking hold of the ingest lock; ``None`` when that lock is
        busy or the reuse rule (:func:`~repro.api.session.held_result`) does
        not hold.  The caller never waits on a window and never solves."""
        if not self._ingest_lock.acquire(blocking=False):
            return None
        try:
            if held_result(config, self.artifacts) is None:
                return None
            return self._read(self._session(config), observer)
        finally:
            self._ingest_lock.release()

    def _read(
        self, session: MatchSession, observer: Optional[ProgressObserver]
    ) -> ServedRead:
        """:meth:`match`'s body; the caller holds the ingest lock."""
        if observer is not None:
            session.on_progress(observer)
        before = self.artifacts.cache_info()
        result = session.rerun()
        after = self.artifacts.cache_info()
        read = ServedRead(result, session.last_delta(), session.phase_timings(), before, after)
        with self._lock:
            self.runs += 1
            self._reads_by_mode[read.delta.mode] += 1
        return read

    def ingest_retry_after(self, backlog: Optional[int] = None) -> int:
        """A ``Retry-After`` estimate for an over-limit ingest window:
        the measured mean seconds per ingested op × the backlog still to
        clear, clamped to [1, 600] whole seconds."""
        with self._lock:
            return self._retry_after_locked(backlog)

    def _retry_after_locked(self, backlog: Optional[int] = None) -> int:
        """:meth:`ingest_retry_after` body; caller holds ``self._lock``."""
        if backlog is None:
            backlog = self._pending_ops + self._inflight_ops
        mean_per_op = (
            self._ingest_seconds / self.ingested_ops
            if self.ingested_ops
            else 0.0
        )
        return max(1, min(600, math.ceil(backlog * mean_per_op)))

    def ingest(
        self,
        ops,
        *,
        config: Optional[MatchConfig] = None,
        latency_budget: float = 0.25,
        max_batch_ops: Optional[int] = None,
        max_pending_ops: Optional[int] = None,
    ):
        """Apply a mutation window to the live graph and re-match in batches.

        Returns ``(report, result)`` — the window's
        :class:`~repro.service.ingest.IngestReport` and the final (exact)
        ``EMResult`` covering every applied mutation.  The window runs on a
        session of *config* over the graph's cache.  Every flush seeds from
        the fixpoint the cache holds, so successive windows stay incremental
        whichever shapes they — and the reads between them — run under: a
        window under another shape than the last plans its ops against that
        shape's fixpoint and dispatches its own backend on the result.

        Flow control: with a pending-window bound (per-request
        *max_pending_ops* or the registry-wide default), a window that
        would push the uncovered backlog — ops applied but never flushed
        (a failed flush), plus ops admitted into windows still in flight —
        past the bound is refused up front with
        :class:`~repro.exceptions.AdmissionError` carrying a measured
        ``retry_after``.  With a WAL attached, every op is journalled
        before it touches the graph and each flush checkpoints the journal.
        """
        from .ingest import IngestFlushError, IngestPipeline  # lazy: avoid cycle

        config = config or MatchConfig()
        ops = list(ops)
        limit = (
            max_pending_ops if max_pending_ops is not None else self.max_pending_ops
        )
        with self._lock:
            backlog = self._pending_ops + self._inflight_ops
            if limit is not None and backlog > 0 and backlog + len(ops) > limit:
                raise AdmissionError(
                    f"ingest window refused for graph {self.name!r}: "
                    f"{backlog} op(s) already pending against a bound of "
                    f"{limit}; retry later",
                    retry_after=float(self._retry_after_locked(backlog)),
                )
            self._inflight_ops += len(ops)
        window_started = time.monotonic()
        try:
            with self._ingest_lock:
                session = self._session(config)
                pipeline = IngestPipeline(
                    session,
                    latency_budget=latency_budget,
                    max_batch_ops=max_batch_ops,
                    max_pending_ops=limit,
                    wal=self.wal,
                )
                try:
                    report = pipeline.run(iter(ops))
                except IngestFlushError as error:
                    # ops are on the graph but no published result covers
                    # them; the WAL window stays un-checkpointed, and the
                    # uncovered ops count as backlog until the next
                    # successful flush (which covers the whole graph state)
                    with self._lock:
                        self._pending_ops = error.report.ops_unflushed
                        self.ingested_ops += error.report.ops_applied
                        self.ingest_batches += error.report.batches
                        self._ingest_seconds += time.monotonic() - window_started
                    raise
                result = pipeline.last_result
                if result is None:
                    # an empty window still answers with an exact result
                    result = session.rerun()
                with self._lock:
                    self._pending_ops = 0
                    self.ingested_ops += report.ops_applied
                    self.ingest_batches += report.batches
                    self._ingest_seconds += time.monotonic() - window_started
                    self._staleness.extend(pipeline.staleness_samples)
                return report, result
        finally:
            with self._lock:
                self._inflight_ops -= len(ops)

    def recover(self, config: Optional[MatchConfig] = None) -> Dict[str, object]:
        """Replay this graph's WAL and solve once, on a session of *config*
        over the graph's cache.

        Called by the registry right after registration when the attached
        journal holds records.  The recovered fixpoint is the cache's seed,
        so subsequent windows and reads — under any shape — are delta
        re-runs; the returned report (also :attr:`last_recovery`) counts
        the recovery's solves under ``batches``: 1, whatever the number of
        journalled windows, or 0 when nothing was replayed.  Raises
        :class:`~repro.exceptions.WalError` when the journal does not
        describe this graph — recovery never silently drops ops.
        """
        from .wal import replay  # lazy: avoid import cycle

        if self.wal is None:
            raise ServiceError(f"graph {self.name!r} has no WAL attached")
        with self._ingest_lock:
            session = self._session(config)
            report = replay(self.wal, session)
            with self._lock:
                self.ingested_ops += report.ops_replayed
                self.ingest_batches += report.batches
            self.last_recovery = report.as_dict()
            return self.last_recovery

    def close_ingest(self) -> None:
        """Flush nothing, close the WAL (drain path: windows already done)."""
        with self._ingest_lock:
            if self.wal is not None:
                self.wal.close()

    def warm(self) -> None:
        """Pre-build (or store-load) the snapshot + neighbourhood index."""
        self.artifacts.neighborhood_index()

    def ingest_status(self) -> Dict[str, object]:
        """Ingest observability: staleness percentiles over the recent
        sample window, backpressure state, WAL counters, last recovery."""
        from .ingest import _percentile  # lazy: avoid import cycle

        with self._lock:
            samples = sorted(self._staleness)
            status: Dict[str, object] = {
                "pending_ops": self._pending_ops,
                "inflight_ops": self._inflight_ops,
                "max_pending_ops": self.max_pending_ops,
                "staleness_samples": len(samples),
                "staleness_p50": _percentile(samples, 0.50),
                "staleness_p95": _percentile(samples, 0.95),
                "staleness_max": samples[-1] if samples else 0.0,
            }
        status["wal"] = None if self.wal is None else self.wal.metrics()
        status["last_recovery"] = self.last_recovery
        return status

    def describe(self) -> Dict[str, object]:
        """The ``GET /graphs`` wire entry for this registration."""
        info = self.artifacts.cache_info()
        sessions = {
            # the run shapes holding a result, least recently used first
            "shapes": [
                dataclasses.replace(config, incremental=False).describe()
                for config in self.artifacts.held_configs()
            ],
            "evictions": info.held_evictions,
            # the graph version the cache's fixpoint is at
            "seed_version": self.artifacts.seed_version,
        }
        with self._lock:
            reads_by_mode = dict(self._reads_by_mode)
        return {
            "name": self.name,
            "source": self.source,
            "registered_at": self.registered_at,
            "entities": self.graph.num_entities,
            "triples": self.graph.num_triples,
            "keys": self.keys.cardinality,
            "runs": self.runs,
            "reads_by_mode": reads_by_mode,
            "sessions": sessions,
            "ingested_ops": self.ingested_ops,
            "ingest_batches": self.ingest_batches,
            "ingest": self.ingest_status(),
            "cache": {
                "snapshot_builds": info.snapshot_builds,
                "snapshot_patches": info.snapshot_patches,
                "snapshot_compactions": info.snapshot_compactions,
                "snapshot_overlay_rows": info.snapshot_overlay_rows,
                "snapshot_patch_fallbacks": info.snapshot_patch_fallbacks,
                "store_write_failures": info.store_write_failures,
                "neighborhood_index_builds": info.neighborhood_index_builds,
                "candidate_builds": info.candidate_builds,
                "product_graph_builds": info.product_graph_builds,
                "store_hits": info.store_hits,
                "store_misses": info.store_misses,
                "blocking_index_builds": info.blocking_index_builds,
                "blocking_index_rebases": info.blocking_index_rebases,
                "blocking_blocks_touched": info.blocking_blocks_touched,
                "blocking_pairs_pruned": info.blocking_pairs_pruned,
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RegisteredGraph({self.name!r}, {self.graph.num_entities} "
            f"entities, {self.keys.cardinality} keys, runs={self.runs})"
        )


class GraphRegistry:
    """A thread-safe name → :class:`RegisteredGraph` table with one store."""

    def __init__(
        self,
        store: Union[None, str, "os.PathLike", SnapshotStore] = None,
        *,
        wal_root: Union[None, str, "os.PathLike"] = None,
        wal_fsync: str = "batch",
        wal_retain: str = "all",
        max_pending_ops: Optional[int] = None,
    ) -> None:
        #: the single snapshot store every registered graph multiplexes
        #: (``None``: in-memory artifacts only — still shared per graph)
        self.store = as_snapshot_store(store)
        #: directory holding one write-ahead journal per graph name
        #: (``None``: ingest is not journalled — pre-WAL behaviour)
        self.wal_root = None if wal_root is None else Path(wal_root)
        self.wal_fsync = wal_fsync
        self.wal_retain = wal_retain
        #: registry-wide default ingest pending-window bound
        self.max_pending_ops = max_pending_ops
        self._graphs: Dict[str, RegisteredGraph] = {}
        self._lock = threading.Lock()

    def register(
        self,
        name: str,
        graph: Graph,
        keys: KeySet,
        *,
        source: str = "api",
        replace: bool = False,
        warm: bool = False,
    ) -> RegisteredGraph:
        """Register *graph* + *keys* under *name*.

        ``replace=False`` (the default) rejects re-registration of a live
        name — tenants must not silently swap each other's graphs.
        ``warm=True`` builds (or store-loads) the snapshot and neighbourhood
        index before returning, so the first request pays no build latency.

        With a ``wal_root`` configured, registration attaches the graph's
        write-ahead journal (``<wal_root>/<name>/``); if the journal holds
        records from a previous process, the un-covered suffix is replayed
        and solved once (:func:`~repro.service.wal.replay`) *before* the
        entry is published, verifying every recorded fingerprint — a
        journal that does not describe *graph* fails registration loudly
        instead of serving a graph that silently lost its last ingest
        window.
        """
        if not name or "/" in name:
            raise ServiceError(
                f"graph names must be non-empty and slash-free, got {name!r}"
            )
        # refused before the journal opens: a live name's WAL directory is
        # the live entry's, and recovery would write to it
        with self._lock:
            self._refuse_live(name, replace)
        entry = RegisteredGraph(
            name, graph, keys, store=self.store, source=source
        )
        entry.max_pending_ops = self.max_pending_ops
        if self.wal_root is not None:
            from ..core.fingerprint import fingerprint_of
            from .wal import WriteAheadLog  # lazy: avoid import cycle

            entry.wal = WriteAheadLog(
                self.wal_root / name,
                fsync=self.wal_fsync,
                retain=self.wal_retain,
                base_fingerprint=fingerprint_of(graph),
            )
            if entry.wal.has_records():
                entry.recover()
        with self._lock:
            try:  # a racing registration may have published the name since
                self._refuse_live(name, replace)
            except ServiceError:
                entry.close_ingest()
                raise
            previous = self._graphs.get(name)
            self._graphs[name] = entry
        if previous is not None and previous.wal is not None:
            # the replaced entry shares the same journal directory; release
            # its handle so the new entry owns the tail exclusively
            previous.close_ingest()
        if warm:
            entry.warm()
        return entry

    def _refuse_live(self, name: str, replace: bool) -> None:
        """Raise unless *name* is free or *replace* is set; caller holds
        ``self._lock``."""
        if not replace and name in self._graphs:
            raise ServiceError(
                f"graph {name!r} is already registered "
                f"(pass replace=true to swap it)"
            )

    def get(self, name: str) -> RegisteredGraph:
        with self._lock:
            entry = self._graphs.get(name)
            if entry is None:
                known = ", ".join(sorted(self._graphs)) or "none registered"
                raise UnknownGraphError(f"unknown graph {name!r} (known: {known})")
        return entry

    def unregister(self, name: str) -> None:
        with self._lock:
            entry = self._graphs.pop(name, None)
        if entry is None:
            raise UnknownGraphError(f"unknown graph {name!r}")
        entry.close_ingest()

    def close(self) -> None:
        """Close every registered graph's journal (drain / shutdown path)."""
        for entry in self.entries():
            entry.close_ingest()

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._graphs)

    def entries(self) -> List[RegisteredGraph]:
        with self._lock:
            return [self._graphs[name] for name in sorted(self._graphs)]

    def __len__(self) -> int:
        return len(self._graphs)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._graphs

    def metrics(self) -> Dict[str, object]:
        """Store + per-graph cache counters for ``/metrics``."""
        per_graph = {entry.name: entry.describe() for entry in self.entries()}
        return {
            "graphs": len(per_graph),
            "store": None if self.store is None else {
                "root": str(self.store.root),
                **self.store.metrics(),
            },
            "per_graph": per_graph,
        }
