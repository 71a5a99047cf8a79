"""The matching service: a multi-tenant, request-serving front end.

This package is the first layer of the system that faces *callers* rather
than graphs.  It turns the session API into a long-lived service:

* :class:`~repro.service.registry.GraphRegistry` — named graphs, each with
  **one** shared, thread-safe
  :class:`~repro.matching.artifacts.SessionArtifacts` cache and all of them
  multiplexing **one** shared
  :class:`~repro.storage.store.SnapshotStore`, so N tenants on one box pay
  for one physical copy of every graph;
* :class:`~repro.service.queue.AdmissionController` — a bounded request
  queue in front of a fixed worker pool: configurable max-inflight /
  max-queued, 429-style rejection when full, per-request queue-wait
  timeouts and pre-start cancellation;
* :class:`~repro.service.server.MatchingService` + ``repro serve`` — a
  JSON-over-HTTP front end (stdlib ``ThreadingHTTPServer``): register named
  graphs, submit match requests against any registered backend, poll or
  stream per-request progress events, fetch results, and scrape service
  metrics from ``/metrics``;
* :mod:`~repro.service.ingest` — the streaming ingest pipeline: continuous
  JSONL mutation streams folded into latency-budgeted incremental re-matches
  (shared by ``repro ingest`` and ``POST /graphs/<name>/ingest``), with
  mutations/sec and staleness-percentile reporting, a deadline-flush
  watchdog, and a bounded pending window for backpressure;
* :mod:`~repro.service.wal` — the per-graph write-ahead op journal:
  append-before-apply durability with per-flush fingerprint checkpoints,
  tunable fsync policy, and crash recovery that replays the un-covered
  suffix onto the graph, verifies every checkpoint fingerprint and solves
  once (bit-identical: ``chase(G, Σ)`` is a function of ``(G, Σ)``);
* :mod:`~repro.service.wire` — the wire schemas: every request is parsed
  into a validated :class:`~repro.api.MatchConfig` and every response
  carries request-level provenance (request id, queue wait, phase timings,
  cache/store hit counters, incremental-vs-full provenance).

See DESIGN.md § "Service layer" for the threading model and the
shared-store multiplexing contract.
"""

from __future__ import annotations

from .ingest import (
    IngestError,
    IngestFlushError,
    IngestPipeline,
    IngestReport,
    ingest_stream,
)
from .queue import AdmissionController, MatchRequest
from .registry import GraphRegistry, RegisteredGraph
from .server import MatchingService, make_http_server, serve
from .wal import ReplayReport, WriteAheadLog, replay
from .wire import algorithm_catalog

__all__ = [
    "AdmissionController",
    "GraphRegistry",
    "IngestError",
    "IngestFlushError",
    "IngestPipeline",
    "IngestReport",
    "MatchRequest",
    "MatchingService",
    "RegisteredGraph",
    "ReplayReport",
    "WriteAheadLog",
    "algorithm_catalog",
    "ingest_stream",
    "make_http_server",
    "replay",
    "serve",
]
