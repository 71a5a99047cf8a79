"""Deterministic cost model for the simulated vertex-centric engine.

As with the MapReduce cost model, the goal is to reproduce the *shape* of the
paper's measurements: the vertex-centric algorithms pay no per-round barrier
and no HDFS I/O — their cost is message processing, spread over the workers
hosting the vertices — which is why ``EMVC`` beats ``EMMR`` by an order of
magnitude in Figure 8 and why it is far less sensitive to the dependency-chain
length ``c`` (stragglers do not block unrelated vertices).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..runtime import stable_hash


#: Simulated seconds charged per work unit performed while processing a message.
WORK_UNIT_SECONDS = 1.5e-3
#: Simulated seconds charged per message delivered (routing + queueing).
MESSAGE_SECONDS = 5e-4
#: Fixed simulated seconds charged once per run (graph loading + program setup).
ENGINE_OVERHEAD_SECONDS = 0.15


class Placement(dict):
    """Vertex → hosting simulated worker, hashed when a vertex is first asked for.

    The function :meth:`VertexCentricCostModel.worker_for` computes, kept: it
    depends on the vertex and the worker count alone, so whoever outlives an
    engine (a session's product graph) may hold the table and hand it to the
    next engine of the same size.
    """

    def __init__(self, processors: int) -> None:
        super().__init__()
        self.processors = processors

    def __missing__(self, vertex_id: object) -> int:
        worker = self[vertex_id] = stable_hash(vertex_id) % self.processors
        return worker


@dataclass
class VertexCentricCostModel:
    """Accumulates per-worker work and message traffic of a run."""

    processors: int
    worker_work: List[int] = field(default_factory=list)
    messages_sent: int = 0
    messages_processed: int = 0
    setup_work: int = 0

    def __post_init__(self) -> None:
        if self.processors < 1:
            raise ValueError(f"processors must be >= 1, got {self.processors}")
        if not self.worker_work:
            self.worker_work = [0] * self.processors

    def worker_for(self, vertex_id: object) -> int:
        """The worker hosting *vertex_id* (deterministic hash partitioning).

        Uses the process-stable :func:`repro.runtime.stable_hash`, not the
        salted builtin ``hash``, so placement — and therefore the simulated
        makespan — is identical in every process of a multiprocess run.  It
        hashes the vertex's canonical repr, so the engine reads it through a
        :class:`Placement`, which asks once per vertex and keeps the answer.
        """
        return stable_hash(vertex_id) % self.processors

    def add_work(self, worker: int, units: int) -> None:
        """Charge *units* of work to *worker* (see :meth:`worker_for`)."""
        self.worker_work[worker] += units

    def add_setup_work(self, units: int) -> None:
        """Charge product-graph / traversal-order construction work."""
        self.setup_work += units

    def record_message_sent(self, count: int = 1) -> None:
        self.messages_sent += count

    def record_message_processed(self, count: int = 1) -> None:
        self.messages_processed += count

    @property
    def total_work(self) -> int:
        return self.setup_work + sum(self.worker_work)

    def simulated_seconds(self) -> float:
        """Simulated wall-clock seconds of the run on ``processors`` workers."""
        makespan = max(self.worker_work, default=0) * WORK_UNIT_SECONDS
        messaging = self.messages_sent * MESSAGE_SECONDS / self.processors
        setup = self.setup_work * WORK_UNIT_SECONDS / self.processors
        return ENGINE_OVERHEAD_SECONDS + setup + makespan + messaging

    def breakdown(self) -> Dict[str, float]:
        return {
            "setup_seconds": ENGINE_OVERHEAD_SECONDS
            + self.setup_work * WORK_UNIT_SECONDS / self.processors,
            "compute_seconds": max(self.worker_work, default=0) * WORK_UNIT_SECONDS,
            "message_seconds": self.messages_sent * MESSAGE_SECONDS / self.processors,
            "messages_sent": float(self.messages_sent),
            "total_seconds": self.simulated_seconds(),
        }
