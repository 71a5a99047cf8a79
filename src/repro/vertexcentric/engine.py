"""The simulated vertex-centric asynchronous engine (GraphLab stand-in).

A *vertex program* is executed at every vertex of a graph (for entity
matching: the product graph ``Gp``); vertices hold mutable state and react to
messages by updating their state and sending further messages.  There are no
global rounds and no global variables — exactly the model of [31] that the
paper's ``EMVC`` targets.

The engine:

* hosts vertices on ``p`` simulated workers (hash partitioning),
* routes messages through the :class:`~repro.vertexcentric.scheduler.AsyncScheduler`,
* charges per-message processing work to the hosting worker through the
  :class:`~repro.vertexcentric.cost_model.VertexCentricCostModel`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Protocol, Tuple

from ..exceptions import VertexCentricError
from ..runtime import Executor, Partitioner, WorkAccount
from .cost_model import VertexCentricCostModel
from .message import Message, VertexId
from .scheduler import AsyncScheduler


class VertexContext(WorkAccount):
    """The API a vertex program sees while handling a message.

    Work accounting (``add_work`` / named counters / scratch space) comes from
    the shared :class:`repro.runtime.WorkAccount`, the same base the MapReduce
    task context uses.
    """

    error_class = VertexCentricError

    def __init__(self, engine: "VertexCentricEngine", vertex_id: VertexId) -> None:
        super().__init__()
        self._engine = engine
        self.vertex_id = vertex_id

    def state(self, vertex_id: Optional[VertexId] = None) -> object:
        """The mutable state of *vertex_id* (default: the current vertex).

        Reading another vertex's state models the paper's "send a message to
        (e1, e2) to check Flag" shortcut without simulating the extra hop.
        """
        return self._engine.vertex_state(vertex_id if vertex_id is not None else self.vertex_id)

    def send(
        self,
        target: VertexId,
        payload: object,
        priority: int = 0,
    ) -> None:
        """Send *payload* to *target* asynchronously."""
        self._engine._send(Message.create(target, payload, sender=self.vertex_id, priority=priority))

    def has_vertex(self, vertex_id: VertexId) -> bool:
        return self._engine.has_vertex(vertex_id)


class _SuperstepContext(VertexContext):
    """Context used under partitioned execution: sends go through the task."""

    def __init__(self, engine: "VertexCentricEngine", vertex_id: VertexId, task) -> None:
        super().__init__(engine, vertex_id)
        self._task = task

    def send(self, target: VertexId, payload: object, priority: int = 0) -> None:
        self._task.route(target, payload, self.vertex_id, priority)


class _Placement(dict):
    """Vertex → hosting worker, hashed when a vertex is first addressed."""

    def __init__(self, worker_for: Callable[[VertexId], int]) -> None:
        super().__init__()
        self._worker_for = worker_for

    def __missing__(self, vertex_id: VertexId) -> int:
        worker = self[vertex_id] = self._worker_for(vertex_id)
        return worker


class VertexProgram(Protocol):
    """A vertex program: reacts to messages delivered at vertices."""

    def on_message(self, vertex_id: VertexId, state: object, payload: object, context: VertexContext) -> None:  # pragma: no cover - protocol
        ...


@dataclass
class EngineStats:
    """Run-level statistics of the engine."""

    vertices: int = 0
    messages_sent: int = 0
    messages_processed: int = 0
    messages_dropped: int = 0


class VertexCentricEngine:
    """Hosts vertices, runs a vertex program, accounts for cost."""

    def __init__(
        self,
        program: VertexProgram,
        processors: int,
        max_messages: Optional[int] = None,
        executor: Optional[Executor] = None,
        partitioner: Optional[Partitioner] = None,
    ) -> None:
        if processors < 1:
            raise VertexCentricError(f"processors must be >= 1, got {processors}")
        self._program = program
        self._processors = processors
        self._vertices: Dict[VertexId, object] = {}
        self.cost_model = VertexCentricCostModel(processors=processors)
        self._worker_of = _Placement(self.cost_model.worker_for)
        self._scheduler = AsyncScheduler(processors, self._worker_of.__getitem__)
        self._max_messages = max_messages
        self.stats = EngineStats()
        # Partitioned execution (see repro.vertexcentric.parallel): an
        # executor switches run() to the superstep schedule; ``processors``
        # stays the *simulated* cluster size observed by the cost model, the
        # executor's workers are the *real* parallelism.  The program must
        # implement the replica protocol.
        self._executor = executor
        self._partitioner = partitioner
        self._pending_posts: List[Tuple[int, VertexId, Optional[VertexId], object]] = []
        self._partition_of: Dict[VertexId, int] = {}
        self._site_lock = threading.RLock()

    # Engines travel to process-pool workers as the shared payload of a
    # partitioned run; pools and locks stay behind.
    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        state["_executor"] = None
        state["_site_lock"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._site_lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # topology
    # ------------------------------------------------------------------ #

    def add_vertex(self, vertex_id: VertexId, state: object) -> None:
        """Register a vertex with its initial mutable state."""
        if vertex_id in self._vertices:
            raise VertexCentricError(f"vertex {vertex_id!r} already exists")
        self._vertices[vertex_id] = state
        self.stats.vertices = len(self._vertices)

    def has_vertex(self, vertex_id: VertexId) -> bool:
        return vertex_id in self._vertices

    def vertex_state(self, vertex_id: VertexId) -> object:
        try:
            return self._vertices[vertex_id]
        except KeyError:
            raise VertexCentricError(f"unknown vertex {vertex_id!r}") from None

    def vertices(self) -> Iterable[VertexId]:
        return self._vertices.keys()

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    # ------------------------------------------------------------------ #
    # messaging & execution
    # ------------------------------------------------------------------ #

    def _send(self, message: Message) -> None:
        if message.target not in self._vertices:
            # messages to non-existent product-graph nodes are silently dropped,
            # like messages to filtered-out candidate pairs in the paper
            self.stats.messages_dropped += 1
            return
        self._scheduler.enqueue(message)
        self.cost_model.record_message_sent()
        self.stats.messages_sent += 1

    def post(self, target: VertexId, payload: object, priority: int = 0) -> None:
        """Inject an initial message from outside the engine (the driver)."""
        if self._executor is not None:
            if target not in self._vertices:
                self.stats.messages_dropped += 1
                return
            self._pending_posts.append((priority, target, None, payload))
            self.cost_model.record_message_sent()
            self.stats.messages_sent += 1
            return
        self._send(Message.create(target, payload, sender=None, priority=priority))

    def run(self) -> None:
        """Process messages until none are in flight.

        Without an executor this is the classic deterministic round-robin
        drain.  With one, the run is partitioned into per-worker supersteps
        with a cross-partition mailbox (see
        :mod:`repro.vertexcentric.parallel`); results are identical for every
        executor kind.
        """
        if self._executor is None:
            self._scheduler.run(self._handle, max_messages=self._max_messages)
            return
        from .parallel import PartitionedRun

        PartitionedRun(self, self._executor, self._partitioner).run()

    def _superstep_context(self, vertex_id: VertexId, task) -> VertexContext:
        """Build the message-handling context of a partitioned task."""
        return _SuperstepContext(self, vertex_id, task)

    def _handle(self, message: Message) -> None:
        context = VertexContext(self, message.target)
        state = self.vertex_state(message.target)
        context.add_work(1)
        self._program.on_message(message.target, state, message.payload, context)
        self.cost_model.add_work(self._worker_of[message.target], context.work)
        self.cost_model.record_message_processed()
        self.stats.messages_processed += 1

    def simulated_seconds(self) -> float:
        """Simulated cluster seconds of the whole run."""
        return self.cost_model.simulated_seconds()
