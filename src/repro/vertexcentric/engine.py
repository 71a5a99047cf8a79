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
from typing import (
    Callable,
    Collection,
    Container,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Protocol,
    Tuple,
)

from ..exceptions import VertexCentricError
from ..runtime import Executor, Partitioner, WorkAccount
from .cost_model import Placement, VertexCentricCostModel
from .message import Message, VertexId, next_sequence
from .scheduler import AsyncScheduler


class VertexContext(WorkAccount):
    """The API a vertex program sees while handling a message.

    Work accounting (``add_work`` / named counters / scratch space) comes from
    the shared :class:`repro.runtime.WorkAccount`, the same base the MapReduce
    task context uses.  A drain makes **one** context and points it at each
    message in turn (``vertex_id``; ``work`` restarts at the one unit a
    delivery costs), so a program must not keep it.
    """

    error_class = VertexCentricError

    def __init__(self, engine: "VertexCentricEngine", vertex_id: VertexId = None) -> None:
        super().__init__()
        self._engine = engine
        self._vertices = engine._vertices
        self._hosted = engine._hosted
        self.vertex_id = vertex_id

    def state(self, vertex_id: Optional[VertexId] = None) -> object:
        """The mutable state of *vertex_id* (default: the current vertex).

        Reading another vertex's state models the paper's "send a message to
        (e1, e2) to check Flag" shortcut without simulating the extra hop.
        """
        if vertex_id is None:
            vertex_id = self.vertex_id
        try:
            return self._vertices[vertex_id]
        except KeyError:
            return self._engine.vertex_state(vertex_id)  # raises the typed error

    def send(
        self,
        target: VertexId,
        payload: object,
        priority: int = 0,
    ) -> None:
        """Send *payload* to *target* asynchronously."""
        self._engine._send((priority, next_sequence(), target, self.vertex_id, payload))

    def has_vertex(self, vertex_id: VertexId) -> bool:
        return vertex_id in self._hosted


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


class _LazyStates(dict):
    """Vertex -> state, a state made on first lookup for a hosted vertex."""

    __slots__ = ("_universe", "_make_state")

    def __init__(
        self, universe: Collection[VertexId], make_state: Callable[[VertexId], object]
    ) -> None:
        super().__init__()
        self._universe = universe
        self._make_state = make_state

    def __missing__(self, vertex_id: VertexId) -> object:
        if vertex_id not in self._universe:
            raise KeyError(vertex_id)
        state = self[vertex_id] = self._make_state(vertex_id)
        return state


class VertexCentricEngine:
    """Hosts vertices, runs a vertex program, accounts for cost."""

    def __init__(
        self,
        program: VertexProgram,
        processors: int,
        max_messages: Optional[int] = None,
        executor: Optional[Executor] = None,
        partitioner: Optional[Partitioner] = None,
        placement: Optional[Placement] = None,
    ) -> None:
        """*placement* is a table an earlier engine of the same size filled
        (see :class:`~repro.vertexcentric.cost_model.Placement`); without one
        the engine starts its own."""
        if processors < 1:
            raise VertexCentricError(f"processors must be >= 1, got {processors}")
        if placement is None:
            placement = Placement(processors)
        elif placement.processors != processors:
            raise VertexCentricError(
                f"placement table is for {placement.processors} workers, not {processors}"
            )
        self._program = program
        self._processors = processors
        self._vertices: Dict[VertexId, object] = {}
        #: what ``in`` tests to decide whether a vertex exists: the state
        #: table itself, or the universe :meth:`host` was given
        self._hosted: Container[VertexId] = self._vertices
        self.cost_model = VertexCentricCostModel(processors=processors)
        self._worker_of = placement
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

    def host(
        self, universe: Collection[VertexId], make_state: Callable[[VertexId], object]
    ) -> None:
        """Register every vertex of *universe*, each with the initial state
        ``make_state(vertex)``.

        The classic drain creates a state on the vertex's first delivery (or
        first read by the program), so a run pays for the vertices its
        messages reach, not for every vertex it hosts; *make_state* must
        therefore not depend on when it is called.  A partitioned run splits
        and flags every vertex up front, so it registers them all here, in
        *universe*'s iteration order.
        """
        if self._executor is not None:
            for vertex in universe:
                self.add_vertex(vertex, make_state(vertex))
            return
        self._vertices = _LazyStates(universe, make_state)
        self._hosted = universe
        self.stats.vertices = len(universe)

    def has_vertex(self, vertex_id: VertexId) -> bool:
        return vertex_id in self._hosted

    def vertex_state(self, vertex_id: VertexId) -> object:
        try:
            return self._vertices[vertex_id]
        except KeyError:
            raise VertexCentricError(f"unknown vertex {vertex_id!r}") from None

    def vertices(self) -> Iterable[VertexId]:
        return self._vertices.keys()

    # ------------------------------------------------------------------ #
    # messaging & execution
    # ------------------------------------------------------------------ #

    def _send(self, message: Message) -> None:
        if message[2] not in self._hosted:
            # messages to non-existent product-graph nodes are silently dropped,
            # like messages to filtered-out candidate pairs in the paper
            self.stats.messages_dropped += 1
            return
        self._scheduler.enqueue(message)
        self.cost_model.messages_sent += 1
        self.stats.messages_sent += 1

    def post(self, target: VertexId, payload: object, priority: int = 0) -> None:
        """Inject an initial message from outside the engine (the driver)."""
        if self._executor is not None:
            if target not in self._hosted:
                self.stats.messages_dropped += 1
                return
            self._pending_posts.append((priority, target, None, payload))
            self.cost_model.record_message_sent()
            self.stats.messages_sent += 1
            return
        self._send((priority, next_sequence(), target, None, payload))

    def run(self) -> None:
        """Process messages until none are in flight.

        Without an executor this is the classic deterministic round-robin
        drain.  With one, the run is partitioned into per-worker supersteps
        with a cross-partition mailbox (see
        :mod:`repro.vertexcentric.parallel`); results are identical for every
        executor kind.
        """
        if self._executor is not None:
            from .parallel import PartitionedRun

            PartitionedRun(self, self._executor, self._partitioner).run()
            return
        # The drain's one context lives in this frame and dies with it.  Kept
        # on the engine it would close a cycle (engine -> context -> engine),
        # and every finished run would wait for the cycle collector.
        context = VertexContext(self)
        on_message = self._program.on_message
        vertices, worker_of = self._vertices, self._worker_of
        worker_work = self.cost_model.worker_work

        def handle(message: Message) -> None:
            target = context.vertex_id = message[2]
            context.work = 1
            on_message(target, vertices[target], message[4], context)
            worker_work[worker_of[target]] += context.work

        scheduler_stats = self._scheduler.stats
        before = scheduler_stats.processed
        try:
            self._scheduler.run(handle, max_messages=self._max_messages)
        finally:
            processed = scheduler_stats.processed - before
            self.cost_model.record_message_processed(processed)
            self.stats.messages_processed += processed

    def simulated_seconds(self) -> float:
        """Simulated cluster seconds of the whole run."""
        return self.cost_model.simulated_seconds()
