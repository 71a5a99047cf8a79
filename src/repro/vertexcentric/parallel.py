"""Partitioned execution of a vertex program on the shared runtime.

The classic :meth:`VertexCentricEngine.run` drains one global message pool in
a deterministic round-robin.  Partitioned execution replaces that schedule
with a *superstep* schedule that real workers can execute concurrently:

1. vertices are split across ``W`` partitions by a
   :class:`~repro.runtime.partition.Partitioner` (stable hash by default,
   locality-aware fragments optionally);
2. each superstep dispatches one task per partition with pending messages:
   the task drains its partition's inbox — local sends are processed
   immediately, messages for other partitions go to a cross-partition
   **mailbox** (the outbox);
3. a barrier routes every outbox to the target partitions' inboxes and merges
   the tasks' state deltas, in task order, into the driver's canonical state;
4. the loop ends when no cross-partition messages remain.

Every worker holds a *replica* of the run state (under the process executor a
forked copy, under serial/thread executors the engine itself, reset between
tasks).  The vertex program makes that sound by implementing the **replica
protocol** — ``replica_canonical`` / ``replica_sync`` / ``replica_delta``
(see :class:`repro.matching.eval_vc.EvalVCProgram`): its mutable state must
be *monotone* (flags only rise, equivalence classes only merge), so a replica
can always be reset to the canonical state and its deltas merged back.  A
task is therefore a pure function of ``(canonical state, inbox)``, which is
what makes the schedule — and every statistic — bit-identical across serial,
thread and process executors.

The cost models are untouched: they keep observing the same per-vertex work
and message traffic and keep reporting simulated cluster seconds for ``p``
*simulated* processors, while the executor delivers measured wall-clock
parallelism on ``W`` *real* workers.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..exceptions import VertexCentricError
from ..runtime import Executor, HashPartitioner, Partitioner
from .engine import VertexContext
from .message import Message, VertexId

#: A message crossing a partition boundary: (priority, target, sender, payload).
MailboxEntry = Tuple[int, VertexId, Optional[VertexId], object]

#: The hooks a vertex program must provide for partitioned execution.
REPLICA_PROTOCOL = (
    "replica_relation",
    "replica_canonical",
    "replica_sync",
    "replica_delta",
    "replica_finalize",
)


@dataclass
class SuperstepOutcome:
    """The picklable result of one partition's superstep task."""

    worker_id: int
    outbox: List[MailboxEntry] = field(default_factory=list)
    flags: tuple = ()
    merges: tuple = ()
    counters: Dict[str, int] = field(default_factory=dict)
    processed: int = 0
    sent: int = 0
    dropped: int = 0
    work_by_sim_worker: List[int] = field(default_factory=list)


class _SuperstepContext(VertexContext):
    """The context of a partitioned task: sends go through the task."""

    def __init__(self, engine, task: "_SuperstepTask") -> None:
        super().__init__(engine)
        self._task = task

    def send(self, target: VertexId, payload: object, priority: int = 0) -> None:
        self._task.route(target, payload, self.vertex_id, priority)


class _SuperstepTask:
    """Drains one partition's inbox against the worker's engine replica."""

    def __init__(self, engine, worker_id: int, inbox: List[MailboxEntry]) -> None:
        self._engine = engine
        self.worker_id = worker_id
        # inbox messages keep their arrival order via sequence numbers 0..n-1;
        # locally generated messages continue the sequence, so the heap order
        # is a pure function of (canonical, inbox) in any executor.
        self.heap: List[Message] = [
            (priority, sequence, target, sender, payload)
            for sequence, (priority, target, sender, payload) in enumerate(inbox)
        ]
        heapq.heapify(self.heap)
        self._next_sequence = len(inbox)
        self.outbox: List[MailboxEntry] = []
        self.processed = 0
        self.sent = 0
        self.dropped = 0
        self.work_by_sim_worker = [0] * engine.cost_model.processors

    def route(
        self, target: VertexId, payload: object, sender: Optional[VertexId], priority: int
    ) -> None:
        """A send performed by the vertex program during this task."""
        if not self._engine.has_vertex(target):
            self.dropped += 1
            return
        self.sent += 1
        if self._engine._partition_of[target] == self.worker_id:
            heapq.heappush(
                self.heap, (priority, self._next_sequence, target, sender, payload)
            )
            self._next_sequence += 1
        else:
            self.outbox.append((priority, target, sender, payload))

    def drain(self) -> None:
        engine = self._engine
        on_message = engine._program.on_message
        vertices, worker_of = engine._vertices, engine._worker_of
        work_by_sim_worker, heap, pop = self.work_by_sim_worker, self.heap, heapq.heappop
        budget = engine._max_messages
        # one context per task, in this frame: the serial drain's design
        # (see VertexCentricEngine.run)
        context = _SuperstepContext(engine, self)
        while heap:
            message = pop(heap)
            target = context.vertex_id = message[2]
            context.work = 1
            on_message(target, vertices[target], message[4], context)
            work_by_sim_worker[worker_of[target]] += context.work
            self.processed += 1
            if budget is not None and self.processed > budget:
                raise VertexCentricError(
                    f"message budget exceeded ({budget}); "
                    "the vertex program appears not to terminate"
                )


def _run_superstep(
    engine, worker_id: int, canonical: Tuple[tuple, tuple, int], inbox: List[MailboxEntry]
) -> SuperstepOutcome:
    """Execute one partition's superstep (module-level for process pools).

    Serial and thread executors hand every task the *same* engine object; the
    site lock serialises them and ``replica_sync`` resets the shared state to
    canonical between tasks, so sharing is invisible.  Process executors hand
    each worker its own forked replica.
    """
    with engine._site_lock:
        program = engine._program
        program.replica_sync(engine._vertices, canonical)
        task = _SuperstepTask(engine, worker_id, inbox)
        task.drain()
        flags, merges, counters = program.replica_delta()
        return SuperstepOutcome(
            worker_id=worker_id,
            outbox=task.outbox,
            flags=flags,
            merges=merges,
            counters=dict(vars(counters)),
            processed=task.processed,
            sent=task.sent,
            dropped=task.dropped,
            work_by_sim_worker=task.work_by_sim_worker,
        )


class PartitionedRun:
    """One partitioned execution of an engine's program (driver side)."""

    def __init__(
        self,
        engine,
        executor: Executor,
        partitioner: Optional[Partitioner] = None,
    ) -> None:
        program = engine._program
        missing = [hook for hook in REPLICA_PROTOCOL if not hasattr(program, hook)]
        if missing:
            raise VertexCentricError(
                f"vertex program {type(program).__name__} cannot run partitioned: "
                f"it lacks the replica protocol hooks {', '.join(missing)}"
            )
        self._engine = engine
        self._executor = executor
        self._partitioner = (
            partitioner
            if partitioner is not None
            else HashPartitioner(executor.workers)
        )

    def run(self) -> None:
        engine = self._engine
        program = engine._program
        num_partitions = self._partitioner.num_partitions

        parts = self._partitioner.split(list(engine._vertices.keys()))
        engine._partition_of = {
            vertex: index for index, part in enumerate(parts) for vertex in part
        }

        # canonical run state, kept on the driver and re-broadcast per task;
        # the epoch (superstep number) lets replicas apply list tails
        # incrementally once their own deltas are known to be absorbed
        flags, merges, _ = program.replica_canonical(engine._vertices)
        flag_list: List[object] = list(flags)
        flag_set = set(flags)
        # the canonical merge history holds the run's merges; every replica
        # replays it onto the relation the program starts from (a seed it
        # carries, under incremental re-matching), and so does the novelty
        # check
        merge_list: List[Tuple[str, str]] = list(merges)
        novelty_eq = program.replica_relation()
        for e1, e2 in merges:
            novelty_eq.merge(e1, e2)
        counter_totals: Dict[str, int] = {}
        total_processed = 0

        inboxes: List[List[MailboxEntry]] = [[] for _ in range(num_partitions)]
        for entry in engine._pending_posts:
            inboxes[engine._partition_of[entry[1]]].append(entry)
        engine._pending_posts.clear()

        epoch = 0
        while any(inboxes):
            epoch += 1
            canonical = (tuple(flag_list), tuple(merge_list), epoch)
            batches = [
                (worker_id, canonical, inbox)
                for worker_id, inbox in enumerate(inboxes)
                if inbox
            ]
            outcomes = self._executor.run_tasks(_run_superstep, batches, shared=engine)

            inboxes = [[] for _ in range(num_partitions)]
            # barrier: merge deltas and route mailboxes in task order — the
            # one canonical order every executor reproduces
            for outcome in outcomes:
                for vertex in outcome.flags:
                    if vertex not in flag_set:
                        flag_set.add(vertex)
                        flag_list.append(vertex)
                for pair in outcome.merges:
                    if novelty_eq.merge(pair[0], pair[1]):
                        merge_list.append(pair)
                for name, value in outcome.counters.items():
                    counter_totals[name] = counter_totals.get(name, 0) + value
                for index, work in enumerate(outcome.work_by_sim_worker):
                    engine.cost_model.worker_work[index] += work
                engine.cost_model.record_message_sent(outcome.sent)
                engine.cost_model.record_message_processed(outcome.processed)
                engine.stats.messages_sent += outcome.sent
                engine.stats.messages_processed += outcome.processed
                engine.stats.messages_dropped += outcome.dropped
                total_processed += outcome.processed
                for entry in outcome.outbox:
                    inboxes[engine._partition_of[entry[1]]].append(entry)
            if engine._max_messages is not None and total_processed > engine._max_messages:
                raise VertexCentricError(
                    f"message budget exceeded ({engine._max_messages}); "
                    "the vertex program appears not to terminate"
                )

        # land the driver-side engine on the canonical final state
        program.replica_finalize(
            engine._vertices,
            (tuple(flag_list), tuple(merge_list), epoch + 1),
            counter_totals,
        )
