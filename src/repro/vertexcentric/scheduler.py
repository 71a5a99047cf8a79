"""Asynchronous scheduling of messages across the simulated workers.

The GraphLab-style model of the paper has no global rounds: each worker keeps
draining the queue of messages addressed to the vertices it hosts.  The
simulated scheduler reproduces that structure with one priority queue per
worker and a round-robin drain (one message per worker per turn), which is a
deterministic stand-in for concurrent workers progressing independently —
no worker ever waits for a straggler on another worker.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..exceptions import VertexCentricError
from .message import Message, VertexId


@dataclass
class SchedulerStats:
    """Counters describing one scheduler run."""

    enqueued: int = 0
    processed: int = 0
    max_queue_length: int = 0
    turns: int = 0


class AsyncScheduler:
    """Per-worker priority queues with a deterministic round-robin drain."""

    def __init__(self, num_workers: int, worker_for: Callable[[VertexId], int]) -> None:
        """*worker_for* maps a vertex to its worker, in ``range(num_workers)``."""
        if num_workers < 1:
            raise VertexCentricError(f"num_workers must be >= 1, got {num_workers}")
        self._num_workers = num_workers
        self._worker_for = worker_for
        self._queues: List[List[Message]] = [[] for _ in range(num_workers)]
        #: messages waiting in all queues together
        self._pending = 0
        self.stats = SchedulerStats()

    # ------------------------------------------------------------------ #
    # queue operations
    # ------------------------------------------------------------------ #

    def enqueue(self, message: Message) -> None:
        """Route *message* to the queue of the worker hosting its target."""
        heapq.heappush(self._queues[self._worker_for(message[2])], message)
        stats = self.stats
        stats.enqueued += 1
        self._pending += 1
        if self._pending > stats.max_queue_length:
            stats.max_queue_length = self._pending

    def pending(self) -> int:
        """Total number of messages waiting in all queues."""
        return self._pending

    def has_pending(self) -> bool:
        return self._pending > 0

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(
        self,
        handler: Callable[[Message], None],
        max_messages: Optional[int] = None,
    ) -> int:
        """Drain the queues, calling *handler* for each message.

        Workers are visited round-robin and each processes at most one message
        per turn; handlers may enqueue further messages.  Returns the number
        of messages processed.  ``max_messages`` is a safety valve against
        runaway algorithms (an exception is raised when it is exceeded).
        """
        queues, stats, pop = self._queues, self.stats, heapq.heappop
        processed = 0
        try:
            while self._pending:
                stats.turns += 1
                for queue in queues:
                    if not queue:
                        continue
                    message = pop(queue)
                    self._pending -= 1
                    handler(message)
                    processed += 1
                    if max_messages is not None and processed > max_messages:
                        raise VertexCentricError(
                            f"message budget exceeded ({max_messages}); "
                            "the vertex program appears not to terminate"
                        )
        finally:
            stats.processed += processed
        return processed
