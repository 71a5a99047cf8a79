"""Admission control: a bounded request queue in front of a worker pool.

The controller is the service's back-pressure valve.  Requests are admitted
into a bounded FIFO queue (``max_queued``) drained by a fixed pool of worker
threads (``max_inflight``); when the queue is full, :meth:`submit` raises
:class:`~repro.exceptions.AdmissionError` immediately — the HTTP layer maps
that to a 429 so clients back off instead of piling onto a saturated box.

Each admitted request is a :class:`MatchRequest`: a small state machine
(``queued → running → done | failed``, with ``cancelled`` / ``timeout``
side exits) that carries its own provenance — submit/start/finish stamps,
measured queue wait, a bounded per-request progress-event buffer with a
stable cursor, and whatever the runner records (cache counters, delta
provenance).  Cancellation is pre-start only: a matching backend cannot be
interrupted once dispatched, so cancelling a running request returns
``False`` and the run completes (its result is kept).  Per-request timeouts
bound the *queue wait*: a request dequeued after its deadline is marked
``timeout`` and never dispatched.  A cache hit answered at admission
(:meth:`AdmissionController.answered`) is accepted and completed, never
queued.
"""

from __future__ import annotations

import itertools
import math
import queue
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..api.events import ProgressEvent
from ..exceptions import AdmissionError, ServiceError

#: Terminal request states (no further transitions out of these).
TERMINAL_STATES = frozenset(("done", "failed", "cancelled", "timeout", "rejected"))

#: How many progress events one request buffers (oldest evicted first).
EVENT_BUFFER_SIZE = 512

_REQUEST_IDS = itertools.count(1)


class MatchRequest:
    """One admitted match request and its request-level provenance."""

    def __init__(
        self,
        *,
        graph: str,
        describe: str = "",
        timeout: Optional[float] = None,
    ) -> None:
        self.id = f"req-{next(_REQUEST_IDS):06d}"
        #: registered graph name this request runs against
        self.graph = graph
        #: human-readable config one-liner (``MatchConfig.describe()``)
        self.describe = describe
        #: queue-wait deadline in seconds from submission (``None``: no limit)
        self.timeout = timeout
        self.status = "queued"
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: seconds spent waiting in the admission queue
        self.queue_wait: Optional[float] = None
        self.error: Optional[str] = None
        #: the run's EMResult (``done`` requests only)
        self.result = None
        #: request-level provenance recorded by the runner (phase timings,
        #: cache/store counters, incremental-vs-full delta provenance)
        self.provenance: Dict[str, object] = {}
        self._lock = threading.Lock()
        self._done = threading.Event()
        # bounded event buffer with a stable absolute cursor: the buffer
        # holds events [cursor_base, cursor_base + len) of the request
        self._events: List[dict] = []
        self._cursor_base = 0
        self._events_dropped = 0

    # -- event streaming --------------------------------------------------- #

    def record_event(self, event: ProgressEvent) -> None:
        """Append one progress event (usable as a session observer)."""
        with self._lock:
            self._events.append(event.as_dict())
            overflow = len(self._events) - EVENT_BUFFER_SIZE
            if overflow > 0:
                del self._events[:overflow]
                self._cursor_base += overflow
                self._events_dropped += overflow

    def events_after(self, cursor: int = 0) -> Tuple[List[dict], int]:
        """Buffered events at positions ≥ *cursor*, plus the next cursor.

        The cursor is absolute over the request's lifetime: poll with the
        returned value to receive each event exactly once.  A cursor older
        than the buffer silently skips the evicted prefix (the eviction is
        counted in :attr:`events_dropped`).
        """
        with self._lock:
            start = max(0, cursor - self._cursor_base)
            events = self._events[start:]
            return events, self._cursor_base + len(self._events)

    @property
    def events_dropped(self) -> int:
        return self._events_dropped

    # -- state machine ----------------------------------------------------- #

    @property
    def deadline(self) -> Optional[float]:
        if self.timeout is None:
            return None
        return self.submitted_at + self.timeout

    def _transition(self, status: str) -> bool:
        """Move to *status* unless already terminal; True when applied."""
        with self._lock:
            if self.status in TERMINAL_STATES:
                return False
            self.status = status
            if status == "running":
                self.started_at = time.time()
                self.queue_wait = self.started_at - self.submitted_at
            elif status in TERMINAL_STATES:
                self.finished_at = time.time()
                if self.queue_wait is None:
                    self.queue_wait = self.finished_at - self.submitted_at
                self._done.set()
            return True

    def cancel(self) -> bool:
        """Cancel before dispatch; ``False`` once running or terminal."""
        with self._lock:
            if self.status != "queued":
                return False
            self.status = "cancelled"
            self.finished_at = time.time()
            self.queue_wait = self.finished_at - self.submitted_at
            self._done.set()
            return True

    @property
    def finished(self) -> bool:
        return self.status in TERMINAL_STATES

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the request reaches a terminal state (or times out)."""
        return self._done.wait(timeout)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MatchRequest({self.id}, graph={self.graph!r}, {self.status})"


class AdmissionController:
    """A bounded FIFO request queue drained by a fixed worker pool.

    ``submit(request, work)`` either admits the pair into the queue or
    raises :class:`~repro.exceptions.AdmissionError` when ``max_queued``
    requests are already waiting.  ``max_inflight`` worker threads (started
    lazily on first submit) dequeue in FIFO order, honour cancellations and
    queue-wait deadlines, and run ``work(request)`` — any exception marks
    the request ``failed`` and never kills the worker.
    """

    def __init__(
        self,
        *,
        max_inflight: int = 4,
        max_queued: int = 16,
        name: str = "repro-serve",
    ) -> None:
        if max_inflight < 1:
            raise ServiceError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queued < 1:
            raise ServiceError(f"max_queued must be >= 1, got {max_queued}")
        self.max_inflight = max_inflight
        self.max_queued = max_queued
        self._name = name
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=max_queued)
        self._lock = threading.Lock()
        self._workers: List[threading.Thread] = []
        self._closed = False
        # cumulative admission metrics
        self.accepted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.timed_out = 0
        self.inflight = 0
        #: accepted requests answered on the submitting thread (a cache
        #: hit): counted in ``accepted`` and ``completed``, never queued
        self.answered_at_admission = 0
        self.max_queue_depth_seen = 0
        self.total_queue_wait = 0.0
        # measured service time, feeding Retry-After derivation
        self.total_run_seconds = 0.0
        self.runs_measured = 0

    _SHUTDOWN = object()

    # -- submission --------------------------------------------------------- #

    def submit(
        self,
        request: MatchRequest,
        work: Callable[[MatchRequest], None],
    ) -> MatchRequest:
        """Admit *request*; raise :class:`AdmissionError` when over limit."""
        with self._lock:
            if self._closed:
                raise ServiceError("admission controller is shut down")
            self._ensure_workers()
        try:
            self._queue.put_nowait((request, work))
        except queue.Full:
            with self._lock:
                self.rejected += 1
            request._transition("rejected")
            request.error = "admission queue full"
            raise AdmissionError(
                f"request queue full ({self.max_queued} queued, "
                f"{self.max_inflight} in flight); retry later"
            ) from None
        with self._lock:
            self.accepted += 1
            self.max_queue_depth_seen = max(
                self.max_queue_depth_seen, self._queue.qsize()
            )
        return request

    def answered(self, request: MatchRequest) -> MatchRequest:
        """Count *request*, answered on its submitting thread, as accepted
        and done (refused, like :meth:`submit`, once shut down).  It was
        never queued or in flight, so it stays out of the figures that
        ``Retry-After`` derives the worker backlog from."""
        with self._lock:
            if self._closed:
                raise ServiceError("admission controller is shut down")
            request._transition("done")
            self.accepted += 1
            self.completed += 1
            self.answered_at_admission += 1
        return request

    def _ensure_workers(self) -> None:
        """Start the worker pool (idempotent; caller holds the lock)."""
        while len(self._workers) < self.max_inflight:
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"{self._name}-worker-{len(self._workers)}",
                daemon=True,
            )
            self._workers.append(worker)
            worker.start()

    # -- the worker side ---------------------------------------------------- #

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is self._SHUTDOWN:
                return
            request, work = item  # type: ignore[misc]
            self._dispatch(request, work)

    def _dispatch(self, request: MatchRequest, work) -> None:
        if request.status == "cancelled":
            with self._lock:
                self.cancelled += 1
            return
        deadline = request.deadline
        if deadline is not None and time.time() > deadline:
            # counters move under the controller lock *with* the terminal
            # transition: the transition releases wait=true clients, whose
            # next /metrics read must already see this request counted
            with self._lock:
                if request._transition("timeout"):
                    request.error = (
                        f"timed out after waiting {request.timeout:.3f}s in the "
                        f"admission queue"
                    )
                    self.timed_out += 1
            return
        if not request._transition("running"):
            with self._lock:
                self.cancelled += 1
            return
        with self._lock:
            self.inflight += 1
            if request.queue_wait is not None:
                self.total_queue_wait += request.queue_wait
        run_started = time.monotonic()
        outcome = "failed"
        try:
            work(request)
            outcome = "done"
        except Exception as exc:
            request.error = f"{type(exc).__name__}: {exc}"
        finally:
            with self._lock:
                self.inflight -= 1
                self.total_run_seconds += time.monotonic() - run_started
                self.runs_measured += 1
                # "done" is refused when the runner marked the request
                # failed itself
                if request._transition(outcome) and outcome == "done":
                    self.completed += 1
                else:
                    self.failed += 1

    # -- lifecycle / observability ------------------------------------------ #

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a worker (approximate)."""
        return self._queue.qsize()

    def mean_run_seconds(self) -> float:
        """Mean measured per-request service time (0.0 before any run)."""
        with self._lock:
            if not self.runs_measured:
                return 0.0
            return self.total_run_seconds / self.runs_measured

    def retry_after_seconds(self) -> int:
        """A ``Retry-After`` estimate from measured queue state.

        The backlog ahead of a rejected request is ``queue_depth +
        inflight`` runs; the pool clears ``max_inflight`` of them per mean
        run time, so the wait until capacity frees up is roughly
        ``backlog × mean_run / max_inflight``.  Clamped to [1, 600] and
        rounded up to whole seconds (the header's unit); before any run
        has been measured the floor of 1 second applies.
        """
        with self._lock:
            backlog = self._queue.qsize() + self.inflight
            mean_run = (
                self.total_run_seconds / self.runs_measured
                if self.runs_measured
                else 0.0
            )
        estimate = backlog * mean_run / self.max_inflight
        return max(1, min(600, math.ceil(estimate)))

    def metrics(self) -> Dict[str, object]:
        with self._lock:
            queued = self.accepted - self.answered_at_admission
            mean_wait = self.total_queue_wait / queued if queued else 0.0
            mean_run = (
                self.total_run_seconds / self.runs_measured
                if self.runs_measured
                else 0.0
            )
            return {
                "max_inflight": self.max_inflight,
                "max_queued": self.max_queued,
                "queue_depth": self._queue.qsize(),
                "inflight": self.inflight,
                "accepted": self.accepted,
                "rejected": self.rejected,
                "completed": self.completed,
                "answered_at_admission": self.answered_at_admission,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "timed_out": self.timed_out,
                "max_queue_depth_seen": self.max_queue_depth_seen,
                "mean_queue_wait_seconds": mean_wait,
                "mean_run_seconds": mean_run,
            }

    def shutdown(
        self, wait: bool = True, deadline: Optional[float] = None
    ) -> bool:
        """Stop accepting work and (optionally) drain the worker pool.

        Workers finish every request already queued before they see the
        shutdown sentinel (FIFO), so a waited shutdown *is* a drain of
        admitted work.  *deadline* bounds the total time spent joining
        workers (seconds; ``None``: 30s per worker as before).  Returns
        ``True`` when every worker exited within the budget.
        """
        with self._lock:
            already = self._closed
            self._closed = True
            workers = list(self._workers)
        if not already:
            for _ in workers:
                self._queue.put(self._SHUTDOWN)
        if not wait:
            return False
        drained = True
        if deadline is None:
            for worker in workers:
                worker.join(timeout=30.0)
                drained = drained and not worker.is_alive()
        else:
            expires = time.monotonic() + max(0.0, deadline)
            for worker in workers:
                remaining = expires - time.monotonic()
                worker.join(timeout=max(0.0, remaining))
                drained = drained and not worker.is_alive()
        return drained

    def drain(self, deadline: Optional[float] = None) -> bool:
        """Refuse new work, finish everything queued; ``True`` when fully
        drained within *deadline* seconds (``None``: the default budget)."""
        return self.shutdown(wait=True, deadline=deadline)
