"""Streaming ingest: continuous mutation streams batched into delta reruns.

The O(delta) machinery (patched snapshots, incremental fingerprints,
delta files in the store, the support-level delta planner) makes a
single ``rerun()`` cheap — this module turns that into a *pipeline*: a
continuous stream of journalled mutations (JSONL records from a file, a
socket, or the service endpoint) is applied to the live graph and folded
into incremental re-matches in **latency-budgeted batches**.  The pipeline
applies mutations as fast as they arrive and triggers ``session.rerun()``
whenever the oldest unflushed mutation has been waiting longer than the
budget (or a batch-size cap is hit), so the published result is never more
than one batch stale: every mutation is covered by the next flush, and the
flush starts at most ``latency_budget`` seconds after the mutation landed —
a deadline-flush watchdog enforces this even when the stream stalls between
ops (``repro ingest --follow`` on a quiet journal).

The wire format is one JSON object per line::

    {"op": "add_entity",    "id": "e9", "type": "person"}
    {"op": "retype_entity", "id": "e9", "type": "company"}
    {"op": "add_edge",      "subject": "e1", "predicate": "knows", "object": "e2"}
    {"op": "remove_edge",   "subject": "e1", "predicate": "knows", "object": "e2"}
    {"op": "add_value",     "subject": "e1", "predicate": "name", "value": "ada"}
    {"op": "set_value",     "subject": "e1", "predicate": "name", "value": "Ada"}
    {"op": "remove_value",  "subject": "e1", "predicate": "name", "value": "Ada"}

Shared by ``repro ingest`` (file / stdin streams) and the service's
``POST /graphs/<name>/ingest`` endpoint; both report the same
:class:`IngestReport` (mutations/sec, staleness percentiles, delta
provenance aggregates).

Durability and flow control hook in here too: give the pipeline a
``wal`` (:class:`~repro.service.wal.WriteAheadLog`) and every op is
journalled *before* it touches the graph, with a checkpoint record —
carrying the post-flush content fingerprint — written per successful
flush; give it ``max_pending_ops`` and the un-flushed window is bounded
(the pipeline flushes early rather than letting apply-then-flush debt grow
without limit).
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, TextIO

from ..core.fingerprint import fingerprint_of
from ..exceptions import ReproError


class IngestError(ReproError):
    """A malformed mutation record or an inapplicable mutation."""


class IngestFlushError(IngestError):
    """``session.rerun()`` failed inside a flush.

    The ops of the pending window are already applied to the live graph but
    no published result covers them — the graph and ``last_result`` have
    diverged.  ``report`` carries the partial :class:`IngestReport` of
    everything the run *did* publish (``ops_unflushed`` counts the
    uncovered window), and the WAL window — if one is attached — is left
    **un-checkpointed**, so a retry flush or a restart replay covers the
    window instead of losing it.
    """

    def __init__(self, message: str, *, report: "IngestReport" = None):
        super().__init__(message)
        self.report = report


#: the mutation operations the wire format accepts, with required fields
OP_FIELDS: Dict[str, tuple] = {
    "add_entity": ("id", "type"),
    "retype_entity": ("id", "type"),
    "add_edge": ("subject", "predicate", "object"),
    "remove_edge": ("subject", "predicate", "object"),
    "add_value": ("subject", "predicate", "value"),
    "set_value": ("subject", "predicate", "value"),
    "remove_value": ("subject", "predicate", "value"),
}
#: the fields that name an entity, a type or a predicate: strings, always
_NAME_FIELDS = frozenset(("id", "type", "subject", "predicate", "object"))


def apply_mutation(graph, op: Mapping) -> str:
    """Apply one wire-format mutation record to *graph*; returns the op name.

    Raises :class:`IngestError` for unknown operations, missing fields, or
    mutations the graph rejects (e.g. an edge to an unknown entity) — the
    graph's own validation errors pass through wrapped, so a stream with one
    bad record fails loudly instead of silently skewing results.
    """
    kind = op.get("op")
    if kind not in OP_FIELDS:
        known = ", ".join(sorted(OP_FIELDS))
        raise IngestError(f"unknown ingest op {kind!r} (known: {known})")
    missing = [name for name in OP_FIELDS[kind] if name not in op]
    if missing:
        raise IngestError(f"ingest op {kind!r} is missing field(s): {missing}")
    named = [name for name in OP_FIELDS[kind] if name in _NAME_FIELDS]
    if not all(isinstance(op[name], str) for name in named):
        raise IngestError(f"ingest op {kind!r} needs string field(s) {named}: {op!r}")
    try:
        if kind == "add_entity":
            graph.add_entity(op["id"], op["type"])
        elif kind == "retype_entity":
            graph.retype_entity(op["id"], op["type"])
        elif kind == "add_edge":
            graph.add_edge(op["subject"], op["predicate"], op["object"])
        elif kind == "remove_edge":
            graph.remove_edge(op["subject"], op["predicate"], op["object"])
        elif kind == "add_value":
            graph.add_value(op["subject"], op["predicate"], op["value"])
        elif kind == "set_value":
            graph.set_value(op["subject"], op["predicate"], op["value"])
        else:  # remove_value
            graph.remove_value(op["subject"], op["predicate"], op["value"])
    except IngestError:
        raise
    except (ReproError, KeyError, ValueError, TypeError) as error:
        raise IngestError(f"ingest op {op!r} failed: {error}") from error
    return kind


def iter_jsonl(stream: Iterable[str]) -> Iterator[Mapping]:
    """Parse a JSONL mutation stream lazily (blank lines and ``#`` skipped)."""
    for number, line in enumerate(stream, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            record = json.loads(text)
        except ValueError as error:
            raise IngestError(f"line {number}: unparseable JSON: {error}") from error
        if not isinstance(record, dict):
            raise IngestError(f"line {number}: expected a JSON object")
        yield record


@dataclass
class IngestReport:
    """What one ingest run did, and how fast."""

    #: mutations applied to the graph
    ops_applied: int = 0
    #: per-op count, e.g. ``{"add_edge": 12, "set_value": 3}``
    ops_by_kind: Dict[str, int] = field(default_factory=dict)
    #: latency-budget flushes (each one ``session.rerun()``)
    batches: int = 0
    #: flushes whose delta mode was "incremental" / "reused" / "full"
    delta_modes: Dict[str, int] = field(default_factory=dict)
    #: cumulative candidate pairs re-chased across all flushes
    pairs_rechecked: int = 0
    #: wall-clock seconds of the whole run / applying mutations / re-matching
    elapsed_seconds: float = 0.0
    apply_seconds: float = 0.0
    rerun_seconds: float = 0.0
    #: per-mutation staleness: seconds from a mutation landing in the graph
    #: to the first published result covering it (p50/p95/max over all ops)
    staleness_p50: float = 0.0
    staleness_p95: float = 0.0
    staleness_max: float = 0.0
    #: ops applied to the graph but NOT covered by any published result —
    #: non-zero only when a flush failed (see :class:`IngestFlushError`)
    ops_unflushed: int = 0

    @property
    def mutations_per_second(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.ops_applied / self.elapsed_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "ops_applied": self.ops_applied,
            "ops_by_kind": dict(sorted(self.ops_by_kind.items())),
            "batches": self.batches,
            "delta_modes": dict(sorted(self.delta_modes.items())),
            "pairs_rechecked": self.pairs_rechecked,
            "elapsed_seconds": self.elapsed_seconds,
            "apply_seconds": self.apply_seconds,
            "rerun_seconds": self.rerun_seconds,
            "mutations_per_second": self.mutations_per_second,
            "staleness_p50": self.staleness_p50,
            "staleness_p95": self.staleness_p95,
            "staleness_max": self.staleness_max,
            "ops_unflushed": self.ops_unflushed,
        }


def _percentile(sorted_values: List[float], fraction: float) -> float:
    """The nearest-rank *fraction*-quantile of *sorted_values* (0.0 when
    empty): the value at rank ``ceil(fraction * n)``, counting from 1."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


_END = object()


class IngestPipeline:
    """Fold a mutation stream into latency-budgeted incremental reruns.

    The pipeline owns no *consumer* thread: :meth:`run` drives the stream
    iterator inline (a generator reading a file, stdin, or a queue),
    applying each mutation immediately and flushing — one
    ``session.rerun()`` — when the oldest unflushed mutation is older than
    *latency_budget* seconds, when *max_batch_ops* (or *max_pending_ops*)
    mutations have accumulated, or when the stream ends.  A small watchdog
    thread (``deadline_flush=True``, the default) enforces the budget even
    while :meth:`run` is blocked waiting on the next op, so a stalled
    stream cannot hold a pending mutation past its deadline.
    ``session.rerun()`` is bit-identical to a full re-match by the
    incremental-equivalence invariant, so consumers of
    ``pipeline.last_result`` always observe an exact result that is at most
    one batch stale.

    With a ``wal`` attached, each op is appended to the journal before it
    mutates the graph (a rejected op gets a failure marker), and each flush
    writes a checkpoint carrying the post-flush content fingerprint — the
    crash-recovery contract of :mod:`repro.service.wal`.
    """

    def __init__(
        self,
        session,
        *,
        latency_budget: float = 0.25,
        max_batch_ops: Optional[int] = None,
        max_pending_ops: Optional[int] = None,
        wal=None,
        deadline_flush: bool = True,
        on_batch: Optional[Callable[[object, IngestReport], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if latency_budget < 0:
            raise IngestError("latency_budget must be >= 0 seconds")
        if max_batch_ops is not None and max_batch_ops < 1:
            raise IngestError("max_batch_ops must be >= 1")
        if max_pending_ops is not None and max_pending_ops < 1:
            raise IngestError("max_pending_ops must be >= 1")
        self.session = session
        self.latency_budget = latency_budget
        self.max_batch_ops = max_batch_ops
        self.max_pending_ops = max_pending_ops
        self.wal = wal
        self.deadline_flush = deadline_flush
        self.on_batch = on_batch
        self._clock = clock
        #: the newest published (exact) result; at most one batch stale
        self.last_result = None
        # run()-scoped state, guarded by _run_lock so the watchdog thread
        # and the consuming loop never flush concurrently
        self._run_lock = threading.Lock()
        self._running = False
        self._report: Optional[IngestReport] = None
        self._staleness: List[float] = []
        self._pending_applied_at: List[float] = []
        self._batch_started: Optional[float] = None
        self._flush_error: Optional[IngestError] = None

    @property
    def pending_ops(self) -> int:
        """Mutations applied but not yet covered by a flush."""
        with self._run_lock:
            return len(self._pending_applied_at)

    # -- internals (all called with _run_lock held) ------------------------- #

    def _apply(self, op: Mapping) -> None:
        clock = self._clock
        report = self._report
        apply_started = clock()
        if self.wal is not None:
            self.wal.append(op)
        try:
            kind = apply_mutation(self.session.graph, op)
        except IngestError:
            if self.wal is not None:
                self.wal.mark_failed()
            raise
        now = clock()
        report.apply_seconds += now - apply_started
        report.ops_applied += 1
        report.ops_by_kind[kind] = report.ops_by_kind.get(kind, 0) + 1
        self._pending_applied_at.append(now)
        if self._batch_started is None:
            self._batch_started = now

    def _window_full(self) -> bool:
        pending = len(self._pending_applied_at)
        if self.max_batch_ops is not None and pending >= self.max_batch_ops:
            return True
        if self.max_pending_ops is not None and pending >= self.max_pending_ops:
            return True
        return False

    def _budget_exceeded(self) -> bool:
        if self._batch_started is None:
            return False
        return self._clock() - self._batch_started >= self.latency_budget

    def _flush(self) -> None:
        report = self._report
        if not self._pending_applied_at:
            return
        clock = self._clock
        rerun_started = clock()
        try:
            result = self.session.rerun()
        except Exception as error:
            report.rerun_seconds += clock() - rerun_started
            report.ops_unflushed = len(self._pending_applied_at)
            raise IngestFlushError(
                f"flush failed with {len(self._pending_applied_at)} op(s) "
                f"applied to the live graph but not covered by any published "
                f"result: {error}",
                report=report,
            ) from error
        finished = clock()
        self.last_result = result
        report.batches += 1
        report.rerun_seconds += finished - rerun_started
        self._staleness.extend(
            finished - applied for applied in self._pending_applied_at
        )
        self._pending_applied_at.clear()
        self._batch_started = None
        delta = self.session.last_delta()
        if delta is not None:
            report.delta_modes[delta.mode] = (
                report.delta_modes.get(delta.mode, 0) + 1
            )
            report.pairs_rechecked += delta.pairs_rechecked
        # published: now the journal and the snapshot store catch up
        if self.wal is not None:
            self.wal.checkpoint(fingerprint_of(self.session.graph))
        self.session.write_owed_snapshot()
        if self.on_batch is not None:
            self.on_batch(result, report)

    def _watchdog(self, stop: threading.Event, interval: float) -> None:
        """Flush the pending window when its deadline passes even though the
        consuming loop is still blocked on the stream.  Errors never escape
        this thread: they park in ``_flush_error`` for the main loop."""
        while not stop.wait(interval):
            with self._run_lock:
                if not self._running or self._flush_error is not None:
                    return
                if self._pending_applied_at and self._budget_exceeded():
                    try:
                        self._flush()
                    except IngestError as error:
                        self._flush_error = error
                        return

    def _check_flush_error(self) -> None:
        if self._flush_error is not None:
            error, self._flush_error = self._flush_error, None
            raise error

    def _finalize(self, report: IngestReport, started: float) -> None:
        report.elapsed_seconds = self._clock() - started
        self._staleness.sort()
        report.staleness_p50 = _percentile(self._staleness, 0.50)
        report.staleness_p95 = _percentile(self._staleness, 0.95)
        report.staleness_max = self._staleness[-1] if self._staleness else 0.0

    @property
    def staleness_samples(self) -> List[float]:
        """The per-mutation staleness samples of the last / current run."""
        with self._run_lock:
            return list(self._staleness)

    # -- the consuming loop ------------------------------------------------- #

    def run(self, ops: Iterable[Mapping]) -> IngestReport:
        """Consume *ops* to exhaustion; returns the run's :class:`IngestReport`.

        On return every mutation of the stream is reflected in
        :attr:`last_result` (the final partial batch is always flushed).
        """
        report = IngestReport()
        clock = self._clock
        started = clock()
        with self._run_lock:
            if self._running:
                raise IngestError("pipeline is already running a stream")
            self._running = True
            self._report = report
            self._staleness = []
            self._pending_applied_at = []
            self._batch_started = None
            self._flush_error = None
        stop = threading.Event()
        watchdog = None
        if self.deadline_flush and 0.0 < self.latency_budget < float("inf"):
            interval = max(0.005, min(0.05, self.latency_budget / 4.0))
            watchdog = threading.Thread(
                target=self._watchdog,
                args=(stop, interval),
                name="ingest-deadline-flush",
                daemon=True,
            )
            watchdog.start()
        iterator = iter(ops)
        try:
            while True:
                # pull the next op OUTSIDE the lock: the stream may block
                # indefinitely (follow mode) and the watchdog must be able
                # to flush the pending window meanwhile
                op = next(iterator, _END)
                with self._run_lock:
                    self._check_flush_error()
                    if op is _END:
                        self._flush()
                        break
                    self._apply(op)
                    if self._budget_exceeded() or self._window_full():
                        self._flush()
        except IngestFlushError:
            with self._run_lock:
                self._finalize(report, started)
            raise
        finally:
            stop.set()
            with self._run_lock:
                self._running = False
            if watchdog is not None:
                watchdog.join(timeout=5.0)
        with self._run_lock:
            self._finalize(report, started)
        return report


def ingest_stream(
    session,
    stream: TextIO,
    *,
    latency_budget: float = 0.25,
    max_batch_ops: Optional[int] = None,
    max_pending_ops: Optional[int] = None,
    wal=None,
    on_batch: Optional[Callable[[object, IngestReport], None]] = None,
) -> IngestReport:
    """Run an :class:`IngestPipeline` over a JSONL text *stream*."""
    pipeline = IngestPipeline(
        session,
        latency_budget=latency_budget,
        max_batch_ops=max_batch_ops,
        max_pending_ops=max_pending_ops,
        wal=wal,
        on_batch=on_batch,
    )
    return pipeline.run(iter_jsonl(stream))
