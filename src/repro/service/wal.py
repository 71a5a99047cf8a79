"""Per-graph write-ahead op journal: crash-safe streaming ingest.

The delta pipeline applies journalled mutations to the *live* graph and
publishes results in latency-budgeted batches — fast, but fragile: a
crashed ``repro serve`` used to lose every op of the un-flushed window
silently.  :class:`WriteAheadLog` closes that hole with the classic WAL
contract:

* **append before apply** — every ingest op is made durable in an
  append-only JSONL segment *before* it mutates the graph;
* **checkpoint per flushed batch** — when the pipeline flushes (one
  ``session.rerun()`` covering the batch), a checkpoint record carrying the
  post-flush :func:`~repro.core.fingerprint.fingerprint_of` is appended, so
  recovery knows exactly which prefix of the journal the published result
  covers;
* **replay on restart** — :func:`replay` applies the un-covered suffix to
  the graph, verifying the graph's O(1) fingerprint accumulator against
  every checkpoint record it passes, then solves **once**: the checkpoints
  need no solve to verify, and only the last fixpoint is ever read.  The
  recovered result is bit-identical to the uninterrupted run's because
  ``chase(G, Σ)`` is a function of ``(G, Σ)`` (fatal gate in
  ``benchmarks/bench_ingest.py``).

Layout: one directory per graph holding numbered segments
(``wal-00000001.jsonl``, …).  Each segment opens with a header line naming
the graph fingerprint its first record applies to; records are one JSON
object per line::

    {"wal": 1, "segment": 3, "base": "<fingerprint>"}      # header
    {"op": "add_value", "subject": "e1", ...}              # ingest op
    {"failed": 1}                                          # op was rejected
    {"checkpoint": "<fingerprint>", "ops": 12}             # flushed batch

Durability is tunable per deployment via the fsync policy: ``always``
(fsync every record — survives OS crash, slowest), ``batch`` (fsync at
checkpoints — a crash loses at most one un-checkpointed window's
*durability*, never its acknowledgement, since checkpoints follow the
publish), and ``off`` (buffered writes only — survives process SIGKILL but
not OS crash).  A torn final line (the crash interrupted ``write``) is
repaired on open by truncating to the last complete record; torn records
anywhere else are corruption and raise :class:`~repro.exceptions.WalError`.

A write fault (``write``, ``flush`` or ``fsync`` raising ``OSError``, e.g.
``ENOSPC``) is fail-stop: it surfaces as :class:`~repro.exceptions.WalError`,
and the log refuses every later record until it is reopened — reopening
repairs the torn tail the fault may have left, so no record ever lands
after a torn one.  An op whose append failed was never journalled, and the
ingest path never applies it.

Retention: ``retain="all"`` (default) keeps every segment, so recovery can
replay from the graph's *registration-time* base state.  ``retain="window"``
deletes fully-checkpointed segments when the current one rolls over
(``segment_max_bytes``) — for deployments where checkpointed state is
durable elsewhere.  Nothing here rebuilds that state: the caller registers
the graph at the journal base or at a recorded checkpoint (the fingerprint
:meth:`WriteAheadLog.recovery_plan` is handed must be one of them), and
:func:`replay` replays only the retained suffix past it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from ..core.fingerprint import fingerprint_of
from ..exceptions import WalError

#: accepted fsync policies, strongest first
FSYNC_POLICIES = ("always", "batch", "off")

#: accepted retention policies
RETAIN_POLICIES = ("all", "window")

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".jsonl"
_FORMAT_VERSION = 1

#: default segment rollover threshold (bytes)
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024


@dataclass
class WalCheckpoint:
    """One checkpoint record: the journal prefix a published result covers."""

    fingerprint: str
    #: ops flushed by the batch this checkpoint closes
    ops: int
    #: index into the retained op sequence (ops strictly before this record)
    position: int
    note: str = ""


@dataclass
class WalState:
    """Parsed content of every retained segment, oldest first."""

    #: fingerprint the oldest retained segment's first record applies to
    base_fingerprint: Optional[str]
    #: every surviving op, in append order (failed ops already excluded)
    ops: List[Mapping] = field(default_factory=list)
    checkpoints: List[WalCheckpoint] = field(default_factory=list)
    #: a torn final line was found (and repaired) on the last segment
    torn_tail: bool = False

    @property
    def pending_ops(self) -> List[Mapping]:
        """Ops after the last checkpoint — applied (or accepted) but never
        covered by a published, checkpointed result."""
        if not self.checkpoints:
            return list(self.ops)
        return self.ops[self.checkpoints[-1].position:]

    @property
    def last_fingerprint(self) -> Optional[str]:
        if self.checkpoints:
            return self.checkpoints[-1].fingerprint
        return self.base_fingerprint


@dataclass
class ReplaySpan:
    """One replay unit: ops up to (and verified against) a checkpoint."""

    ops: List[Mapping]
    #: fingerprint the graph must show after applying *ops* (``None``: the
    #: un-checkpointed tail — nothing recorded to verify against)
    expected_fingerprint: Optional[str]


class WriteAheadLog:
    """An append-only, segmented JSONL op journal for one graph.

    Thread-safe: appends, checkpoints and metrics take an internal lock
    (the ingest path is already serialized per graph, but recovery and
    metrics scrapes may race it).
    """

    def __init__(
        self,
        root: Union[str, os.PathLike],
        *,
        fsync: str = "batch",
        retain: str = "all",
        segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
        base_fingerprint: Optional[str] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise WalError(
                f"unknown fsync policy {fsync!r} (known: {', '.join(FSYNC_POLICIES)})"
            )
        if retain not in RETAIN_POLICIES:
            raise WalError(
                f"unknown retention policy {retain!r} "
                f"(known: {', '.join(RETAIN_POLICIES)})"
            )
        if segment_max_bytes < 1:
            raise WalError("segment_max_bytes must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync
        self.retain = retain
        self.segment_max_bytes = segment_max_bytes
        self._lock = threading.RLock()
        self._handle = None
        self._closed = False
        # the write fault that stopped this log (it refuses records until reopened)
        self._fault: Optional[OSError] = None
        # metrics
        self.appends = 0
        self.checkpoints_written = 0
        self.bytes_written = 0
        self.fsync_calls = 0
        self.segments_created = 0
        self.segments_removed = 0
        self.replays = 0
        self.replayed_ops = 0
        self.repaired_tail_bytes = 0

        existing = self._segment_paths()
        if existing:
            state = self._scan(repair=True)
            self._pending = len(state.pending_ops)
            self._last_fingerprint = state.last_fingerprint
            self._current_seq = self._seq_of(existing[-1])
            self._current_bytes = existing[-1].stat().st_size
        else:
            self._pending = 0
            self._last_fingerprint = base_fingerprint
            self._current_seq = 0
            self._current_bytes = 0

    # -- segment plumbing --------------------------------------------------- #

    @staticmethod
    def _seq_of(path: Path) -> int:
        return int(path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)])

    def _segment_paths(self) -> List[Path]:
        paths = [
            path
            for path in self.root.iterdir()
            if path.name.startswith(_SEGMENT_PREFIX)
            and path.name.endswith(_SEGMENT_SUFFIX)
        ]
        return sorted(paths, key=self._seq_of)

    def _segment_path(self, seq: int) -> Path:
        return self.root / f"{_SEGMENT_PREFIX}{seq:08d}{_SEGMENT_SUFFIX}"

    def _fsync_dir(self) -> None:
        try:
            fd = os.open(self.root, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _open_segment(self) -> None:
        """Open (creating if needed) the segment the next record goes to."""
        if self._handle is not None:
            return
        if self._current_seq == 0 or not self._segment_path(self._current_seq).exists():
            self._current_seq += 1
            path = self._segment_path(self._current_seq)
            self._handle = open(path, "ab")
            header = {
                "wal": _FORMAT_VERSION,
                "segment": self._current_seq,
                "base": self._last_fingerprint,
            }
            self._write_record(header)
            self.segments_created += 1
            self._fsync_dir()
        else:
            self._handle = open(self._segment_path(self._current_seq), "ab")

    def _write_record(self, record: Dict) -> None:
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        self._handle.write(line)
        self._handle.flush()
        self._current_bytes += len(line)
        self.bytes_written += len(line)

    def _fsync_file(self) -> None:
        os.fsync(self._handle.fileno())
        self.fsync_calls += 1

    def _roll_segment(self) -> None:
        """Close the full segment; the next append opens a fresh one whose
        header base is the latest checkpoint fingerprint.  Under
        ``retain="window"`` every older (fully checkpointed) segment is
        deleted — rolls only happen right after a checkpoint, so every
        non-current segment ends on one."""
        self._handle.close()
        self._handle = None
        closed_seq = self._current_seq
        self._current_seq += 1
        path = self._segment_path(self._current_seq)
        self._handle = open(path, "ab")
        self._current_bytes = 0
        self._write_record(
            {
                "wal": _FORMAT_VERSION,
                "segment": self._current_seq,
                "base": self._last_fingerprint,
            }
        )
        self.segments_created += 1
        if self.retain == "window":
            for old in self._segment_paths():
                if self._seq_of(old) <= closed_seq:
                    old.unlink()
                    self.segments_removed += 1
        self._fsync_dir()

    # -- the write side ----------------------------------------------------- #

    def _durable(self, record: Dict, fsync: bool) -> None:
        """Write *record* (and fsync it when *fsync*), fail-stop."""

        def write() -> None:
            self._open_segment()
            self._write_record(record)
            if fsync:
                self._fsync_file()

        self._guarded(write)

    def _guarded(self, write: Callable[[], None]) -> None:
        """Run *write*, fail-stop: an ``OSError`` from an open, a write, a
        flush or an fsync stops the log and surfaces as :class:`WalError`."""
        try:
            write()
        except OSError as error:
            self._fault = error
            handle, self._handle = self._handle, None
            if handle is not None:
                try:
                    handle.close()
                except OSError:
                    pass
            raise WalError(
                f"write-ahead log at {self.root} failed to write a record ({error}); "
                f"it refuses further records until reopened"
            ) from error

    def append(self, op: Mapping) -> None:
        """Journal one ingest op (call *before* applying it to the graph)."""
        with self._lock:
            self._check_open()
            self._durable(dict(op), self.fsync_policy == "always")
            self.appends += 1
            self._pending += 1

    def mark_failed(self) -> None:
        """Record that the most recently appended op was *rejected* by the
        graph (never applied) — replay must skip it."""
        with self._lock:
            self._check_open()
            if self._pending < 1:
                raise WalError("mark_failed with no pending op to disown")
            self._durable({"failed": 1}, self.fsync_policy == "always")
            self._pending -= 1

    def checkpoint(self, fingerprint: str, *, note: str = "") -> int:
        """Mark every journalled op so far as covered by a published result
        whose post-flush graph fingerprint is *fingerprint*.  Returns the
        number of ops the checkpoint newly covers."""
        with self._lock:
            self._check_open()
            record: Dict[str, object] = {"checkpoint": fingerprint, "ops": self._pending}
            if note:
                record["note"] = note
            self._durable(record, self.fsync_policy in ("always", "batch"))
            covered = self._pending
            self._pending = 0
            self._last_fingerprint = fingerprint
            self.checkpoints_written += 1
            if self._current_bytes >= self.segment_max_bytes:
                self._guarded(self._roll_segment)
            return covered

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                if self.fsync_policy != "off":
                    self._fsync_file()
                self._handle.close()
                self._handle = None
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise WalError(f"write-ahead log at {self.root} is closed")
        if self._fault is not None:
            raise WalError(
                f"write-ahead log at {self.root} stopped at a write fault "
                f"({self._fault}); reopen it to repair the journal"
            )

    # -- the read / recovery side ------------------------------------------- #

    def _scan(self, repair: bool = False) -> WalState:
        """Parse every retained segment into a :class:`WalState`.

        With ``repair=True`` a torn final line on the *last* segment is
        truncated away (the crash interrupted the write; the op was never
        acknowledged).  Undecodable bytes anywhere else raise
        :class:`WalError` — that is corruption, not a crash artifact.
        """
        paths = self._segment_paths()
        state = WalState(base_fingerprint=None)
        for index, path in enumerate(paths):
            last_segment = index == len(paths) - 1
            raw = path.read_bytes()
            good_bytes = 0
            for line_number, line in enumerate(raw.split(b"\n"), start=1):
                if not line.strip():
                    good_bytes += len(line) + 1
                    continue
                try:
                    record = json.loads(line.decode("utf-8"))
                    if not isinstance(record, dict):
                        raise ValueError("expected a JSON object")
                except (ValueError, UnicodeDecodeError) as error:
                    complete = good_bytes + len(line) < len(raw)
                    if last_segment and not complete:
                        # torn tail: the crash interrupted this write
                        state.torn_tail = True
                        if repair:
                            torn = len(raw) - good_bytes
                            with open(path, "r+b") as handle:
                                handle.truncate(good_bytes)
                            self.repaired_tail_bytes += torn
                        break
                    raise WalError(
                        f"corrupt WAL record at {path.name}:{line_number}: {error}"
                    ) from error
                good_bytes += len(line) + 1
                if "wal" in record:
                    if record.get("wal") != _FORMAT_VERSION:
                        raise WalError(
                            f"unsupported WAL format version {record.get('wal')!r} "
                            f"in {path.name} (this build reads {_FORMAT_VERSION})"
                        )
                    if state.base_fingerprint is None:
                        state.base_fingerprint = record.get("base")
                elif "checkpoint" in record:
                    state.checkpoints.append(
                        WalCheckpoint(
                            fingerprint=record["checkpoint"],
                            ops=int(record.get("ops", 0)),
                            position=len(state.ops),
                            note=str(record.get("note", "")),
                        )
                    )
                elif "failed" in record:
                    if not state.ops:
                        raise WalError(
                            f"orphan failure marker at {path.name}:{line_number}"
                        )
                    state.ops.pop()
                else:
                    state.ops.append(record)
        return state

    def state(self) -> WalState:
        """A fresh parse of the retained journal."""
        with self._lock:
            return self._scan(repair=False)

    def has_records(self) -> bool:
        """Any op or checkpoint on disk (an empty directory is a fresh WAL)."""
        with self._lock:
            state = self._scan(repair=False)
            return bool(state.ops or state.checkpoints)

    @property
    def pending_count(self) -> int:
        """Ops journalled but not yet covered by a checkpoint."""
        return self._pending

    def recovery_plan(self, current_fingerprint: str) -> List[ReplaySpan]:
        """The checkpoint-aligned spans to replay onto a graph whose content
        fingerprint is *current_fingerprint*.

        The graph may be at the journal's base state (replay everything), at
        any recorded checkpoint (replay the suffix), or already at the last
        checkpoint with no pending tail (nothing to replay).  Any other
        state means this journal does not describe that graph — a hard
        :class:`WalError`, never a silent skip.
        """
        with self._lock:
            state = self._scan(repair=False)
        if not state.ops and not state.checkpoints:
            return []
        # positions where the graph fingerprint is known, oldest first
        known: List[Tuple[int, Optional[str]]] = [(0, state.base_fingerprint)]
        known.extend((c.position, c.fingerprint) for c in state.checkpoints)
        start: Optional[int] = None
        for position, fingerprint in reversed(known):
            if fingerprint == current_fingerprint:
                start = position
                break
        if start is None:
            recorded = ", ".join(
                (fp or "?")[:12] for _, fp in known
            )
            raise WalError(
                f"WAL at {self.root} does not describe this graph: its "
                f"fingerprint {current_fingerprint[:12]}… matches neither the "
                f"journal base nor any checkpoint ({recorded}…)"
            )
        spans: List[ReplaySpan] = []
        cursor = start
        for ckpt in state.checkpoints:
            if ckpt.position <= start:
                continue
            spans.append(
                ReplaySpan(
                    ops=state.ops[cursor:ckpt.position],
                    expected_fingerprint=ckpt.fingerprint,
                )
            )
            cursor = ckpt.position
        if cursor < len(state.ops):
            spans.append(
                ReplaySpan(ops=state.ops[cursor:], expected_fingerprint=None)
            )
        return spans

    # -- observability ------------------------------------------------------ #

    def metrics(self) -> Dict[str, object]:
        with self._lock:
            return {
                "root": str(self.root),
                "fsync_policy": self.fsync_policy,
                "retain": self.retain,
                "segments": len(self._segment_paths()),
                "segments_created": self.segments_created,
                "segments_removed": self.segments_removed,
                "appends": self.appends,
                "checkpoints": self.checkpoints_written,
                "pending_ops": self._pending,
                "bytes_written": self.bytes_written,
                "fsync_calls": self.fsync_calls,
                "replays": self.replays,
                "replayed_ops": self.replayed_ops,
                "repaired_tail_bytes": self.repaired_tail_bytes,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WriteAheadLog({str(self.root)!r}, fsync={self.fsync_policy}, "
            f"pending={self._pending})"
        )


# --------------------------------------------------------------------------- #
# recovery
# --------------------------------------------------------------------------- #


@dataclass
class ReplayReport:
    """What one WAL recovery did."""

    ops_replayed: int = 0
    #: solves the recovery ran: 1, or 0 when there was nothing to replay —
    #: never one per journalled window
    batches: int = 0
    checkpoints_verified: int = 0
    #: ops after the last checkpoint (the window a crash would have lost)
    pending_replayed: int = 0
    rerun_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    final_fingerprint: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "ops_replayed": self.ops_replayed,
            "batches": self.batches,
            "checkpoints_verified": self.checkpoints_verified,
            "pending_replayed": self.pending_replayed,
            "rerun_seconds": self.rerun_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "final_fingerprint": self.final_fingerprint,
        }


def replay(
    wal: WriteAheadLog,
    session,
    *,
    on_batch: Optional[Callable] = None,
) -> ReplayReport:
    """Replay the journal's un-covered suffix onto the session's graph and
    solve once.

    The session's graph must be at the journal base or at a recorded
    checkpoint (see :meth:`WriteAheadLog.recovery_plan`).  Every span's ops
    are applied with :func:`~repro.service.ingest.apply_mutation` — a
    rejected op raises there and then, nothing is skipped — and the graph's
    fingerprint accumulator is verified against every checkpoint record
    passed, which takes no solve.  One ``session.rerun()`` then covers the
    whole suffix, whatever the number of journalled windows: a session
    holding a fixpoint at the journal base plans them as one delta window,
    any other runs in full.  *on_batch* ``(result, report)`` fires after
    that solve.  On success a recovery checkpoint is appended, so the
    journal is fully covered again and a second restart replays nothing.
    """
    from .ingest import apply_mutation  # lazy: ingest stays WAL-agnostic

    started = time.monotonic()
    graph = session.graph
    report = ReplayReport(final_fingerprint=fingerprint_of(graph))
    spans = wal.recovery_plan(report.final_fingerprint)
    for span in spans:
        for op in span.ops:
            apply_mutation(graph, op)
        report.ops_replayed += len(span.ops)
        if span.expected_fingerprint is None:
            report.pending_replayed += len(span.ops)
        else:
            # an empty span still re-verifies the checkpoint fingerprint
            _verify(
                graph, span.expected_fingerprint, wal, report.checkpoints_verified + 1
            )
            report.checkpoints_verified += 1
    if report.ops_replayed:
        rerun_started = time.monotonic()
        result = session.rerun()
        report.rerun_seconds = time.monotonic() - rerun_started
        session.write_owed_snapshot()
        report.batches = 1
        if on_batch is not None:
            on_batch(result, report)
    report.final_fingerprint = fingerprint_of(graph)
    if spans:
        wal.checkpoint(report.final_fingerprint, note="recovery")
    with wal._lock:
        wal.replays += 1
        wal.replayed_ops += report.ops_replayed
    report.elapsed_seconds = time.monotonic() - started
    return report


def _verify(graph, expected: str, wal: WriteAheadLog, ordinal: int) -> None:
    actual = fingerprint_of(graph)
    if actual != expected:
        raise WalError(
            f"WAL replay diverged: graph fingerprint {actual[:12]}… does not "
            f"match checkpoint {ordinal} of this recovery ({expected[:12]}…) "
            f"recorded in {wal.root} — the journal does not describe this "
            f"graph's history"
        )
