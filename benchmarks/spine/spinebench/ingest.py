"""``ingest_recover``: the durable write path and the restart read path.

A run alternates two operations until its time is up, each on fresh state,
so every repeat does identical work:

**Stream**: an ``IngestPipeline`` with a batch-fsynced WAL and a snapshot
store takes the first :data:`STREAM_OPS` ops of the generated mutation
stream in count-triggered windows of 32 (no time trigger: batch boundaries
repeat exactly).  **Recover**: a copy of a 96-op journal whose last window
was journalled and applied but never checkpointed is recovered by
``GraphRegistry.register`` with the registry's own (default) configuration.

One long stream would be the more obvious workload, but a window costs more
the further into the stream it is (26 ms at op 0, 45-80 ms at op 5000), so
how far a timed run gets decides its average, and machine noise feeds back
into the work done.  Identical repeats leave the machine as the only
difference between samples, and each is scaled to reference speed
(``refspeed``).
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.api.session import MatchSession
from repro.core.chase import chase
from repro.core.fingerprint import fingerprint_of, graph_fingerprint
from repro.service.ingest import IngestPipeline, apply_mutation
from repro.service.registry import GraphRegistry
from repro.service.wal import WriteAheadLog, replay
from repro.storage import GraphSnapshot
from repro.storage.store import SnapshotStore

from . import gen
from .harness import Params, finish, mark_rss, repeated_setup, turns
from .schema import Outcome
from .stats import Estimate, median, tail
from .trace import Tracer

NAME = "hot"
#: ops per stream repeat: 24 windows, about a second
STREAM_OPS = 24 * gen.STREAM_WINDOW_OPS
SMOKE_STREAM_OPS = 4 * gen.STREAM_WINDOW_OPS
#: the crash journal: two checkpointed windows and one that never was
CRASH_OPS = 3 * gen.STREAM_WINDOW_OPS
#: ``peak_rss_mb`` is the peak after this many cycles
RSS_AFTER = 4
#: artifact refreshes a flush may pay for; the rest of rerun() is the session's
_REFRESH_PHASES = (
    "snapshot_patch", "snapshot_store_patch", "blocking_index_rebase",
    "candidates_rebase", "dependency_map_rebase", "product_graph_rebase",
)


class TracedStore(SnapshotStore):
    """A snapshot store whose writes open spans."""

    def __init__(self, root, tracer: Optional[Tracer] = None) -> None:
        super().__init__(root)
        # a pickled copy (stores travel inside MatchConfig) traces nothing
        self.tracer = tracer or Tracer("", enabled=False)

    def save(self, snapshot, **kwargs):
        with self.tracer.span("storage.store.save"):
            return super().save(snapshot, **kwargs)

    def patch(self, snapshot, **kwargs):
        with self.tracer.span("storage.store.patch"):
            path = super().patch(snapshot, **kwargs)
        self.tracer.count("storage.store.bytes_written", path.stat().st_size)
        return path


class TracedWal:
    """A write-ahead log whose appends and checkpoints open spans."""

    def __init__(self, wal: WriteAheadLog, tracer: Tracer) -> None:
        self._wal = wal
        self._tracer = tracer

    def append(self, op) -> None:
        with self._tracer.span("service.wal.append"):
            self._wal.append(op)

    def checkpoint(self, fingerprint: str, **kwargs) -> int:
        with self._tracer.span("service.wal.checkpoint"):
            return self._wal.checkpoint(fingerprint, **kwargs)

    def __getattr__(self, name: str):
        return getattr(self._wal, name)


def _store(root: Path, tracer: Tracer) -> SnapshotStore:
    return TracedStore(root, tracer) if tracer.enabled else SnapshotStore(root)


def _session(graph, keys, store: SnapshotStore) -> MatchSession:
    return MatchSession(graph, snapshot_store=store).with_keys(keys).using(
        "EMOptVC", blocking="auto"
    )


@dataclass
class IngestState:
    base: object
    keys: object
    workdir: Path
    stream_ops: List[gen.Op]
    #: what every streamed graph must end as
    stream_pairs: Set
    stream_fingerprint: str
    #: directory holding the crash journal and its store
    crash: Path
    #: what every recovered graph must be
    crash_pairs: Set
    crash_fingerprint: str


def _after(base, keys, ops):
    """Pairs and fingerprint of *base* after *ops*, by the sequential chase."""
    twin = base.copy()
    for op in ops:
        apply_mutation(twin, op)
    return chase(twin, keys, blocking="auto").pairs(), graph_fingerprint(twin)


def _build_crash_journal(params: Params, base, keys, root: Path) -> List[gen.Op]:
    """Ingest :data:`CRASH_OPS` ops under *root*; the last window is
    journalled and applied but the process "dies" before its flush."""
    graph = base.copy()
    session = _session(graph, keys, SnapshotStore(root / "store"))
    session.run()
    wal = WriteAheadLog(
        root / "wal" / NAME, fsync="batch", base_fingerprint=fingerprint_of(graph)
    )
    ops = gen.take(gen.op_stream(base, params.seed + 1), CRASH_OPS)
    covered = CRASH_OPS - gen.STREAM_WINDOW_OPS
    IngestPipeline(
        session, latency_budget=math.inf, max_batch_ops=gen.STREAM_WINDOW_OPS, wal=wal
    ).run(iter(ops[:covered]))
    for op in ops[covered:]:
        wal.append(op)
        apply_mutation(graph, op)
    wal.close()  # releases the file; writes no checkpoint
    return ops


def _setup(params: Params, repeat: int) -> IngestState:
    workdir = params.workdir / f"ingest-{repeat}"
    dataset = gen.hot_dataset(params.seed, params.smoke)
    base, keys = dataset.graph, dataset.keys
    stream_ops = gen.take(
        gen.op_stream(base, params.seed), SMOKE_STREAM_OPS if params.smoke else STREAM_OPS
    )
    stream_pairs, stream_fingerprint = _after(base, keys, stream_ops)
    crash_ops = _build_crash_journal(params, base, keys, workdir / "crash")
    crash_pairs, crash_fingerprint = _after(base, keys, crash_ops)
    return IngestState(
        base=base, keys=keys, workdir=workdir, stream_ops=stream_ops,
        stream_pairs=stream_pairs, stream_fingerprint=stream_fingerprint,
        crash=workdir / "crash", crash_pairs=crash_pairs,
        crash_fingerprint=crash_fingerprint,
    )


# --------------------------------------------------------------------------- #
# the two operations
# --------------------------------------------------------------------------- #


@dataclass
class StreamRepeat:
    """What one stream repeat measured."""

    ms: float
    staleness_p50_ms: float
    staleness_p95_ms: float
    #: per-layer numbers of this repeat (traced repeats only)
    layers: Dict[str, float] = field(default_factory=dict)


def _stream_once(state: IngestState, index: int, tracer: Tracer, params: Params,
                 outcome: Outcome) -> StreamRepeat:
    """A fresh session and journal take the whole stream."""
    root = state.workdir / f"stream-{index}"
    graph = state.base.copy()
    store = _store(root / "store", tracer)
    session = _session(graph, state.keys, store)
    session.run()
    wal = WriteAheadLog(root / "wal", fsync="batch", base_fingerprint=fingerprint_of(graph))
    before = (session.phase_timings(), session.cache_info())
    flush_ms: List[float] = []

    def on_batch(result, report) -> None:
        flush_ms.append(1000.0 * report.rerun_seconds - sum(flush_ms))

    pipeline = IngestPipeline(
        session, latency_budget=math.inf, max_batch_ops=gen.STREAM_WINDOW_OPS,
        wal=TracedWal(wal, tracer) if tracer.enabled else wal,
        on_batch=on_batch if tracer.enabled else None,
    )
    try:
        report, ms = params.stopwatch.timed_ms(
            tracer, "service.ingest.run", lambda: pipeline.run(iter(state.stream_ops))
        )
        outcome.check(
            pipeline.last_result.eq.pairs() == state.stream_pairs
            and fingerprint_of(graph) == state.stream_fingerprint,
            "streamed result or fingerprint != twin after the same ops",
        )
        # the pipeline's own clock, scaled like the repeat it was read in
        scale = 1000.0 / params.stopwatch.slowdowns[-1]
        staleness_ms = [scale * seconds for seconds in pipeline.staleness_samples]
        repeat = StreamRepeat(
            ms, median(staleness_ms).value, tail(staleness_ms, 0.95)[0].value
        )
        if tracer.enabled:
            repeat.layers = _stream_layers(session, store, wal, report, before, flush_ms)
    finally:
        wal.close()
        shutil.rmtree(root, ignore_errors=True)
    return repeat


def _stream_layers(session, store, wal, report, before, flush_ms) -> Dict[str, float]:
    """Per-layer numbers of one stream repeat, from the public counters."""
    timings_before, info_before = before
    timings, info = session.phase_timings(), session.cache_info()
    windows = report.batches

    def per_window_ms(phase: str) -> float:
        return 1000.0 * (timings.get(phase, 0.0) - timings_before.get(phase, 0.0)) / windows

    rechecked = info.pairs_rechecked - info_before.pairs_rechecked
    skipped = info.pairs_skipped - info_before.pairs_skipped
    stored, journal = store.metrics(), wal.metrics()
    return {
        "matching.blocking.index_rebase_ms": per_window_ms("blocking_index_rebase"),
        "matching.candidates.rebase_ms": per_window_ms("candidates_rebase"),
        "matching.product_graph.rebase_ms": per_window_ms("product_graph_rebase"),
        "api.session.rerun_self_ms": (
            1000.0 * report.rerun_seconds / windows
            - sum(per_window_ms(phase) for phase in _REFRESH_PHASES)
        ),
        "matching.incremental.recheck_ratio": rechecked / max(1, rechecked + skipped),
        "storage.store.segments_reused_ratio": stored["patched_segments_reused"] / max(
            1, stored["patched_segments_reused"] + stored["patched_segments_rewritten"]
        ),
        "service.ingest.apply_s": report.apply_seconds,
        "service.ingest.rerun_s": report.rerun_seconds,
        "service.ingest.flush_p50_ms": median(flush_ms).value,
        "service.ingest.windows": windows,
        "service.wal.fsync_calls": journal["fsync_calls"] / max(1, journal["checkpoints"]),
        "service.wal.bytes_per_op": journal["bytes_written"] / max(1, journal["appends"]),
    }


def _recover_once(state: IngestState, index: int, tracer: Tracer, params: Params,
                  outcome: Outcome):
    """A fresh registry recovers a copy of the crash journal; returns the
    milliseconds ``register`` took and its recovery report."""
    copy = state.workdir / f"recover-{index}"
    shutil.copytree(state.crash, copy)
    registry = GraphRegistry(_store(copy / "store", tracer), wal_root=copy / "wal")
    try:
        graph = state.base.copy()
        entry, ms = params.stopwatch.timed_ms(
            tracer, "service.registry.register",
            lambda: registry.register(NAME, graph, state.keys),
        )
        recovery = entry.last_recovery or {}
        _, result = entry.ingest([])  # the recovered session's published result
        outcome.check(
            recovery.get("ops_replayed") == CRASH_OPS
            and result.eq.pairs() == state.crash_pairs
            and fingerprint_of(entry.graph) == state.crash_fingerprint,
            "recovered graph != twin after the journalled ops",
        )
    finally:
        registry.close()
        shutil.rmtree(copy, ignore_errors=True)
    return ms, recovery


def _cycles(state: IngestState, params: Params, tracer: Tracer, outcome: Outcome):
    """Stream, recover, stream, recover ... until the time is up.

    At least one cycle per turn (``harness.turns``).  Returns, per turn,
    the stream repeats and the recovery times, and the last recovery
    report."""
    tracers = turns(tracer)
    streams: List[List[StreamRepeat]] = [[] for _ in tracers]
    recover_ms: List[List[float]] = [[] for _ in tracers]
    recovery: Dict[str, object] = {}
    deadline = time.perf_counter() + params.seconds
    cycle = 0
    while cycle < len(tracers) or time.perf_counter() < deadline:
        turn = cycle % len(tracers)
        with tracers[turn].span("cycle", iteration=cycle):
            streams[turn].append(_stream_once(state, cycle, tracers[turn], params, outcome))
            ms, recovery = _recover_once(state, cycle, tracers[turn], params, outcome)
            recover_ms[turn].append(ms)
        cycle += 1
        mark_rss(outcome, cycle, RSS_AFTER)
    return streams, recover_ms, recovery


# --------------------------------------------------------------------------- #
# layers the cycles do not reach through a public call of their own
# --------------------------------------------------------------------------- #


def _probe_twin(state: IngestState, tracer: Tracer, layer: Dict[str, float]) -> None:
    """``apply_mutation`` and ``GraphSnapshot.patched`` window by window, on
    a twin taking the stream's own windows."""
    twin = state.base.copy()
    snapshot = GraphSnapshot.build(twin)
    size = gen.STREAM_WINDOW_OPS
    for start in range(0, len(state.stream_ops), size):
        with tracer.span("core.graph.apply_mutation", iteration=start // size):
            for op in state.stream_ops[start:start + size]:
                apply_mutation(twin, op)
        with tracer.span("storage.snapshot.patched", iteration=start // size):
            snapshot = snapshot.patched(twin, twin.touched_since(snapshot.version))
    layer["core.graph.apply_us_per_op"] = (
        1000.0 * sum(tracer.durations_ms("core.graph.apply_mutation")) / len(state.stream_ops)
    )
    layer["storage.snapshot.patch_ms"] = median(tracer.durations_ms("storage.snapshot.patched")).value


def _probe_wal(state: IngestState, tracer: Tracer, layer: Dict[str, float]) -> None:
    """The WAL's and the store's read side, called directly on one
    crash-journal copy."""
    copy = state.workdir / "probe"
    shutil.copytree(state.crash, copy)
    wal = WriteAheadLog(copy / "wal" / NAME, fsync="batch")
    with tracer.span("service.wal.scan"):
        wal.state()
    store = SnapshotStore(copy / "store")
    session = _session(state.base.copy(), state.keys, store)
    session.run()
    started = time.perf_counter()
    with tracer.span("service.wal.replay"):
        report = replay(wal, session)
    layer["service.wal.replay_ops_per_s"] = report.ops_replayed / (
        time.perf_counter() - started
    )
    layer["service.wal.scan_ms"] = tracer.durations_ms("service.wal.scan")[0]
    wal.close()
    for _ in range(5):
        with tracer.span("storage.store.load"):
            store.load(session.graph)
    layer["storage.store.load_ms"] = median(tracer.durations_ms("storage.store.load")).value
    shutil.rmtree(copy, ignore_errors=True)


def _layers(state: IngestState, streams: List[StreamRepeat], recovery: Dict[str, object],
            tracer: Tracer, outcome: Outcome) -> None:
    layer = outcome.per_layer
    # the program's counters, as it read them: those of the traced repeat
    # the machine disturbed least
    layer.update(min(streams, key=lambda repeat: repeat.ms).layers)
    layer["storage.store.save_ms"] = median(tracer.durations_ms("storage.store.save")).value
    layer["storage.store.patch_ms"] = median(tracer.durations_ms("storage.store.patch")).value
    layer["storage.store.bytes_written_per_window"] = median(
        tracer.counts["storage.store.bytes_written"]
    ).value
    layer["service.wal.append_us_per_op"] = 1000.0 * median(
        tracer.durations_ms("service.wal.append")
    ).value
    layer["service.wal.checkpoint_ms"] = median(tracer.durations_ms("service.wal.checkpoint")).value
    layer["service.registry.recover_windows"] = recovery.get("batches", 0)
    _probe_twin(state, tracer, layer)
    _probe_wal(state, tracer, layer)


def run_ingest(params: Params, tracer: Tracer) -> Outcome:
    outcome = Outcome("ingest_recover")
    state, setup_s = repeated_setup(
        params,
        lambda repeat: _setup(params, repeat),
        lambda old: shutil.rmtree(old.workdir, ignore_errors=True),
    )
    streams, recover_ms, recovery = _cycles(state, params, tracer, outcome)
    plain = streams[0]
    stream_ms = median([repeat.ms for repeat in plain])
    if tracer.enabled:
        _layers(state, streams[-1], recovery, tracer, outcome)
        outcome.per_layer["trace.overhead_ratio"] = (
            median([repeat.ms for repeat in streams[-1]]).value / stream_ms.value
        )
    end = outcome.end_to_end
    end["primary_ms"] = median([repeat.staleness_p50_ms for repeat in plain])
    end["secondary_ms"] = median([repeat.staleness_p95_ms for repeat in plain])
    end["tertiary_ms"] = median(recover_ms[0])
    end["throughput_per_s"] = Estimate(
        len(state.stream_ops) / (stream_ms.value / 1000.0), stream_ms.n
    )
    return finish(outcome, setup_s)
