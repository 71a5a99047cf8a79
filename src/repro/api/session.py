"""``MatchSession``: one configurable entry point for repeated matching runs.

A session owns a graph, a key set and the expensive precomputed artifacts the
backends share — the compiled snapshot, its
:class:`~repro.storage.neighborhoods.SnapshotNeighborhoodIndex`, the
candidate sets (per filter flavour) and the product graph — so a benchmark
sweep that runs all six algorithms on the same input builds each of them
exactly once instead of once per algorithm::

    from repro import MatchSession

    session = MatchSession(graph).with_keys(keys)
    opt = session.using("EMOptVC", processors=8, fanout=4).run()
    mr = session.run("EMOptMR")          # reuses the neighbourhood index

Sessions also support incremental re-matching: mutating the graph (e.g.
``graph.add_value(...)`` or ``graph.remove_edge(...)``) between runs is
detected via the graph's mutation journal, and only the artifacts a mutation
could have staled are evicted or rebased before the next run.  Going further,
``session.rerun()`` (= ``run(incremental=True)``) seeds the next run from the
fixpoint the artifact cache holds and re-chases only the journal-affected
candidate pairs — bit-identical to a full run, with
:meth:`MatchSession.last_delta` reporting the delta provenance.  Observers
registered with :meth:`MatchSession.on_progress` receive per-round
:class:`~repro.api.events.ProgressEvent` notifications, and
:attr:`MatchSession.history` records the (config, result) provenance of every
run.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from ..core.graph import Graph
from ..core.key import KeySet
from ..exceptions import MatchingError
from ..matching.artifacts import SessionArtifacts, SessionCacheInfo
from ..matching.incremental import IncrementalState, plan_session_delta
from ..matching.result import EMResult
from ..storage.store import SnapshotStore, as_snapshot_store
from .config import MatchConfig
from .events import _LOGGER as _EVENT_LOGGER
from .events import EventStream, ProgressEvent, ProgressObserver
from .registry import ALGORITHMS, AlgorithmSpec, get_algorithm

__all__ = [
    "DeltaProvenance",
    "MatchSession",
    "Session",
]


@dataclass(frozen=True)
class DeltaProvenance:
    """How the last requested incremental run was actually executed."""

    #: ``"incremental"`` (delta re-chase), ``"reused"`` (delta touched
    #: nothing: previous result returned as-is) or ``"full"`` (fallback).
    mode: str
    #: why an incremental request fell back to a full run (``mode="full"``).
    reason: Optional[str] = None
    #: journal-delta statistics (zero for full fallbacks).
    touched_nodes: int = 0
    pairs_rechecked: int = 0
    pairs_skipped: int = 0
    dropped_classes: int = 0
    seed_merges: int = 0


class MatchSession:
    """A fluent facade over the algorithm registry with artifact caching.

    Sessions are safe for concurrent callers: :meth:`run` bodies serialize on
    a per-session lock (so concurrent ``run()`` / :meth:`run_async` calls on
    one session are bit-identical to issuing them serially), while sibling
    sessions run fully in parallel.  Passing a shared ``artifacts`` cache —
    or configuring sibling sessions with one shared ``snapshot_store`` —
    lets many sessions on the same graph pay for each expensive artifact
    exactly once (the service layer's multiplexing contract).  The seed of
    incremental re-matching and the run shapes' held results live in that
    cache too, so a sibling session's fixpoint seeds this one's next
    :meth:`rerun`, and a sibling's result at the current graph version is
    this session's ``reused`` answer under the same run shape.  A session
    holds no result of its own: it is a view (keys, config, observers) over
    the cache, cheap enough to build per request.
    """

    def __init__(
        self,
        graph: Graph,
        keys: Optional[KeySet] = None,
        config: Optional[MatchConfig] = None,
        *,
        snapshot_store: Union[None, str, "os.PathLike", SnapshotStore] = None,
        artifacts: Optional[SessionArtifacts] = None,
    ) -> None:
        if artifacts is not None:
            if artifacts.graph is not graph:
                raise MatchingError(
                    "shared artifacts were built for a different graph object"
                )
            if keys is None:
                keys = artifacts.keys
            elif keys is not artifacts.keys:
                raise MatchingError(
                    "shared artifacts were built for a different key set"
                )
        self._graph = graph
        self._keys = keys
        self._config = config or MatchConfig()
        if snapshot_store is not None:
            self._config = replace(self._config, snapshot_store=snapshot_store)
        self._artifacts: Optional[SessionArtifacts] = artifacts
        # injected (service-shared) artifact caches are never rekeyed by
        # this session's with_keys — other tenants still match under the
        # registered keys, so the session detaches instead
        self._owns_artifacts = artifacts is None
        self._observers: List[ProgressObserver] = []
        self._history: Deque[Tuple[MatchConfig, EMResult]] = deque(
            maxlen=self._MAX_HISTORY
        )
        #: run-body lock: concurrent runs on one session serialize here
        self._lock = threading.RLock()
        #: (observer, exception) pairs recorded by the hardened dispatcher,
        #: newest last (bounded; see _MAX_OBSERVER_ERRORS)
        self._observer_errors: List[Tuple[ProgressObserver, BaseException]] = []
        #: delta provenance of the last run (None for classic full runs)
        self._last_delta: Optional[DeltaProvenance] = None

    #: how many observer failures a session remembers (oldest evicted first)
    _MAX_OBSERVER_ERRORS = 32

    #: how many (config, result) runs :attr:`history` retains: a long-lived
    #: session (an ingest pipeline's, or a library caller's) must not pin
    #: every window's ``EMResult`` for the life of the process
    _MAX_HISTORY = 64

    # -- fluent configuration -------------------------------------------- #

    def with_keys(self, keys: KeySet) -> "MatchSession":
        """Set (or replace) the key set, invalidating by key-set *delta*.

        When the session already holds built artifacts, the new key set is
        diffed per entity type against the keys the artifacts were built
        under (a snapshot taken at build time, so in-place ``KeySet.add``
        mutations are detected too): the compiled snapshot and the cached
        neighbourhoods / candidate verdicts / dependency rows of unchanged
        types all survive, and only the changed types' entries are
        re-derived on the next run (see :meth:`SessionArtifacts.rekeyed`).
        The incremental seed state and the held results are dropped
        whenever the delta is non-empty: a previous result under different
        keys is not a valid seed.
        """
        with self._lock:
            if self._artifacts is not None:
                if self._owns_artifacts:
                    self._artifacts.rekeyed(keys)
                else:
                    # shared cache: detach rather than rekey other tenants
                    self._artifacts = None
            self._keys = keys
        return self

    def using(
        self,
        algorithm: str,
        *,
        processors: Optional[int] = None,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        snapshot_store: Union[None, str, "os.PathLike", SnapshotStore] = None,
        incremental: Optional[bool] = None,
        blocking: Optional[str] = None,
        **options: object,
    ) -> "MatchSession":
        """Choose the default algorithm (and its options) for :meth:`run`.

        ``executor`` / ``workers`` select the real execution runtime for the
        chosen backend (``None`` keeps the session default / classic path).
        The session default is inherited only by backends that support
        executors — the same gate :meth:`run` applies — so
        ``using("chase").run()`` and ``run("chase")`` behave identically.
        ``snapshot_store`` configures (or replaces) the on-disk snapshot
        store the session's artifact cache consults; ``None`` keeps the
        current one.  ``incremental`` sets the default run mode (``None``
        keeps the current default), as does ``blocking``
        (``"off"``/``"auto"``/``"force"`` candidate enumeration).
        """
        self._config = self._config_for(
            algorithm,
            options,
            processors=processors,
            executor=executor,
            workers=workers,
            snapshot_store=snapshot_store,
            incremental=incremental,
            blocking=blocking,
        )
        return self

    def _config_for(
        self,
        algorithm: Optional[str],
        options: Dict[str, object],
        *,
        processors: Optional[int] = None,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        snapshot_store: Union[None, str, "os.PathLike", SnapshotStore] = None,
        incremental: Optional[bool] = None,
        blocking: Optional[str] = None,
    ) -> MatchConfig:
        """The session default with one call's arguments merged over it.

        ``None`` keeps the session default of that setting.  With no
        *algorithm* the call refines the configured backend, so *options*
        merge into the configured ones; naming an algorithm replaces them.
        The session-wide executor default is inherited only by backends
        that support executors (an explicit ``executor=`` is still validated
        strictly), so e.g. ``run_all()`` over a session configured with a
        process pool quietly runs ``"chase"`` on the classic path.
        """
        base = self._config
        if algorithm is None:
            algorithm, options = base.algorithm, {**base.options, **options}
            executor = base.executor if executor is None else executor
            workers = base.workers if workers is None else workers
        elif (
            executor is None
            and base.executor is not None
            and self._supports_executors(algorithm)
        ):
            executor = base.executor
            workers = base.workers if workers is None else workers
        return MatchConfig(
            algorithm=algorithm,
            processors=base.processors if processors is None else processors,
            executor=executor,
            workers=workers,
            snapshot_store=(
                base.snapshot_store if snapshot_store is None else snapshot_store
            ),
            incremental=base.incremental if incremental is None else incremental,
            blocking=base.blocking if blocking is None else blocking,
            options=options,
        )

    def on_progress(self, observer: ProgressObserver) -> "MatchSession":
        """Register an observer for per-round :class:`ProgressEvent`\\ s."""
        self._observers.append(observer)
        return self

    def remove_observer(self, observer: ProgressObserver) -> "MatchSession":
        """Unsubscribe *observer* (no-op when it was never registered)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass
        return self

    def events(self, maxsize: int = 256) -> EventStream:
        """Subscribe a bounded-queue :class:`EventStream` to this session.

        The stream receives every :class:`ProgressEvent` of every subsequent
        run (including concurrent ``run_async`` runs, whose events
        interleave) until it is closed; closing detaches it from the
        session.  A consumer that falls behind by more than *maxsize* events
        loses the oldest ones (counted in ``stream.dropped``) — producers
        never block on a slow reader.
        """
        stream = EventStream(maxsize=maxsize)
        stream._detach = lambda: self.remove_observer(stream)
        self.on_progress(stream)
        return stream

    # -- introspection ---------------------------------------------------- #

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def keys(self) -> Optional[KeySet]:
        return self._keys

    @property
    def config(self) -> MatchConfig:
        return self._config

    @property
    def history(self) -> Tuple[Tuple[MatchConfig, EMResult], ...]:
        """(config, result) provenance of the most recent runs, oldest first
        (the last :attr:`_MAX_HISTORY`; older entries are evicted)."""
        return tuple(self._history)

    def cache_info(self) -> SessionCacheInfo:
        """Artifact-cache build counters (all zero before the first run)."""
        if self._artifacts is None:
            return SessionCacheInfo()
        return self._artifacts.cache_info()

    def phase_timings(self) -> Dict[str, float]:
        """Cumulative seconds spent building each artifact kind.

        Keys: ``snapshot_build``, ``neighborhood_index_build``,
        ``candidates_build``, ``product_graph_build`` (present once the
        corresponding artifact has been built), ``snapshot_patch`` when a
        mutation delta was applied by patching instead of recompiling and
        ``snapshot_store_patch`` once that patch was written to the store
        (:meth:`write_owed_snapshot`, outside :meth:`run`), plus the blocking-layer
        phase split ``blocking_index_build`` / ``blocking_index_rebase`` /
        ``blocking_collision`` / ``blocking_pairing_filter`` when blocked
        enumeration ran.  Consumed by the CLI's ``--profile`` report.
        """
        if self._artifacts is None:
            return {}
        return dict(self._artifacts.timings)

    def write_owed_snapshot(self) -> None:
        """Write the patched snapshot the session's store is owed, if any
        (:meth:`SessionArtifacts.write_owed_snapshot`): a writer calls it
        once a result is published, and the next run does it first."""
        if self._artifacts is not None:
            self._artifacts.write_owed_snapshot()

    def invalidate(self) -> "MatchSession":
        """Manually drop every cached artifact.

        The cache's seed, its held results and its incremental counters are
        reset alongside, so the next ``run(incremental=True)`` falls back to
        a full run.
        """
        with self._lock:
            if self._artifacts is not None:
                self._artifacts.reset()
            self._last_delta = None
        return self

    @property
    def seed_version(self) -> Optional[int]:
        """The graph version of the fixpoint the next :meth:`rerun` would
        seed from (``None``: the artifact cache holds none yet)."""
        if self._artifacts is None:
            return None
        return self._artifacts.seed_version

    def last_delta(self) -> Optional[DeltaProvenance]:
        """Delta provenance of the most recent run (``None``: classic run)."""
        return self._last_delta

    # -- execution --------------------------------------------------------- #

    def run(
        self,
        algorithm: Optional[str] = None,
        *,
        processors: Optional[int] = None,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        incremental: Optional[bool] = None,
        blocking: Optional[str] = None,
        **options: object,
    ) -> EMResult:
        """Run one matching algorithm, reusing the session's cached artifacts.

        With no arguments, runs the configuration set via :meth:`using`.
        Passing *algorithm* (and options) runs that backend instead without
        changing the session default.  ``executor`` / ``workers`` (inherited
        from the session default when omitted) select the real execution
        runtime; support is validated per backend.

        With ``incremental=True`` (or a session default of
        ``incremental=True``), the run seeds from the previous result and
        re-chases only the candidate pairs the graph's mutation journal could
        have affected — falling back to a full run when no previous result
        exists, the journal window expired, or the backend lacks the
        ``"incremental"`` capability.  The outcome is bit-identical to a full
        run either way; :meth:`last_delta` reports which path executed.

        Concurrent calls (including via :meth:`run_async`) serialize on the
        session's run lock, so every interleaving is equivalent to *some*
        serial order and each individual result is bit-identical to the same
        run issued serially.
        """
        with self._lock:
            if self._keys is None:
                raise MatchingError(
                    "MatchSession has no keys; call with_keys(...) first"
                )
            config = self._config_for(
                algorithm,
                options,
                processors=processors,
                executor=executor,
                workers=workers,
                incremental=incremental,
                blocking=blocking,
            )
            spec, validated = config.resolve()
            # a failed run must never leave stale provenance behind.  The
            # seed needs no such care: it is immutable, lives in the cache,
            # and a run plans from it only at the cache's own version
            self._last_delta = None
            artifacts = self._artifacts_for(config)
            result, self._last_delta = self._execute(
                spec, config, validated, artifacts
            )
            # this run's fixpoint seeds the next delta run — of any session
            # sharing the cache — and its result answers this run shape at
            # this version
            artifacts.record(config, result)
            self._history.append((config, result))
            return result

    def _execute(
        self,
        spec: AlgorithmSpec,
        config: MatchConfig,
        validated: Dict[str, object],
        artifacts: SessionArtifacts,
    ) -> Tuple[EMResult, Optional[DeltaProvenance]]:
        """Run *spec* once — fully, or as a delta re-chase seeded from the
        cache's fixpoint — and say which it was (``None``: incremental was
        not requested)."""
        state = touched = plan = delta = None
        if config.incremental:
            held = held_result(config, artifacts)
            if held is not None:
                # the held fixpoint *is* the answer — nothing to refresh,
                # plan or re-chase.  The universe is read off the (in step,
                # so cached) candidate slot the planner would have walked
                blocked = config.blocking != "off"
                universe = len(
                    artifacts.candidates(filtered=blocked, blocking=config.blocking).pairs
                )
                artifacts.count(incremental_runs=1, pairs_skipped=universe)
                return held, DeltaProvenance(mode="reused", pairs_skipped=universe)
            state, touched, fallback = _journal_window(spec, artifacts)
            delta = DeltaProvenance(mode="full", reason=fallback)
        if touched is None:
            artifacts.refresh()
        else:
            # a non-empty window, or an empty one under a shape holding no
            # result at this version (another shape moved the cache and the
            # seed on), plans against the cache's fixpoint
            held = artifacts.held(config)
            plan = plan_session_delta(artifacts, state, blocking=config.blocking)
            artifacts.count(
                incremental_runs=1,
                pairs_rechecked=plan.pairs_rechecked,
                pairs_skipped=plan.pairs_skipped,
            )
            delta = DeltaProvenance(
                mode="incremental",
                touched_nodes=len(touched),
                pairs_rechecked=plan.pairs_rechecked,
                pairs_skipped=plan.pairs_skipped,
                dropped_classes=plan.dropped_classes,
                seed_merges=plan.seed_merges,
            )
            if plan.result_reusable and held is not None:
                # the delta implicates nothing and the same run shape
                # produced the held result: return that object as-is
                return held, replace(delta, mode="reused")
        # an empty worklist still dispatches the backend (it returns the
        # seeded closure immediately), so the result carries this run's
        # algorithm name and statistics rather than the seeding run's
        result = spec.run(
            self._graph,
            self._keys,
            processors=config.processors,
            options=validated,
            artifacts=artifacts,
            observer=self._dispatch_event if self._observers else None,
            executor=config.executor,
            workers=config.workers,
            seed=None if plan is None else plan.seed,
            worklist=None if plan is None else plan.worklist,
            blocking=config.blocking,
        )
        if plan is not None:
            # backends report their own (possibly restricted) pair counts;
            # normalize the |L| statistic so delta provenance is comparable
            # across backends
            result.stats.candidate_pairs = plan.candidate_count
        return result, delta

    def run_async(
        self, algorithm: Optional[str] = None, **settings: object
    ) -> "Future[EMResult]":
        """Start :meth:`run` on a background thread; returns its future.

        Takes exactly :meth:`run`'s arguments.  The future resolves to the
        run's :class:`EMResult` (or raises the run's exception).
        ``future.cancel()`` succeeds only while the run is
        still waiting on the session's run lock — a matching backend that has
        started cannot be interrupted.  Pair with :meth:`events` to stream
        the run's progress while it executes::

            stream = session.events()
            future = session.run_async("EMOptVC")
            future.add_done_callback(lambda _: stream.close())
            for event in stream:
                print(event.stage, event.round)
            result = future.result()
        """
        future: "Future[EMResult]" = Future()

        def _work() -> None:
            with self._lock:
                # the cancellation window spans the whole wait on the run
                # lock: a queued run behind a long one can still be cancelled
                if not future.set_running_or_notify_cancel():
                    return
                try:
                    future.set_result(self.run(algorithm, **settings))
                except BaseException as exc:  # the future owns the outcome
                    future.set_exception(exc)

        thread = threading.Thread(
            target=_work, name="repro-run-async", daemon=True
        )
        thread.start()
        return future

    def run_all(
        self,
        algorithms: Optional[Sequence[str]] = None,
        *,
        processors: Optional[int] = None,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> Dict[str, EMResult]:
        """Run several algorithms on the shared artifacts; name → result.

        An ``executor`` requested here applies to every backend that supports
        executors; the others (the sequential chase) run on the classic path.
        """
        names = list(algorithms) if algorithms is not None else list(ALGORITHMS)
        return {
            name: self.run(
                name,
                processors=processors,
                executor=executor if self._supports_executors(name) else None,
                workers=workers if self._supports_executors(name) else None,
            )
            for name in names
        }

    def rematch(self) -> EMResult:
        """Re-run the session's current configuration (e.g. after mutations)."""
        return self.run()

    def rerun(self, **options: object) -> EMResult:
        """Incremental re-run of the current configuration after mutations.

        Sugar for ``run(incremental=True)``: seeds from the previous result
        and re-chases only the journal-affected candidate pairs (silently
        falling back to a full run when that is impossible).  The result is
        bit-identical to :meth:`rematch`.
        """
        return self.run(incremental=True, **options)

    # -- internals --------------------------------------------------------- #

    @staticmethod
    def _supports_executors(algorithm: str) -> bool:
        try:
            spec = get_algorithm(algorithm)
        except MatchingError:
            return False  # unknown name: let resolve() raise the real error
        return "executors" in spec.capabilities

    def _artifacts_for(self, config: MatchConfig) -> SessionArtifacts:
        """The session's cache (created on first use) under *config*'s store."""
        store = as_snapshot_store(config.snapshot_store)
        if self._artifacts is None:
            self._artifacts = SessionArtifacts(self._graph, self._keys, snapshot_store=store)
            self._owns_artifacts = True
        elif store is not None:
            self._artifacts.snapshot_store = store
        return self._artifacts

    @property
    def observer_errors(self) -> Tuple[Tuple[ProgressObserver, BaseException], ...]:
        """Failures recorded by the observer dispatcher, oldest first."""
        return tuple(self._observer_errors)

    def _dispatch_event(self, event: ProgressEvent) -> None:
        # each observer is isolated: one raising observer must neither abort
        # the run nor starve the observers registered after it
        for observer in list(self._observers):
            try:
                observer(event)
            except Exception as exc:
                self._observer_errors.append((observer, exc))
                del self._observer_errors[: -self._MAX_OBSERVER_ERRORS]
                _EVENT_LOGGER.exception(
                    "progress observer %r raised on %r; event dropped",
                    observer,
                    event,
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        keys = "no keys" if self._keys is None else f"{self._keys.cardinality} keys"
        return (
            f"MatchSession({self._graph.num_entities} entities, {keys}, "
            f"default={self._config.describe()}, runs={len(self._history)})"
        )


def _journal_window(
    spec: AlgorithmSpec, artifacts: SessionArtifacts
) -> Tuple[Optional[IncrementalState], Optional[set], Optional[str]]:
    """``(seed, touched, None)`` — the cache's fixpoint and the touched-node
    window an incremental run can plan over from it — or ``(None, None,
    reason)`` when the request must fall back to a full run."""
    if "incremental" not in spec.capabilities:
        return None, None, f"algorithm {spec.name!r} lacks the incremental capability"
    state = artifacts.seed()
    if state is None:
        # the first run on this graph (or after the keys changed)
        return None, None, "no previous result to seed from"
    if artifacts.version != state.version:
        # only a run that failed after refresh() moved the cache gets here
        return None, None, "artifact cache out of step with the previous result"
    touched = artifacts.graph.touched_since(state.version)
    if touched is None:
        return None, None, "journal window expired"
    return state, touched, None


def held_result(config: MatchConfig, artifacts: SessionArtifacts) -> Optional[EMResult]:
    """The reuse rule: the result *artifacts* holds for *config*'s run
    shape, when it answers an incremental run at the current graph as-is.

    ``chase(G, Σ)`` is a function of ``(G, Σ)``: the result answers when
    this shape last ran at the cache's version, the backend can run
    incrementally, the seed is at that version and the journal window
    behind it is empty.  :meth:`MatchSession.run` and the service's
    admission path both decide reuse here; the caller holds the graph still.
    """
    held = artifacts.held(config)  # None for a shape that never ran
    if held is None:
        return None
    _state, touched, _reason = _journal_window(get_algorithm(config.algorithm), artifacts)
    return held if touched == set() else None


#: Short alias used in the quickstart: ``Session(graph).with_keys(...)``.
Session = MatchSession
