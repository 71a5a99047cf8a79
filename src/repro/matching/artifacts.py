"""``SessionArtifacts``: the one cache of precomputed matching inputs.

Every algorithm of the paper starts from the same precomputed inputs — the
candidate set ``L`` with its d-neighbourhoods (Section 4.1), the
pairing-filtered ``L`` and dependency relation of ``EMOptMR`` (Section 4.2)
and the product graph ``Gp`` (Section 5).  This module builds each of them
once per ``(graph, keys)``, migrates them across mutation-journal deltas,
and is the *only* build path the parallel backends have: a backend run
without a session constructs a throwaway cache and reads through it.

The per-flavour artifacts live in one slot table keyed ``(kind, flavour)``
with one rule (:meth:`SessionArtifacts._slot`): a fresh slot is returned as
is, and any other gets its kind's one construction rule — applied to the
artifact a mutation parked, with the entities the delta(s) affected, or to
the empty artifact when the slot is missing (a cold build).  The
singletons every flavour shares — compiled snapshot, neighbourhood index,
blocking index — are reconciled eagerly by
:meth:`SessionArtifacts.refresh`; the blocked collision result
(:meth:`SessionArtifacts.blocked_pairs`) is scoped to one graph version.

The cache also holds the one *seed* of incremental re-matching
(:meth:`SessionArtifacts.seed`): the fixpoint of the last finished run, at
the version it was computed for.  ``chase(G, Σ)`` is a function of
``(G, Σ)`` alone, so whichever session recorded it, it seeds every session
sharing the cache, and each run shape's held result answers them all alike.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..core.equivalence import MAX_FORK_DEPTH, Pair
from ..core.graph import Graph
from ..core.key import Key, KeySet
from ..core.triples import is_entity_ref
from ..exceptions import StoreError
from ..mapreduce.runtime import ShufflePlacement
from ..storage import GraphSnapshot, SnapshotNeighborhoodIndex
from ..storage.neighborhoods import entities_within, radius_per_type
from ..storage.store import SnapshotStore
from .blocking import BlockingIndex, BlockingStats, quadratic_pairs_touching
from .candidates import CandidateSet, build_candidates, build_filtered_candidates
from .incremental import DependencyArtifact, IncrementalState, rebase_filtered_candidates
from .product_graph import ProductGraph
from .result import EMResult

if TYPE_CHECKING:
    from ..api.config import MatchConfig

#: an artifact flavour: ``(filtered, reduce_neighborhoods, blocked)``
Flavour = Tuple[bool, bool, bool]


@dataclass(frozen=True)
class SessionCacheInfo:
    """Build counters of a session's artifact cache (for tests and tuning)."""

    snapshot_builds: int = 0
    neighborhood_index_builds: int = 0
    candidate_builds: int = 0
    product_graph_builds: int = 0
    invalidations: int = 0
    #: snapshots served from / missing in the configured on-disk store
    #: (both stay 0 when the session has no snapshot store)
    store_hits: int = 0
    store_misses: int = 0
    #: filtered candidate sets / product graphs migrated onto a new graph
    #: version by journal-delta rebasing instead of a from-scratch rebuild
    candidate_rebases: int = 0
    product_graph_rebases: int = 0
    #: snapshots produced by patching the previous compiled snapshot with the
    #: mutation delta instead of recompiling from scratch (a patched snapshot
    #: reads exactly as a rebuild does; counted separately from
    #: ``snapshot_builds``, which counts full recompiles only)
    snapshot_patches: int = 0
    #: refreshes that recompiled the canonical form instead of patching,
    #: because overlay rows + window passed
    #: ``Graph.SNAPSHOT_PATCH_MAX_FRACTION``
    snapshot_compactions: int = 0
    #: gauge, not a counter: rows the current snapshot holds outside the
    #: canonical arrays (0 right after a build or a compaction)
    snapshot_overlay_rows: int = 0
    #: write-throughs of a patch the snapshot store failed (0 on a healthy
    #: stream)
    store_write_failures: int = 0
    #: incremental (delta) runs actually executed — silent fallbacks to a
    #: full run (no previous result, expired journal window) do not count
    incremental_runs: int = 0
    #: cumulative candidate pairs re-chased / skipped across incremental
    #: runs; per run, rechecked + skipped == |L| of the new graph
    pairs_rechecked: int = 0
    pairs_skipped: int = 0
    #: blocking-layer observability: signature index builds / journal-delta
    #: rebases, blocks a collision pass read (every multi-member block on a
    #: full pass, only the re-collided entities' on a rebased index), and
    #: candidate pairs pruned vs. the quadratic baseline (cumulative across
    #: collision passes: one per graph version that ran blocked, see
    #: :meth:`SessionArtifacts.blocked_pairs`)
    blocking_index_builds: int = 0
    blocking_index_rebases: int = 0
    blocking_blocks_touched: int = 0
    blocking_pairs_pruned: int = 0
    #: key-set deltas applied by selective per-type invalidation
    #: (:meth:`SessionArtifacts.rekeyed`) instead of a full cache drop
    key_rebases: int = 0
    #: held results evicted past :attr:`SessionArtifacts.MAX_HELD_SHAPES`
    held_evictions: int = 0


@dataclass(frozen=True)
class WindowSets:
    """The affected entities of one journal window (:meth:`SessionArtifacts.refresh`)."""

    #: every entity within key radius of a touched node
    ball: set
    #: the touched nodes whose key triples, entity type or existence changed
    key_roots: set
    #: every entity within key radius of a key-root (a subset of :attr:`ball`)
    key_ball: set


#: slot kind → the counters its build / rebase bump (dependency maps are
#: timed like the other kinds but have never been counted)
_SLOT_COUNTERS = {
    "candidates": ("candidate_builds", "candidate_rebases"),
    "product_graph": ("product_graph_builds", "product_graph_rebases"),
}


def _keys_by_type(keys: KeySet) -> Dict[str, List[Key]]:
    return {etype: list(keys.keys_for_type(etype)) for etype in keys.target_types()}


class SessionArtifacts:
    """The cache of precomputed matching artifacts for one ``(graph, keys)``.

    Backends receive this object as their ``artifacts`` argument and ask it
    for candidate sets / product graphs instead of building them.  Flavours
    are keyed by ``(filtered, reduce_neighborhoods, blocked)``; all flavours
    share one underlying neighbourhood index (reduced flavours restrict a
    clone, never the shared base) and one
    :class:`~repro.matching.blocking.BlockingIndex` (the ``auto`` and
    ``force`` modes enumerate identical pairs whenever ``force`` is
    accepted, so one ``blocked`` flavour bit serves both).

    The cache is **safe for concurrent callers**: every accessor runs under a
    build-once re-entrant lock, so two requests racing on a cold artifact
    never duplicate the build and never observe a half-built value — the
    second caller blocks until the first caller's build is published, then
    returns the same object.  One ``SessionArtifacts`` may therefore be
    shared by many sessions on the same ``(graph, keys)`` (the service layer
    multiplexes all requests for a named graph through one instance).
    """

    #: run shapes whose last result :meth:`held` keeps for a ``reused``
    #: answer; one more evicts the least recently used (never the seed)
    MAX_HELD_SHAPES = 4

    def __init__(
        self,
        graph: Graph,
        keys: KeySet,
        snapshot_store: Optional[SnapshotStore] = None,
    ) -> None:
        self.graph = graph
        self.keys = keys
        # per-type key lists snapshotted for rekeyed()'s delta detection:
        # diffing against this baseline (not against the live KeySet object)
        # also catches in-place KeySet mutation between with_keys calls
        self._keyed_types = _keys_by_type(keys)
        #: optional on-disk snapshot store consulted before every build
        self.snapshot_store = snapshot_store
        # build-once lock: accessors nest (product graph → candidates →
        # index → snapshot), so the lock must be re-entrant
        self._lock = threading.RLock()
        #: the :attr:`Graph.version` the cached artifacts describe
        self.version = graph.version
        self._snapshot: Optional[GraphSnapshot] = None
        # (snapshot, the graph's fingerprint there): a published snapshot
        # the snapshot store is owed (:meth:`write_owed_snapshot`)
        self._owed: Optional[Tuple[GraphSnapshot, str]] = None
        # processors → MR shuffle placement over _snapshot; cleared with it
        self._placements: Dict[int, ShufflePlacement] = {}
        self._index: Optional[SnapshotNeighborhoodIndex] = None
        self._blocking_index: Optional[BlockingIndex] = None
        # the blocked enumeration off _blocking_index, valid at self.version
        self._blocked_pairs: Optional[Tuple[Tuple[Pair, ...], BlockingStats]] = None
        # the seed of incremental re-matching: the last finished run's
        # fixpoint (immutable; usable while its version equals self.version)
        self._seed: Optional[IncrementalState] = None
        # run shape -> (result, config, version) of that shape's last run,
        # least recently used first; cleared wherever the seed is dropped
        self._held: "OrderedDict[tuple, tuple]" = OrderedDict()
        # the slot table: artifacts valid at self.version, and artifacts a
        # mutation staled, parked with the unions of the windows' key balls
        # and full balls until their next access rebases them
        self._fresh: Dict[Tuple[str, Flavour], object] = {}
        self._stale: Dict[Tuple[str, Flavour], Tuple[object, set, set]] = {}
        self._counts = dict.fromkeys((f.name for f in fields(SessionCacheInfo)), 0)
        #: cumulative seconds spent building each artifact kind (CLI --profile)
        self.timings: Dict[str, float] = {}

    def _charge(self, phase: str, seconds: float) -> None:
        self.timings[phase] = self.timings.get(phase, 0.0) + seconds

    def _timed(self, phase: str, build):
        started = time.perf_counter()
        result = build()
        self._charge(phase, time.perf_counter() - started)
        return result

    def count(self, **increments: int) -> None:
        """Add *increments* to the named :class:`SessionCacheInfo` counters."""
        with self._lock:
            for name, amount in increments.items():
                self._counts[name] += amount

    def cache_info(self) -> SessionCacheInfo:
        with self._lock:
            rows = 0 if self._snapshot is None else self._snapshot.overlay_rows
            return SessionCacheInfo(**{**self._counts, "snapshot_overlay_rows": rows})

    def cached(self, kind: str) -> Dict[Flavour, object]:
        """The fresh artifacts of *kind* (``"candidates"``,
        ``"dependency_map"`` or ``"product_graph"``) by flavour; builds
        nothing."""
        with self._lock:
            return {
                flavour: value
                for (slot_kind, flavour), value in self._fresh.items()
                if slot_kind == kind
            }

    # -- the seed of incremental re-matching, and the held results --------- #

    def seed(self) -> Optional[IncrementalState]:
        """The last finished run's fixpoint (``None`` before the first run).

        A run may plan a delta from it only while its version equals
        :attr:`version`: the planner reads the old pairing supports and the
        journal window off this cache, so the two must describe the same
        graph version.  They differ only after a run that failed once
        :meth:`refresh` had moved the cache on — the seed is immutable and
        a failed run leaves it alone.
        """
        with self._lock:
            return self._seed

    @property
    def seed_version(self) -> Optional[int]:
        """The graph version :meth:`seed` is the fixpoint of, if any."""
        seed = self._seed
        return None if seed is None else seed.version

    def record(self, config: "MatchConfig", result: EMResult) -> None:
        """Hold *result* as *config*'s run shape's answer at :attr:`version`
        and its ``Eq`` as the fixpoint there (every finished run calls this).

        The result's ``Eq`` is frozen in place, so no holder of the result
        can change the seed through it.  The fixpoint is a function of the
        graph version and the keys, so a seed already at this version *is*
        this relation and stays.  Recording copies nothing: a delta run's
        ``Eq`` is a fork of the previous seed, and a chain of them deeper
        than :data:`~repro.core.equivalence.MAX_FORK_DEPTH` is folded into
        one fork (:meth:`EquivalenceFork.flattened`, which costs what the
        chain changed).  The run's immutable snapshot rides along — it is
        all the planner reads of the old graph.
        """
        with self._lock:
            eq = result.eq.freeze()
            if self._seed is None or self._seed.version != self.version:
                if eq.depth > MAX_FORK_DEPTH:
                    eq = eq.flattened()
                self._seed = IncrementalState(
                    version=self.version,
                    eq=eq,
                    snapshot=self.snapshot(),
                    keys=self.keys,
                )
            shape = config.run_shape()
            self._held[shape] = (result, config, self.version)
            self._held.move_to_end(shape)
            if len(self._held) > self.MAX_HELD_SHAPES:
                self._held.popitem(last=False)
                self._counts["held_evictions"] += 1

    def held(self, config: "MatchConfig") -> Optional[EMResult]:
        """The result held for *config*'s run shape, if that shape last ran
        at :attr:`version` (``None`` otherwise); marks the shape used."""
        with self._lock:
            shape = config.run_shape()
            if shape not in self._held:
                return None
            self._held.move_to_end(shape)
            result, _config, version = self._held[shape]
            return result if version == self.version else None

    def held_configs(self) -> List["MatchConfig"]:
        """The configs of the held results, least recently used first."""
        with self._lock:
            return [config for _result, config, _version in self._held.values()]

    # -- cache lifecycle ------------------------------------------------- #

    def _drop_all(self) -> None:
        self._snapshot = None
        self._placements.clear()
        self._index = None
        self._blocking_index = None
        self._blocked_pairs = None
        self._fresh.clear()
        self._stale.clear()

    def reset(self) -> None:
        """Drop every cached artifact (e.g. after a key-set change).

        The seed, the held results and the incremental-run counters are
        reset alongside: a manual invalidation severs the delta chain (the
        next incremental run falls back to a full one), so the per-delta
        accounting restarts too.
        """
        with self._lock:
            self.write_owed_snapshot()
            self._drop_all()
            self._seed = None
            self._held.clear()
            self.version = self.graph.version
            self._counts["invalidations"] += 1
            for name in ("incremental_runs", "pairs_rechecked", "pairs_skipped"):
                self._counts[name] = 0

    def rekeyed(self, keys: KeySet) -> set:
        """Swap the key set, invalidating only what the key delta affects.

        Returns the set of entity types whose key lists actually changed
        (added, removed, or edited keys).  The graph-only artifacts — the
        compiled snapshot and every cached neighbourhood of an *unchanged*
        type (same keys ⇒ same per-type radius) — survive untouched.  The
        key-derived artifacts are parked for delta rebasing with the changed
        types' entities as the affected set, so the next access re-runs the
        pairing fixpoint and dependency-row derivation only for those pairs:

        * a pair of an unchanged type keeps its pairing verdict — pairing is
          the simulation fixpoint of the pair's own type's key patterns over
          graph-only d-neighbourhoods, so no other type's keys enter it;
        * a dependency edge between two unchanged-type pairs is a
          neighbourhood-containment fact plus the dependent's own
          ``depends_on_types`` — both unchanged — while edges to pairs that
          vanished (type lost its keys) or appeared (type gained keys) are
          unlinked/probed by the rebase's removed/fresh handling.

        The blocking index is dropped outright: its per-type signature
        schemes derive from the keys and it rebuilds in one pass on next
        use, and so are the seed and the held results — a fixpoint under
        different keys seeds nothing and answers nothing.  An empty return
        means the key lists are identical and every cached artifact, the
        seed included, is still exact.
        """
        with self._lock:
            old_by_type = self._keyed_types
            new_by_type = _keys_by_type(keys)
            changed = {
                etype
                for etype in set(old_by_type) | set(new_by_type)
                if old_by_type.get(etype) != new_by_type.get(etype)
            }
            self.keys = keys
            self._keyed_types = new_by_type
            if not changed:
                return changed
            # the cached version's buckets: a later window's additions are in its ball
            snapshot = self._snapshot
            affected = set() if snapshot is None else {
                entity for etype in changed for entity in snapshot.entities_of_type(etype)
            }
            self._park(affected, affected)
            if self._index is not None:
                self._index = self._index.rekeyed(keys, evict=affected)
            self._blocking_index = None
            self._blocked_pairs = None
            self._placements.clear()  # exact, but holding the old keys' pairs
            self._seed = None
            self._held.clear()
            self._counts["invalidations"] += 1
            self._counts["key_rebases"] += 1
            return changed

    def refresh(self) -> Optional[WindowSets]:
        """Reconcile the cache with the graph mutations since the last run,
        and return the window's affected sets (:class:`WindowSets`).

        The snapshot goes first: the graph publishes the window
        (:meth:`snapshot`), by a patch — the touched rows recomputed into an
        overlay that reads exactly as a recompile does — or, past
        :attr:`Graph.SNAPSHOT_PATCH_MAX_FRACTION`, a compaction.  Then the
        window is split in two, over the *new* snapshot, by one BFS each
        (:meth:`_touched_ball`): the **ball**, every entity within key
        radius (the key set's largest) of a touched node, and the **key
        ball**, every entity within key radius of a *key-root* — a touched
        node whose key triples, entity type or existence the window changed
        (:meth:`_key_roots`).

        The key ball is sound for everything that reads key triples only —
        a pair's pairing verdict and supports, its blocking signatures, its
        chase verdict.  A matched node is reachable from the designated
        entity by key triples within the key radius, so a non-key triple
        never enters a match, a pairing, a support or a signature.  An added
        or removed key triple journals both of its endpoints, and the diff
        sees the change at both of them, so along any path of key triples,
        old or new, the stretch up to its first key-root is on both sides of
        the delta: every entity whose key-triple neighbourhood changed lies
        in the key ball, and the two-sided argument of the full ball carries
        over unchanged.  The full ball stays with what reads raw
        d-neighbourhoods: the neighbourhood index evicts it (its sizes feed
        the stats and the cost model), and the dependency rows and the
        product graph's adjacency rows are recomputed over it.  The slot
        table is parked with both (:meth:`_park`); the blocking index
        re-derives the signatures of the key ball — which every entity of a
        certified type has, cached neighbourhood or not.  A window that
        compacts instead drops the blocking index, with the enumeration
        state it carries: its tokens are literal ids, which the recompiled
        snapshot assigns afresh.

        The sets are returned even when nothing was cached to rebase and the
        cache was dropped, since the planner needs them whatever is cached.
        An empty window returns empty sets; an expired journal window drops
        everything and returns ``None``.  A snapshot the store is still owed
        is written first, so every patched version reaches the store.
        """
        with self._lock:
            self.write_owed_snapshot()
            version = self.graph.version
            if version == self.version:
                return WindowSets(set(), set(), set())
            touched = self.graph.touched_since(self.version)
            old = self._snapshot
            if touched is None or self._index is None:
                self._drop_all()
            else:
                self._snapshot = None
                self._placements.clear()
                if self.snapshot().lineage is not old.lineage:  # a build starts a new one
                    self._blocking_index = None
            window = None
            if touched is not None:
                roots = self._key_roots(old, touched)
                window = WindowSets(
                    self._touched_ball(touched), roots, self._touched_ball(roots)
                )
            if self._index is not None:
                self._park(window.key_ball, window.ball)
                self._blocked_pairs = None
                self._index = self._index.rebased(self.snapshot(), evict=window.ball)
                old_blocking = self._blocking_index
                if old_blocking is not None:
                    self._blocking_index = self._timed(
                        "blocking_index_rebase",
                        lambda: old_blocking.rebased(self.snapshot(), window.key_ball),
                    )
                    self._counts["blocking_index_rebases"] += 1
            self.version = version
            self._counts["invalidations"] += 1
            return window

    def _key_roots(self, old: Optional[GraphSnapshot], touched: set) -> set:
        """The *touched* nodes the window changed as keys see them: their key
        triples (forward or backward; a key triple is one whose predicate
        some key pattern names), their entity type, or their existence as an
        entity — a diff of *old*, the snapshot at :attr:`version`, against
        the current one in id space.  A value node has no type and is seen
        only through its key triples.  Ids name the same nodes within one
        lineage only, so after a rebuild or a compaction every touched node
        is a key-root."""
        new = self.snapshot()
        if old is None or old.version != self.version or old.lineage is not new.lineage:
            return set(touched)
        preds = {new.pred_id(p) for key in self.keys for p in key.pattern.predicates()}

        def keyed(snapshot: GraphSnapshot, node) -> tuple:
            node_id = snapshot.id_of(node)
            if node_id is None:
                return None, [], []
            return (
                snapshot.entity_type(node) if is_entity_ref(node) else None,
                [pair for pair in snapshot.row_pairs(node_id, True) if pair[0] in preds],
                [pair for pair in snapshot.row_pairs(node_id, False) if pair[0] in preds],
            )

        return {node for node in touched if keyed(old, node) != keyed(new, node)}

    def _touched_ball(self, touched: set) -> set:
        """The entities within the largest key radius of a *touched* node,
        by one BFS from all of them at once over the current snapshot (a
        node the window removed is no root: deleting its edges touched its
        neighbours).  A node is in the union of the per-root balls exactly
        when its distance to the nearest root is within the radius."""
        radius = max(radius_per_type(self.keys).values(), default=0)
        return entities_within(self.snapshot(), touched, radius)

    def _park(self, key_ball: set, ball: set) -> None:
        """Park every fresh slot for delta rebasing with a window's key ball
        and full ball (:meth:`refresh`); each kind's rebase reads the one
        its artifact needs.

        Slots parked by an earlier delta and never re-accessed stay parked
        with each set widened to the union over the windows (each window's
        sets stay sound for its own delta).
        Unfiltered candidate sets carry no pairing verdicts worth migrating
        and are dropped, so their next access is a plain build.
        """
        for slot, (artifact, keyed, touched) in self._stale.items():
            self._stale[slot] = (artifact, keyed | key_ball, touched | ball)
        for slot, artifact in self._fresh.items():
            if slot[0] != "candidates" or artifact.pair_supports is not None:
                self._stale[slot] = (artifact, set(key_ball), set(ball))
        self._fresh.clear()

    def write_owed_snapshot(self) -> None:
        """Write the published snapshot the store is owed, if any: a patch
        as a delta file, a canonical one whole (:meth:`SnapshotStore.patch`).

        A patch is owed from the refresh that read it until this call: the
        ingest pipeline makes it right after it publishes a flush, recovery
        after its solve, and the next :meth:`refresh` before anything else,
        so every patched version reaches the store.  A failed write is
        counted (``store_write_failures``) and the snapshot is no longer
        owed.
        """
        with self._lock:
            owed, self._owed = self._owed, None
            if owed is None:
                return
            snapshot, fingerprint = owed
            store = self.snapshot_store
            try:
                self._timed(
                    "snapshot_store_patch",
                    lambda: store.patch(snapshot, base=None, fingerprint=fingerprint),
                )
            except (StoreError, OSError):
                self._counts["store_write_failures"] += 1

    # -- the slot rule ------------------------------------------------------ #

    def _slot(
        self,
        kind: str,
        flavour: Flavour,
        apply: Callable[[Optional[object], Optional[set], Optional[set]], object],
    ):
        """The one rule every per-flavour artifact follows (lock held).

        Fresh: return it.  Otherwise ``apply(old, key_ball, ball)``, the
        artifact's one construction rule: parked by a mutation, with the
        parked artifact and the unions of the sets every un-accessed delta
        affected (:meth:`refresh`); missing, with ``(None, None, None)``,
        the empty artifact with every keyed entity affected.  Whether the
        slot was parked decides the phase the work is charged to,
        ``{kind}_build`` or ``{kind}_rebase``, and the kind's counter.
        """
        slot = (kind, flavour)
        value = self._fresh.get(slot)
        if value is None:
            parked = self._stale.pop(slot, None)
            phase = "build" if parked is None else "rebase"
            value = self._timed(f"{kind}_{phase}", lambda: apply(*(parked or (None,) * 3)))
            if kind in _SLOT_COUNTERS:
                builds, rebases = _SLOT_COUNTERS[kind]
                self._counts[builds if parked is None else rebases] += 1
            self._fresh[slot] = value
        return value

    # -- artifact accessors (the backend-facing surface) ----------------- #

    def snapshot(self) -> GraphSnapshot:
        """The compiled, immutable read view of the session's graph: the
        graph's published snapshot (:meth:`Graph.snapshot`) at
        :attr:`version`, which every read-side artifact below (and every
        backend run through the session) shares.

        The graph decides how to publish and the session handles each case
        (:meth:`_publish`): it counts and times a patch or a build, and a
        build (the graph holds no snapshot, a compaction, or a patch this
        session has nothing cached to rebase over) asks the
        :attr:`snapshot_store` first: an ``mmap`` load of a warm file skips
        the build and is held by the graph, and a built one is written back;
        *any* :class:`~repro.exceptions.StoreError` falls back to a clean
        build.  The store's miss path is serialized per graph fingerprint
        (:meth:`SnapshotStore.get_or_build`), so sibling sessions sharing a
        store build each snapshot exactly once machine-process-wide.
        """
        with self._lock:
            if self._snapshot is None:
                self._snapshot = self.graph.snapshot(self._publish)
            return self._snapshot

    def _publish(self, how: str, compile: Callable[[], GraphSnapshot]) -> GraphSnapshot:
        """The :data:`~repro.core.graph.Publish` hook of :meth:`snapshot`.

        A snapshot this session did not build through the store — its
        patch, or the held one another session or a whole-graph read
        published — is owed to the store when the store lacks it: a patch
        is written by :meth:`write_owed_snapshot`, after the run that reads
        it has published, off the refresh's path; a canonical snapshot at
        once.  A session with nothing cached to rebase builds where the
        graph would patch: its full run reads a canonical snapshot faster
        than a patched one by more than the build costs.
        """
        store = self.snapshot_store
        if how == "patch" and self._index is None:
            how, compile = "build", partial(GraphSnapshot.build, self.graph)
        if how == "held":
            snapshot = compile()
        elif how == "patch":
            self._counts["snapshot_patches"] += 1
            snapshot = self._timed("snapshot_patch", compile)
        else:
            if how == "compaction":
                self._counts["snapshot_compactions"] += 1

            def build() -> GraphSnapshot:
                self._counts["snapshot_builds"] += 1
                return self._timed("snapshot_build", compile)

            if store is None:
                return build()
            snapshot, loaded = store.get_or_build(self.graph, build, timed=self._timed)
            self._counts["store_hits" if loaded else "store_misses"] += 1
            return snapshot
        if store is not None:
            fingerprint = self.graph.content_fingerprint()
            if how == "patch" or not store.contains(fingerprint):
                self._owed = (snapshot, fingerprint)
                if snapshot.lineage is snapshot:
                    self.write_owed_snapshot()
        return snapshot

    def shuffle_placement(self, processors: int) -> ShufflePlacement:
        """The MapReduce key → worker table of *processors* workers over
        :meth:`snapshot`'s interning, kept for every run until it changes."""
        with self._lock:
            if processors not in self._placements:
                key = self.snapshot().placement_key
                self._placements[processors] = ShufflePlacement(processors, key)
            return self._placements[processors]

    def neighborhood_index(self) -> SnapshotNeighborhoodIndex:
        with self._lock:
            if self._index is None:
                snapshot = self.snapshot()
                self._index = self._timed(
                    "neighborhood_index_build",
                    lambda: SnapshotNeighborhoodIndex(snapshot, self.keys),
                )
                self._counts["neighborhood_index_builds"] += 1
            return self._index

    def blocking_index(self) -> BlockingIndex:
        """The shared signature index of the blocking layer (built once)."""
        with self._lock:
            if self._blocking_index is None:
                snapshot = self.snapshot()
                self._blocking_index = self._timed(
                    "blocking_index_build",
                    lambda: BlockingIndex.build(
                        self.graph, self.keys, snapshot=snapshot
                    ),
                )
                self._counts["blocking_index_builds"] += 1
            return self._blocking_index

    def blocked_pairs(self, mode: str) -> Tuple[Tuple[Pair, ...], BlockingStats]:
        """The blocked candidate enumeration and its stats, colliding the
        signatures of :meth:`blocking_index` at most once per graph version.

        Every blocked consumer at one version — each ``candidates`` flavour's
        build or rebase, the ``chase`` backend's pair order — reads the same
        pair tuple (the unfiltered blocked flavour holds it as its ``pairs``
        outright); a mutation drops it with the version it was enumerated
        at.  The collision pass is charged here
        (``blocking_collision``, blocks touched, pairs pruned), so consumers
        get their own stats copy to add their filter time to.  ``"auto"``
        and ``"force"`` enumerate identical pairs whenever ``"force"`` is
        accepted, which is re-validated on every call.
        """
        with self._lock:
            index = self.blocking_index()
            if mode == "force":
                index.require_certified()
            if self._blocked_pairs is None:
                pairs, stats = index.candidate_pairs("auto")
                self._blocked_pairs = (tuple(pairs), stats)
                self._counts["blocking_blocks_touched"] += stats.blocks_touched
                self._counts["blocking_pairs_pruned"] += stats.pairs_pruned
                self._charge("blocking_collision", stats.collision_seconds)
            pairs, stats = self._blocked_pairs
            return pairs, replace(stats, mode=mode)

    def candidates(
        self,
        *,
        filtered: bool,
        reduce_neighborhoods: bool = False,
        blocking: str = "off",
    ) -> CandidateSet:
        with self._lock:
            # upstream artifacts are fetched outside the timed build so each
            # phase is charged its own work only
            inputs = dict(
                index=self.neighborhood_index(),
                snapshot=self.snapshot(),
                blocking=blocking,
                blocked=None if blocking == "off" else self.blocked_pairs(blocking),
            )

            def charged(candidates: CandidateSet) -> CandidateSet:
                if candidates.blocking is not None:
                    self._charge(
                        "blocking_pairing_filter", candidates.blocking.filter_seconds
                    )
                return candidates

            def apply(old: Optional[CandidateSet], key_ball, _ball) -> CandidateSet:
                if not filtered:  # never parked: see _park
                    return charged(build_candidates(self.graph, self.keys, **inputs))
                if old is None:
                    return charged(
                        build_filtered_candidates(
                            self.graph,
                            self.keys,
                            reduce_neighborhoods=reduce_neighborhoods,
                            **inputs,
                        )
                    )
                if blocking == "off":
                    touching = quadratic_pairs_touching(
                        inputs["snapshot"], self.keys.target_types(), key_ball
                    )
                else:
                    touching = self.blocking_index().pairs_touching(key_ball)
                return charged(
                    rebase_filtered_candidates(
                        old,
                        self.keys,
                        affected_entities=key_ball,
                        touching=touching,
                        reduce_neighborhoods=reduce_neighborhoods,
                        **inputs,
                    )
                )

            flavour = (filtered, reduce_neighborhoods, blocking != "off")
            return self._slot("candidates", flavour, apply)

    def dependency_map(
        self,
        *,
        filtered: bool,
        reduce_neighborhoods: bool = False,
        blocking: str = "off",
    ):
        """The prerequisite → dependents map over the flavour's candidates."""
        with self._lock:
            candidates = self.candidates(
                filtered=filtered,
                reduce_neighborhoods=reduce_neighborhoods,
                blocking=blocking,
            )
            # reduced flavours: entities whose restriction drifted via an
            # affected partner pair count as affected for the row rebase
            drift = candidates.restriction_drift or set()
            return self._slot(
                "dependency_map",
                (filtered, reduce_neighborhoods, blocking != "off"),
                lambda old, _key_ball, ball: (
                    DependencyArtifact.build(self.keys, candidates)
                    if old is None
                    else old.rebased(self.keys, candidates, ball | drift)
                ),
            ).forward

    def product_graph(
        self,
        *,
        filtered: bool,
        reduce_neighborhoods: bool = False,
        blocking: str = "off",
    ) -> ProductGraph:
        with self._lock:
            flavour = dict(
                filtered=filtered,
                reduce_neighborhoods=reduce_neighborhoods,
                blocking=blocking,
            )
            candidates = self.candidates(**flavour)
            dependents = self.dependency_map(**flavour)
            snapshot = self.snapshot()
            drift = candidates.restriction_drift or set()
            return self._slot(
                "product_graph",
                (filtered, reduce_neighborhoods, blocking != "off"),
                lambda old, key_ball, ball: (
                    ProductGraph(snapshot, self.keys, candidates, dependents=dependents)
                    if old is None
                    else old.rebased(
                        snapshot,
                        self.keys,
                        candidates,
                        key_ball | drift,
                        rows=ball,
                        dependents=dependents,
                    )
                ),
            )
