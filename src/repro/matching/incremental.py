"""Incremental entity matching on journal deltas: the shared worklist layer.

The fixpoint ``chase(G, Σ)`` is *local*: whether a candidate pair ``(e1, e2)``
is directly identifiable depends only on the pair's d-neighbourhoods and on
the identification status of the pairs located inside them (the dependency
relation of Section 4.2 that ``EMOptMR`` already exploits *within* a run for
round-2 incremental checking).  This module lifts that machinery *across*
runs: given the graph's mutation journal (:meth:`Graph.touched_since`), it
computes which candidate pairs a delta could possibly have affected, closes
that set under the dependency map, and splits the previous result into

* a **seed** — the equivalence classes no affected pair touches, which are
  provably still part of the new fixpoint: a fork of the frozen old ``Eq``
  that detaches every other class, which the run then merges into, and
* a **worklist** — the affected pairs plus the members of every dropped
  class, which are re-chased from scratch.

Soundness sketch (the invariant the differential mutation-fuzz suite checks
empirically): a pair outside the affected closure has (a) key-triple
neighbourhoods the delta left alone, in both the old and the new graph, and
(b) only prerequisites outside the closure — so its direct-derivability is
unchanged by the delta.  Classes built exclusively from such pairs survive
verbatim; every other previously identified pair is re-derived or dropped.
(a) is one set per window: the *key ball*, the entities within key radius,
on the *new* graph, of a *key-root* — a touched node whose key triples,
entity type or existence the window changed — which
:meth:`SessionArtifacts.refresh` takes once.  A key pattern reaches its
nodes from the designated entity over key triples within the key radius,
so a triple no key names never enters a match.  Every edit journals the
endpoints of the triple it adds or removes, and a changed key triple makes
both of them key-roots, so along any key-triple path, old or new, the
stretch up to its first key-root is on both sides of the delta: a removed
key triple cannot hide an entity whose old neighbourhood held a key-root
from the new ball, and an added one cannot put an entity in the new ball
whose old neighbourhood, at that radius, held none.

The candidate and dependency-map rebases below edit their artifacts
copy-on-write (:mod:`repro.matching.pair_table`).  All six backends consume
the same plan through their ``seed`` / ``worklist`` entry points;
:func:`plan_session_delta` reads a session's artifact cache — which also
holds the seed, so every session sharing the cache plans from the same
fixpoint — across the window, and :class:`~repro.api.session.MatchSession`
owns the fallback policy (a full run when the journal window expired or
the cache holds no fixpoint yet).
"""

from __future__ import annotations

import itertools
import time
from collections import ChainMap
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.equivalence import EquivalenceFork, Pair, Relation
from ..core.key import Key, KeySet
from ..core.pairing import pairing_relation, pairing_support_nodes
from ..core.triples import GraphNode
from ..storage import GraphSnapshot, SnapshotNeighborhoodIndex
from .candidates import (
    CandidateSet,
    apply_support_restrictions,
    dependents_reaching,
    depends_on_types_by_target,
    probe_prerequisites,
)
from .pair_table import edited_sets


class DependencyWorklist:
    """Prerequisite → dependents lookup over a dependency map.

    This is the worklist machinery ``EMOptMR`` uses for its round-2
    incremental checking (re-check a pending pair only when a pair it depends
    on was newly identified), shared here so the cross-run delta planner can
    close affected sets under the same edges.
    """

    def __init__(self, dependents: Mapping[Pair, Set[Pair]]) -> None:
        self._dependents = dependents

    def dependents_of(self, pair: Pair) -> Set[Pair]:
        return self._dependents.get(pair, set())

    def affected_by(self, newly_identified: Iterable[Pair]) -> Set[Pair]:
        """Pairs that must be re-checked after *newly_identified* flipped."""
        to_check: Set[Pair] = set()
        for pair in newly_identified:
            to_check |= self._dependents.get(pair, set())
        return to_check

    def close(self, pairs: Iterable[Pair]) -> Set[Pair]:
        """The transitive closure of *pairs* under the dependents edges."""
        closed: Set[Pair] = set(pairs)
        frontier: List[Pair] = list(closed)
        while frontier:
            pair = frontier.pop()
            for dependent in self._dependents.get(pair, ()):
                if dependent not in closed:
                    closed.add(dependent)
                    frontier.append(dependent)
        return closed


class IncrementalState:
    """The fixpoint a finished run leaves behind to seed the next delta run.

    ``chase(G, Σ)`` is a function of ``(G, Σ)`` alone, so the state carries
    no trace of the run that computed it — no result object, no
    configuration — and one state per graph version, held by the shared
    :class:`~repro.matching.artifacts.SessionArtifacts`, seeds every run
    shape.  Recording it costs O(1): the run's ``Eq`` is frozen in place,
    never copied, and the next run forks it (:meth:`EquivalenceRelation.fork`).
    The candidate set ``L`` at ``version`` is never materialised either.
    Membership in it is a property of the pair alone
    (:meth:`was_candidate`), read off the run's immutable snapshot.
    """

    __slots__ = ("version", "eq", "_snapshot", "_types")

    def __init__(
        self,
        version: int,
        eq: Relation,
        snapshot,
        keys: KeySet,
    ) -> None:
        #: :attr:`Graph.version` the fixpoint corresponds to.
        self.version = version
        #: the computed fixpoint, frozen: a run forks it, never writes it.
        self.eq = eq.freeze()
        self._snapshot = snapshot
        self._types = frozenset(keys.target_types())

    def was_candidate(self, pair: Pair) -> bool:
        """Was *pair* in the unfiltered candidate set ``L`` at :attr:`version`?

        ``L`` is every (canonically ordered) pair of distinct same-type
        entities of a type some key targets
        (:func:`repro.core.chase.candidate_pairs`), so membership is three
        reads of the old snapshot, not a lookup in ``O(|L|)`` pairs.
        """
        e1, e2 = pair
        old = self._snapshot
        if e1 == e2 or not (old.has_entity(e1) and old.has_entity(e2)):
            return False
        etype = old.entity_type(e1)
        return etype == old.entity_type(e2) and etype in self._types


@dataclass(frozen=True)
class DeltaPlan:
    """The affected-pair computation for one incremental run."""

    #: pairs to re-chase, in deterministic candidate order.
    worklist: Tuple[Pair, ...]
    #: the ``Eq`` the run starts from and merges into: a fork of the seed
    #: fixpoint with every dropped class detached.
    seed: EquivalenceFork
    #: previous equivalence classes dropped for re-derivation.
    dropped_classes: int
    #: |L| of the new graph (the invariant denominators).
    candidate_count: int

    @property
    def pairs_rechecked(self) -> int:
        return len(self.worklist)

    @property
    def seed_merges(self) -> int:
        """The merges the surviving classes stand for (their spanning edges)."""
        return self.seed.span()

    @property
    def pairs_skipped(self) -> int:
        return self.candidate_count - len(self.worklist)

    @property
    def result_reusable(self) -> bool:
        """Nothing to re-chase and no class dropped: the old result stands."""
        return not self.worklist and self.dropped_classes == 0


def plan_delta(
    *,
    candidate_pairs: Sequence[Pair],
    dependents: Mapping[Pair, Set[Pair]],
    key_roots: Set[GraphNode],
    affected_entities: Set[str],
    state: IncrementalState,
    old_pair_supports: Optional[Mapping[Pair, Tuple[Set[GraphNode], Set[GraphNode]]]] = None,
    extra_identified: Sequence[Pair] = (),
    extra_dependents: Optional[Mapping[Pair, Set[Pair]]] = None,
    candidates: Optional[CandidateSet] = None,
) -> DeltaPlan:
    """Compute the seed/worklist split for a journal delta.

    The delta is read through what keys see of it.  A matched node is
    reachable from the designated entity by key triples (triples whose
    predicate some key pattern names) within the key radius, so a non-key
    triple never enters a match, a pairing, a support or a signature, and a
    touched node counts only when it is a *key-root*: its key triples, its
    entity type or its existence changed.  An added or removed key triple
    journals both of its endpoints, and the pre/post diff sees the change
    at both of them, so every entity whose key-triple neighbourhood changed
    lies in the key-roots' radius ball — on the new graph, by the two-sided
    argument of the module docstring.  A window that reaches no key triple
    has no key-root and affects nothing: the old result stands.

    Parameters
    ----------
    candidate_pairs:
        The candidate set of the *new* graph, in the deterministic order the
        backends iterate it.  Classically this is the unfiltered (quadratic)
        set; a blocked session plans over the pairing-filtered blocked set
        instead — sound because a pair outside it provably cannot fire, so
        skipping it equals checking-and-failing it.
    dependents:
        The dependency map over *candidate_pairs* (prerequisite → dependents),
        built on the new graph with full (unreduced) neighbourhoods.
    key_roots:
        The window's key-roots since ``state.version``
        (:attr:`~repro.matching.artifacts.WindowSets.key_roots`).
    affected_entities:
        The window's key ball: the entities within key radius of a key-root
        on the new graph (what :meth:`SessionArtifacts.refresh` returns as
        ``key_ball``; the module docstring says why it covers both sides of
        the delta).
    state:
        The seed fixpoint (:class:`IncrementalState`) the delta is planned
        against.
    old_pair_supports:
        The pairing-support nodes recorded at ``state.version`` (per pair, a
        ``(side1, side2)`` node-set tuple).  When given, a *previously
        identified* pair with an untouched support set is **not** marked
        stale even when its wider d-neighbourhood was touched: its old chase
        witness lives inside the pairing support (Prop. 9 — any
        identification witness is contained in the maximal pairing), so an
        untouched support means the witness survived verbatim, and a
        prerequisite that stopped holding reaches the pair through the
        dependency closure instead.  ("Untouched" means "holding no
        key-root".)  Unidentified pairs always get the key-ball test — a
        fresh witness can appear anywhere within key radius.
    extra_identified:
        Previously identified pairs that are *absent* from the new candidate
        universe (their signatures stopped colliding, their pairing broke, or
        an entity was retyped away).  They can no longer fire, so they never
        enter the worklist — but they are force-marked affected so their
        classes drop and the closure re-checks their dependents.
    extra_dependents:
        Dependency edges (prerequisite → dependents) for *extra_identified*
        pairs, which the *dependents* map (keyed on the new universe) cannot
        contain.
    candidates:
        The pairing-filtered :class:`CandidateSet` whose ``pairs`` are
        *candidate_pairs*, when there is one.  The sweep then reads only the
        pairs of *affected_entities* off its per-entity index, and the
        worklist is sorted into candidate order rather than filtered out of
        it.  Nothing else can be marked: a pair with no affected entity has
        no key-root entity and was a candidate before (a new or retyped
        entity is a key-root), and its support set lies within key radius of
        it over old key triples, so a support that holds a key-root puts an
        entity of the pair in the key ball.
    """
    affected: Set[Pair] = set()
    supports = old_pair_supports or {}
    use_supports = old_pair_supports is not None
    eq = state.eq
    swept = (
        candidate_pairs
        if candidates is None
        else candidates.pairs_touching(affected_entities)
    )
    for pair in swept:
        e1, e2 = pair
        if e1 in key_roots or e2 in key_roots or not state.was_candidate(pair):
            affected.add(pair)
            continue
        if use_supports and eq.identified(e1, e2):
            support = supports.get(pair)
            if support is not None:
                if key_roots & support[0] or key_roots & support[1]:
                    affected.add(pair)
                continue
        if e1 in affected_entities or e2 in affected_entities:
            affected.add(pair)
    affected.update(extra_identified)
    if extra_dependents:
        merged: Dict[Pair, Set[Pair]] = dict(dependents)
        for prerequisite, dependent_set in extra_dependents.items():
            merged[prerequisite] = merged.get(prerequisite, set()) | dependent_set
        dependents = merged
    affected = DependencyWorklist(dependents).close(affected)

    # every entity the delta implicates: members of affected pairs plus every
    # key-root entity (covers candidate pairs that *vanished*, e.g. a retype)
    implicated: Set[str] = {entity for pair in affected for entity in pair}
    implicated |= key_roots & affected_entities

    # the classes to drop, found from their implicated members: the seed
    # minus them is a fork that detaches their members
    dropped = _classes_of(eq, implicated)
    dropped_pairs: Set[Pair] = set()
    for root in dropped:
        dropped_pairs.update(itertools.combinations(sorted(eq.class_members(root)), 2))

    if candidates is None:
        worklist = tuple(
            pair for pair in candidate_pairs if pair in affected or pair in dropped_pairs
        )
    else:
        universe = candidates.pair_supports
        worklist = tuple(
            candidates.in_order(
                pair for pair in affected | dropped_pairs if pair in universe
            )
        )
    return DeltaPlan(
        worklist=worklist,
        seed=eq.fork(drop=dropped),
        dropped_classes=len(dropped),
        candidate_count=len(candidate_pairs),
    )


def _classes_of(eq: Relation, entities: Iterable[str]) -> List[str]:
    """The representatives of the classes of size ≥ 2 holding one of
    *entities*, in a salt-free order (found by ``root``: the classes
    themselves are never walked)."""
    roots = {eq.root(entity) for entity in entities}
    return sorted(root for root in roots if eq.class_size(root) > 1)


def plan_session_delta(
    artifacts,
    state: IncrementalState,
    *,
    blocking: str,
) -> DeltaPlan:
    """Refresh a session's artifact cache over a journal window and plan the
    delta re-chase against the seed *state*.

    *artifacts* is the session's
    :class:`~repro.matching.artifacts.SessionArtifacts`, still at
    ``state.version`` (*state* is the seed it holds); it leaves here
    reconciled with the live graph.  The plan reads the window's key-roots
    and key ball off the refresh: the key-roots' radius ball over the new
    snapshot, which holds every entity whose old or new key-triple
    neighbourhood a key-root entered (a removed key triple makes both
    endpoints key-roots, and so does an added one) — cached or not, so a
    seed a blocked sibling left, or an entity that never collided, needs no
    case of its own.  An empty window — a sibling run shape already moved
    the cache and the seed to the live version — plans against that shape's
    fixpoint: nothing is affected, and only this flavour's parked slots are
    rebased.
    """
    blocked = blocking != "off"
    # the one read before the refresh: the rebase recomputes the supports of
    # affected pairs, but plan_delta judges the *old* chase witness, which
    # lives inside the *old* support set.  A rebase copies before it writes,
    # so the cached sets' own maps stay the old ones; every flavour records
    # the same support for a pair (pairing reads unreduced neighbourhoods)
    old_supports: Optional[Mapping[Pair, Tuple[Set[GraphNode], Set[GraphNode]]]] = None
    if blocked:
        old_supports = ChainMap(
            *(
                cached.pair_supports
                for cached in artifacts.cached("candidates").values()
                if cached.pair_supports
            )
        )
    window = artifacts.refresh()
    # classic planning is quadratic: every candidate pair of the new graph is
    # in the universe, so vanished pairs and support-level refinements never
    # arise.  A blocked session plans over the sub-quadratic blocked
    # (pairing-filtered) universe plus the previous run's identified pairs: a
    # pair outside the blocked set provably cannot fire, so skipping it
    # equals checking-and-failing it — but a previously-identified pair that
    # *vanished* from the universe (signatures stopped colliding, or its
    # pairing broke) must still drop its class and re-check its dependents,
    # so those pairs rejoin as force-affected extras with explicitly probed
    # dependency edges.
    candidates = artifacts.candidates(filtered=blocked, blocking=blocking)
    dependents = artifacts.dependency_map(filtered=blocked, blocking=blocking)
    extras: List[Pair] = []
    if blocked:
        # an identified pair outside the universe matters only when it left
        # the universe in this window, and a pair enters or leaves it only
        # through a key-ball entity: its class has a member there
        universe = candidates.pair_supports
        eq = state.eq
        extras = sorted(
            {
                pair
                for root in _classes_of(eq, window.key_ball)
                for pair in itertools.combinations(sorted(eq.class_members(root)), 2)
                if pair not in universe
            }
        )
    return plan_delta(
        candidate_pairs=candidates.pairs,
        dependents=dependents,
        key_roots=window.key_roots,
        affected_entities=window.key_ball,
        state=state,
        old_pair_supports=old_supports,
        extra_identified=extras,
        extra_dependents=extra_dependency_edges(
            artifacts.snapshot(), artifacts.keys, candidates, extras
        ),
        candidates=candidates if blocked else None,
    )


def extra_dependency_edges(
    graph,
    keys: KeySet,
    candidates: CandidateSet,
    extra_pairs: Sequence[Pair],
) -> Dict[Pair, Set[Pair]]:
    """Dependency edges from *extra_pairs* into the candidate universe.

    *extra_pairs* are previously identified pairs that fell out of the new
    candidate universe, so the session's cached dependency map has no row for
    them; this probes the candidates within key radius of an extra pair's
    entities (:func:`~repro.matching.candidates.dependents_reaching`) and
    returns the prerequisite → dependents edges the delta closure needs.
    Cost is proportional to the extras' radius balls (zero when
    *extra_pairs* is empty), never to the universe.
    """
    # extras with a removed or retyped entity need no probing: that entity
    # was journal-touched, and it is a witness node of every dependent (a
    # prerequisite's entities are matched by the dependent's key pattern),
    # so the support-level staleness test already marks those dependents
    probeable = [
        pair
        for pair in extra_pairs
        if graph.has_entity(pair[0]) and graph.has_entity(pair[1])
        and graph.entity_type(pair[0]) == graph.entity_type(pair[1])
    ]
    return dependents_reaching(keys, candidates, probeable)


# --------------------------------------------------------------------------- #
# artifact rebasing: candidates and product-graph entries under a delta
# --------------------------------------------------------------------------- #


def rebase_filtered_candidates(
    old: CandidateSet,
    keys: KeySet,
    *,
    snapshot: GraphSnapshot,
    index: SnapshotNeighborhoodIndex,
    affected_entities: Set[str],
    touching: Iterable[Pair],
    reduce_neighborhoods: bool,
    blocking: str = "off",
    blocked=None,
) -> CandidateSet:
    """The pairing-filtered :class:`CandidateSet` of a graph version, carried
    from *old*, an earlier version's, by re-running the pairing fixpoint
    only for the pairs the delta could have affected: the filtered set's one
    construction rule (:func:`build_filtered_candidates` applies it to the
    empty set, with every pair of ``L`` touching).

    A pair's pairing outcome (and its support nodes) reads only the key
    triples within key radius of its two entities, so a pair with no entity
    in *affected_entities* — the window's key ball — keeps the verdict *old*
    holds for it.  Such a pair was in the old universe too: a pair enters or
    leaves the universe only through an entity whose signatures, type or
    keys the delta changed, and every such entity is affected.  So the
    supports are carried as a C-level copy and the survivors' order, the
    rejected pairs and the per-entity index as *old*'s pair table edited
    (:meth:`~repro.matching.pair_table.PairTable.edited`), and Python-level
    work is spent on *touching* — the new universe's pairs with an affected
    entity (the caller reads them off the blocking index, or the type
    buckets when unblocked) — and on the old verdicts naming an affected
    entity, which are dropped first.  An unreduced set
    carries the product-graph nodes of every pair it paired (``repaired``);
    a reduced one re-applies its restrictions over every support.  With
    *blocking*, pass the session cache's *blocked* enumeration of the new
    version (:meth:`SessionArtifacts.blocked_pairs`): its stats ride along
    and its length is the unfiltered size.
    """
    if blocked is not None:
        universe_size, stats = len(blocked[0]), blocked[1]
    else:
        universe_size, stats = 0, None
        for etype in keys.target_types():
            count = len(snapshot.type_ids(etype))
            universe_size += count * (count - 1) // 2
    old_supports = old.pair_supports
    stale = old.table.touching(affected_entities)
    involved = {entity for pair in touching for entity in pair}
    index.precompute(involved)
    started = time.perf_counter()  # the pairing filter's own clock
    neighborhoods = index.clone() if reduce_neighborhoods else index
    keys_by_type: Dict[str, List[Key]] = {
        etype: keys.keys_for_type(etype) for etype in keys.target_types()
    }
    supports = dict(old_supports)
    for pair in stale:
        supports.pop(pair, None)
    repaired: Dict[Pair, Set[Tuple[GraphNode, GraphNode]]] = {}
    paired_by_type: Dict[str, List[Pair]] = {}
    rejected: List[Pair] = []
    for pair in sorted(touching):
        e1, e2 = pair
        etype = snapshot.entity_type(e1)
        side1: Set[GraphNode] = set()
        side2: Set[GraphNode] = set()
        paired = False
        nbhd1 = neighborhoods.nodes(e1)
        nbhd2 = neighborhoods.nodes(e2)
        nodes = None if reduce_neighborhoods else {pair}
        for key in keys_by_type.get(etype, ()):
            relation = pairing_relation(snapshot, key, e1, e2, nbhd1, nbhd2)
            if relation is None:
                continue
            paired = True
            support1, support2 = pairing_support_nodes(relation)
            side1 |= support1
            side2 |= support2
            if nodes is not None:
                for node_pairs in relation.values():
                    nodes.update(node_pairs)
        if paired:
            supports[pair] = (side1, side2)
            paired_by_type.setdefault(etype, []).append(pair)
            if nodes is not None:
                repaired[pair] = nodes
        else:
            rejected.append(pair)
    table = old.table.edited(stale, paired_by_type, rejected)

    drift: Optional[Set[str]] = None
    if reduce_neighborhoods:
        apply_support_restrictions(neighborhoods, supports)
        # pairing is a joint simulation: an unaffected entity's restriction
        # can still change when a pair it shares with an affected partner
        # had its support recomputed (or vanished); detect it so consumers
        # of restricted neighbourhoods widen their affected sets
        recomputed = set(involved)
        for pair in stale:  # an old survivor no pairing judged again
            if pair in old_supports and pair not in supports and pair not in table.unlisted:
                recomputed.update(pair)
        drift = {
            entity
            for entity in recomputed - affected_entities
            if neighborhoods.nodes(entity) != old.neighborhoods.nodes(entity)
        }

    if stats is not None:
        stats.filter_seconds += time.perf_counter() - started
    return CandidateSet(
        pairs=table.ordered(),
        neighborhoods=neighborhoods,
        unfiltered_size=universe_size,
        unreduced_neighborhood_total=index.total_size(),
        pair_supports=supports,
        restriction_drift=drift,
        blocking=stats,
        table=table,
        repaired=None if reduce_neighborhoods else repaired,
    )


class DependencyArtifact:
    """Both directions of a dependency map, rebased copy-on-write.

    ``forward`` is the consumer-facing prerequisite → dependents mapping
    (exactly :func:`~repro.matching.candidates.dependency_map`); ``rows`` is
    its inverse (dependent → prerequisites), kept so :meth:`rebased` can
    patch only delta-affected rows instead of re-deriving every edge; and
    ``candidates`` is the candidate set both are over, whose per-entity
    index tells a rebase which of its pairs a window can reach.  Both maps
    hold frozensets, and only for the pairs with an edge: a rebase collects
    the edges a window drops and adds and edits both maps by them
    (:func:`~repro.matching.pair_table.edited_sets`), so every set it does
    not touch is shared between generations, and every pair it reads comes
    off a per-entity index, so its Python-level work is the delta's, not
    ``|L|``'s.
    """

    __slots__ = ("forward", "rows", "candidates")

    def __init__(
        self,
        forward: Dict[Pair, FrozenSet[Pair]],
        rows: Dict[Pair, FrozenSet[Pair]],
        candidates: Optional[CandidateSet],
    ) -> None:
        self.forward = forward
        self.rows = rows
        self.candidates = candidates

    @classmethod
    def build(cls, keys: KeySet, candidates: CandidateSet) -> "DependencyArtifact":
        """The map over *candidates*: :meth:`rebased` from the empty
        artifact, which is over no candidates, so every pair's row is
        probed."""
        return cls({}, {}, None).rebased(keys, candidates, set())

    def rebased(
        self,
        keys: KeySet,
        candidates: CandidateSet,
        affected_entities: Set[str],
    ) -> "DependencyArtifact":
        """This artifact migrated onto the new graph version after a delta:
        the map's one construction rule.

        A pair enters or leaves the candidates only through an entity in
        *affected_entities*, so the removed pairs are the old pairs of those
        entities that the new set no longer holds, and the new pairs are
        among its pairs of them; both are read off the two sets' per-entity
        indexes.  Removed pairs lose every edge; the rows of the dependents
        with an affected entity (the new pairs among them) are recomputed
        from their neighbourhoods
        (:func:`~repro.matching.candidates.probe_prerequisites`) — every
        pair's, from the empty artifact; and, when some candidate pair is
        not such a dependent, the new pairs are probed as *prerequisites* of
        the other dependents within key radius of them
        (:func:`~repro.matching.candidates.dependents_reaching`).
        ``forward`` is bit-identical (as a mapping of sets) whatever
        artifact it started from.
        """
        depends_on_types = depends_on_types_by_target(keys)
        old_forward, old_rows, old_candidates = self.forward, self.rows, self.candidates
        # the (prerequisite, dependent) edges the window drops and adds
        lost: List[Tuple[Pair, Pair]] = []
        gained: List[Tuple[Pair, Pair]] = []
        if old_candidates is None:
            affected_dependents = set(candidates.pairs)
        else:
            holds = candidates.holds
            for pair in old_candidates.pairs_touching(affected_entities):
                if not holds(pair):  # no longer a candidate: every edge goes
                    lost.extend((prerequisite, pair) for prerequisite in old_rows.get(pair, ()))
                    lost.extend((pair, dependent) for dependent in old_forward.get(pair, ()))
            affected_dependents = candidates.pairs_touching(affected_entities)
        # the rows of affected dependents, recomputed (new pairs among them)
        entity_type = candidates.neighborhoods.snapshot.entity_type
        for dependent in affected_dependents:
            wanted = depends_on_types.get(entity_type(dependent[0]), set())
            new_row = probe_prerequisites(dependent, wanted, candidates)
            old_row = old_rows.get(dependent, frozenset())
            if new_row != old_row:
                lost.extend((prerequisite, dependent) for prerequisite in old_row - new_row)
                gained.extend((prerequisite, dependent) for prerequisite in new_row - old_row)
        # fresh pairs probed as prerequisites of *unaffected* dependents, if any
        if len(affected_dependents) < len(candidates.pairs):
            fresh = [pair for pair in affected_dependents if not old_candidates.holds(pair)]
            reached = dependents_reaching(keys, candidates, fresh, skip=affected_dependents)
            gained.extend(
                (prerequisite, dependent)
                for prerequisite, dependents in reached.items()
                for dependent in dependents
            )
        return DependencyArtifact(
            edited_sets(old_forward, lost, gained),
            edited_sets(old_rows, [(d, p) for p, d in lost], [(d, p) for p, d in gained]),
            candidates,
        )
