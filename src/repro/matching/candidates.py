"""Construction and filtering of the candidate set ``L``.

``L`` contains every pair of same-type entities on which at least one key is
defined; the optimized algorithms shrink it with the pairing relation of
Proposition 9 (a cheap necessary condition) before any isomorphism check, and
shrink the d-neighbourhoods to pairing-supported nodes at the same time.  A
set reads its pairs by entity off its pair table
(:class:`~repro.matching.pair_table.PairTable`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.chase import candidate_pairs
from ..core.equivalence import Pair
from ..core.graph import Graph
from ..core.key import KeySet
from ..core.triples import GraphNode
from ..storage import GraphSnapshot, SnapshotNeighborhoodIndex
from ..storage.neighborhoods import entities_within, radius_per_type
from .blocking import BlockingIndex, BlockingStats, blocked_candidate_pairs
from .pair_table import PairTable


@dataclass
class CandidateSet:
    """The candidate pairs to check, with the supporting neighbourhood index."""

    #: in deterministic enumeration order; never mutated in place (a blocked
    #: unfiltered set shares the session cache's enumeration tuple)
    pairs: Sequence[Pair]
    neighborhoods: SnapshotNeighborhoodIndex
    #: the pairs by entity, and the survivors by type (a
    #: :class:`~repro.matching.pair_table.PairTable`).  Unlisted in it: a
    #: filtered set's rejected pairs, which a window finds by entity and
    #: judges again, and every pair of an unfiltered set (never edited)
    table: PairTable
    #: |L| before the pairing filter (for the optimization-effectiveness stats).
    unfiltered_size: int = 0
    #: total neighbourhood size before reduction (nodes).
    unreduced_neighborhood_total: int = 0
    #: pairing provenance of *filtered* sets: surviving pair -> the two
    #: pairing-support node sets (``None`` on unfiltered sets).  Incremental
    #: rebasing (``repro.matching.incremental``) reuses these to skip the
    #: pairing fixpoint for pairs a journal delta cannot have affected.
    pair_supports: Optional[Dict[Pair, Tuple[Set[GraphNode], Set[GraphNode]]]] = None
    #: entities whose *reduced* neighbourhood changed in a rebase although
    #: they were not delta-affected themselves: pairing supports are a joint
    #: simulation, so a mutation entirely on the partner's side of a pair
    #: can grow/shrink this side's support union.  Consumers keyed on
    #: restricted neighbourhoods (the reduce-flavour dependency map) must
    #: treat these entities as affected too.  ``None`` on unreduced sets,
    #: empty on a set applied from empty (every entity was affected).
    restriction_drift: Optional[Set[str]] = None
    #: observability of the blocked enumeration (``None`` when the pairs came
    #: from the classic quadratic path).
    blocking: Optional[BlockingStats] = None
    #: unreduced filtered sets: the pairs the apply that made the set paired
    #: and kept (every pair, from empty), each with its product-graph nodes
    #: (itself plus every node pair of its pairing relations, Prop. 9), so
    #: the product graph reads them instead of running the same fixpoint
    #: again
    repaired: Optional[Dict[Pair, Set[Tuple[GraphNode, GraphNode]]]] = None

    # A candidate set travels to process-pool workers inside the product
    # graph; what only a rebase reads stays behind (its table's index too).
    def __getstate__(self) -> Dict[str, object]:
        table = PairTable(self.table.lists, self.table.unlisted)
        return {**self.__dict__, "table": table, "repaired": None}

    @property
    def size(self) -> int:
        return len(self.pairs)

    @property
    def rejected_pairs(self) -> Optional[AbstractSet[Pair]]:
        """Pairs the pairing filter rejected (``None`` on unfiltered sets)."""
        return None if self.pair_supports is None else self.table.unlisted

    def reduction_ratio(self) -> float:
        """Fraction of candidate pairs removed by the pairing filter."""
        if self.unfiltered_size == 0:
            return 0.0
        return 1.0 - (len(self.pairs) / self.unfiltered_size)

    def pairs_touching(self, entities: Iterable[GraphNode]) -> Set[Pair]:
        """The pairs of the set with an entity in *entities* (other nodes
        hold no pair), read off the per-entity index."""
        supports = self.pair_supports
        if supports is None:
            return self.table.touching(entities)
        index = self.table.index()
        return {pair for entity in entities for pair in index.get(entity, ()) if pair in supports}

    def holds(self, pair: Pair) -> bool:
        """Whether *pair* is one of the set's pairs (an index lookup)."""
        if self.pair_supports is not None:
            return pair in self.pair_supports
        return pair in self.table.index().get(pair[0], ())

    def in_order(self, pairs: Iterable[Pair]) -> List[Pair]:
        """*pairs* in the set's enumeration order: by sorted type, then
        canonically ordered pairs sorted within each type."""
        entity_type = self.neighborhoods.snapshot.entity_type
        return sorted(pairs, key=lambda pair: (entity_type(pair[0]), pair))

    def neighborhood_reduction_factor(self) -> float:
        """How many times smaller the reduced neighbourhoods are."""
        reduced = self.neighborhoods.total_size()
        if reduced == 0:
            return 1.0
        return self.unreduced_neighborhood_total / reduced


def _universe(
    graph: Graph,
    keys: KeySet,
    snapshot: GraphSnapshot,
    blocking: str,
    blocking_index: Optional[BlockingIndex],
    blocked: Optional[Tuple[Sequence[Pair], BlockingStats]],
) -> Tuple[Sequence[Pair], Optional[BlockingStats]]:
    """The unfiltered ``L`` and the blocking stats (``None`` when quadratic)."""
    if blocked is not None:
        return blocked
    if blocking != "off":
        pairs, stats, _ = blocked_candidate_pairs(
            graph, keys, mode=blocking, snapshot=snapshot, index=blocking_index
        )
        return pairs, stats
    return candidate_pairs(snapshot, keys), None


def build_candidates(
    graph: Graph,
    keys: KeySet,
    *,
    index: Optional[SnapshotNeighborhoodIndex] = None,
    snapshot: Optional[GraphSnapshot] = None,
    blocking: str = "off",
    blocking_index: Optional[BlockingIndex] = None,
    blocked: Optional[Tuple[Sequence[Pair], BlockingStats]] = None,
) -> CandidateSet:
    """The unfiltered candidate set ``L`` with full d-neighbourhoods.

    Every read goes to *snapshot* (:meth:`Graph.snapshot` when not given):
    candidate enumeration reads its type buckets and the neighbourhoods come
    off its CSR arrays.  Pass a prebuilt *index* over it (e.g. a session
    cache's) to reuse neighbourhood BFS results across runs; it is extended
    in place with any missing entities.

    *blocking* selects the enumeration strategy: ``"off"`` is the classic
    quadratic scan, ``"auto"`` enumerates through signature blocks with a
    per-type quadratic fallback for uncertified keys, ``"force"`` refuses to
    fall back (see :mod:`repro.matching.blocking`).  *blocked* — the session
    cache's ``(pairs, stats)`` enumeration of the graph version at hand,
    with the stats the caller's own — skips the signature build and the
    collision pass; it is what every caller in ``src/`` passes.  A prebuilt
    *blocking_index* skips the signature build only: it is kept for the
    benchmark spine's cache-less batch path alone and goes, with the
    ``blocked_candidate_pairs`` branch, once the spine passes *blocked*
    (ROADMAP item 4).
    """
    snapshot = graph.snapshot() if snapshot is None else snapshot
    pairs, stats = _universe(graph, keys, snapshot, blocking, blocking_index, blocked)
    neighborhoods = index if index is not None else SnapshotNeighborhoodIndex(snapshot, keys)
    involved = {e for pair in pairs for e in pair}
    neighborhoods.precompute(involved)
    total = neighborhoods.total_size()
    return CandidateSet(
        pairs=pairs,
        neighborhoods=neighborhoods,
        unfiltered_size=len(pairs),
        unreduced_neighborhood_total=total,
        blocking=stats,
        table=PairTable({}, pairs),
    )


def build_filtered_candidates(
    graph: Graph,
    keys: KeySet,
    reduce_neighborhoods: bool = True,
    *,
    index: Optional[SnapshotNeighborhoodIndex] = None,
    snapshot: Optional[GraphSnapshot] = None,
    blocking: str = "off",
    blocking_index: Optional[BlockingIndex] = None,
    blocked: Optional[Tuple[Sequence[Pair], BlockingStats]] = None,
) -> CandidateSet:
    """The candidate set after the pairing filter of Section 4.2: the
    filtered set's one rule,
    :func:`~repro.matching.incremental.rebase_filtered_candidates`, applied
    to the empty set with every keyed entity affected, so every pair of
    ``L`` is paired.

    Pairs that cannot be paired by any key are dropped (Proposition 9(a));
    when *reduce_neighborhoods* is set, the d-neighbourhoods of surviving
    pairs are shrunk to the union of pairing-supported nodes.  A shared
    *index* is never reduced in place — the reduction happens on a clone, so
    the caller's cache stays valid for unreduced consumers.  Every read (type
    lookups, the pairing fixpoint) goes to *snapshot*, *graph*'s published one
    when not given; ``L`` is enumerated as :func:`build_candidates`
    does.
    """
    from .incremental import rebase_filtered_candidates  # it imports this module

    snapshot = graph.snapshot() if snapshot is None else snapshot
    pairs, stats = _universe(graph, keys, snapshot, blocking, blocking_index, blocked)
    index = index if index is not None else SnapshotNeighborhoodIndex(snapshot, keys)
    empty = CandidateSet(pairs=(), neighborhoods=index, pair_supports={}, table=PairTable({}))
    return rebase_filtered_candidates(
        empty,
        keys,
        snapshot=snapshot,
        index=index,
        affected_entities={
            entity for etype in keys.target_types() for entity in snapshot.entities_of_type(etype)
        },
        touching=pairs,
        reduce_neighborhoods=reduce_neighborhoods,
        blocked=None if stats is None else (pairs, stats),
    )


def apply_support_restrictions(
    neighborhoods: SnapshotNeighborhoodIndex,
    supports: Dict[Pair, Tuple[Set[GraphNode], Set[GraphNode]]],
) -> None:
    """Shrink *neighborhoods* to the pairing-supported nodes of *supports*.

    Each entity keeps the union of the support nodes over every surviving
    pair it participates in (plus itself) — the Section 4.2 reduction,
    factored out so the incremental rebase can re-apply it from cached
    supports without re-running the pairing fixpoint.
    """
    kept_nodes: Dict[str, Set[GraphNode]] = {}
    for (e1, e2), (side1, side2) in supports.items():
        kept_nodes.setdefault(e1, set()).update(side1 | {e1})
        kept_nodes.setdefault(e2, set()).update(side2 | {e2})
    for entity, allowed in kept_nodes.items():
        neighborhoods.restrict(entity, allowed)


def depends_on_types_by_target(keys: KeySet) -> Dict[str, Set[str]]:
    """Per keyed type, the entity-variable types its keys recurse into."""
    depends_on_types: Dict[str, Set[str]] = {}
    for etype in keys.target_types():
        types: Set[str] = set()
        for key in keys.keys_for_type(etype):
            types |= key.depends_on_types()
        depends_on_types[etype] = types
    return depends_on_types


def probe_prerequisites(
    dependent: Pair, wanted_types: Set[str], candidates: CandidateSet
) -> Set[Pair]:
    """The pairs of *candidates* that *dependent* depends on (its ``dep``
    in-edges): those of a wanted type with an entity in one of the
    dependent's two neighbourhoods, read off the per-entity index from the
    neighbourhoods — work for the neighbourhoods, not for the wanted types'
    pairs."""
    if not wanted_types:
        return set()
    e1, e2 = dependent
    neighborhoods = candidates.neighborhoods
    entity_type = neighborhoods.snapshot.entity_type
    return {
        pair
        for pair in candidates.pairs_touching(neighborhoods.nodes(e1) | neighborhoods.nodes(e2))
        if pair != dependent and entity_type(pair[0]) in wanted_types
    }


def dependents_reaching(
    keys: KeySet,
    candidates: CandidateSet,
    prerequisites: Iterable[Pair],
    skip: Set[Pair] = frozenset(),
) -> Dict[Pair, Set[Pair]]:
    """Prerequisite → the pairs of *candidates* (outside *skip*) that
    depend on it, for each of *prerequisites*, probed from their radius
    ball.

    A pair depends on a prerequisite when one of the prerequisite's
    entities lies in one of the pair's two neighbourhoods, and a
    neighbourhood is a radius ball (or a restriction of one), so every
    dependent has an entity within the key set's largest radius of the
    prerequisite: one BFS from the prerequisites' entities finds them all,
    and the pairs read are those of the entities it reaches.
    """
    neighborhoods = candidates.neighborhoods
    snapshot = neighborhoods.snapshot
    by_entity: Dict[str, List[Pair]] = {}
    for pair in prerequisites:
        for entity in dict.fromkeys(pair):
            by_entity.setdefault(entity, []).append(pair)
    edges: Dict[Pair, Set[Pair]] = {}
    if not by_entity:
        return edges
    depends_on_types = depends_on_types_by_target(keys)
    radius = max(radius_per_type(keys).values(), default=0)
    for entity in entities_within(snapshot, by_entity, radius):
        dependents = candidates.pairs_touching((entity,)) - skip
        wanted = depends_on_types.get(snapshot.entity_type(entity))
        if not dependents or not wanted:
            continue
        for reached in neighborhoods.nodes(entity) & by_entity.keys():
            for prerequisite in by_entity[reached]:
                if snapshot.entity_type(prerequisite[0]) in wanted:
                    found = edges.setdefault(prerequisite, set())
                    found.update(dependents)
                    found.discard(prerequisite)
    return {prerequisite: found for prerequisite, found in edges.items() if found}


def dependency_map(keys: KeySet, candidates: CandidateSet) -> Dict[Pair, Set[Pair]]:
    """For each candidate pair, the candidate pairs that *depend on* it.

    ``(e1, e2)`` depends on ``(e'1, e'2)`` when the latter lies in the
    d-neighbourhoods of the former and has the type of an entity variable of a
    recursive key defined on ``(e1, e2)`` (Section 4.2).  The result maps each
    prerequisite pair to its dependents, which is the direction the
    notifications flow in (``dep`` edges of the product graph): the
    ``forward`` map of :meth:`DependencyArtifact.build
    <repro.matching.incremental.DependencyArtifact.build>`.
    """
    from .incremental import DependencyArtifact  # it imports this module

    return DependencyArtifact.build(keys, candidates).forward
