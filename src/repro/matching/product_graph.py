"""The product graph ``Gp`` used by the vertex-centric algorithms (Section 5.1).

Nodes of ``Gp`` are *pairs* of graph nodes that can appear together in some
pairing relation of a candidate pair (Proposition 9) — entity pairs, equal
value pairs and identity pairs — plus the candidate pairs themselves.  Edges
mirror the topology of ``G`` (there is a ``p``-edge from ``(s1, s2)`` to
``(o1, o2)`` when both component edges exist in ``G``), and two extra edge
kinds encode the dependency (``dep``) and transitive-closure (``tc``)
relationships used to drive incremental re-evaluation.

The experiments report ``|Gp| ≈ 2.7·|G|`` on average, far smaller than the
naive ``|G|²``; :meth:`ProductGraph.count_edges` reproduces that statistic.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.equivalence import Pair
from ..core.graph import Graph
from ..core.key import KeySet
from ..core.pairing import pairing_relation
from ..core.triples import GraphNode, is_entity_ref
from .candidates import CandidateSet, dependency_map

#: A product-graph node: an ordered pair of graph nodes.
ProductNode = Tuple[GraphNode, GraphNode]


class ProductGraph:
    """``Gp``: pair nodes, pair adjacency, ``dep`` edges and ``tc`` indexes."""

    def __init__(
        self,
        graph: Graph,
        keys: KeySet,
        candidates: CandidateSet,
        dependents: Optional[Dict[Pair, Set[Pair]]] = None,
    ) -> None:
        self._graph = graph
        self._keys = keys
        self._candidates = candidates
        #: optional precomputed dependency map (e.g. the session cache's);
        #: must equal ``dependency_map(graph, keys, candidates)``
        self._prebuilt_dependents = dependents
        self._nodes: Set[ProductNode] = set()
        self._candidate_nodes: List[Pair] = list(candidates.pairs)
        self._dependents: Dict[Pair, Set[Pair]] = {}
        self._pairs_by_entity: Dict[str, Set[Pair]] = defaultdict(set)
        #: per-candidate-pair contributed nodes (the pair itself plus its
        #: pairing-relation nodes); :meth:`rebased` reuses the entries of
        #: pairs a journal delta cannot have affected.
        self._nodes_by_pair: Dict[Pair, Set[ProductNode]] = {}
        #: work units spent building the product graph (charged as setup cost)
        self.construction_work = 0
        #: :meth:`count_edges`, once asked (every run reports it), and the
        #: per-node topology out-edge counts it summed (entity-pair nodes
        #: only); :meth:`rebased` carries the counts a delta cannot move
        self._edge_count: Optional[int] = None
        self._edge_counts: Dict[ProductNode, int] = {}
        self._build()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def _pair_nodes(self, pair: Pair) -> Set[ProductNode]:
        """The product nodes contributed by one candidate pair (Prop. 9)."""
        e1, e2 = pair
        neighborhoods = self._candidates.neighborhoods
        nbhd1 = neighborhoods.nodes(e1)
        nbhd2 = neighborhoods.nodes(e2)
        contributed: Set[ProductNode] = {pair}
        for key in self._keys.keys_for_type(self._graph.entity_type(e1)):
            relation = pairing_relation(self._graph, key, e1, e2, nbhd1, nbhd2)
            self.construction_work += key.size * max(1, len(nbhd1))
            if relation is None:
                continue
            for pairs in relation.values():
                contributed.update(pairs)
        return contributed

    def _register_pair(self, pair: Pair, contributed: Set[ProductNode]) -> None:
        self._nodes_by_pair[pair] = contributed
        self._nodes |= contributed
        self._pairs_by_entity[pair[0]].add(pair)
        self._pairs_by_entity[pair[1]].add(pair)

    def _build(self) -> None:
        for pair in self._candidates.pairs:
            self._register_pair(pair, self._pair_nodes(pair))
        self._dependents = (
            self._prebuilt_dependents
            if self._prebuilt_dependents is not None
            else dependency_map(self._graph, self._keys, self._candidates)
        )
        self._prebuilt_dependents = None
        self.construction_work += len(self._nodes)

    def rebased(
        self,
        graph: Graph,
        candidates: CandidateSet,
        affected_entities: Set[str],
        dependents: Optional[Dict[Pair, Set[Pair]]] = None,
        keys=None,
    ) -> "ProductGraph":
        """This product graph rebuilt over *graph* after a journal delta.

        Pairing relations are recomputed only for candidate pairs with an
        entity in *affected_entities* (or pairs new since the old build);
        every other pair's contributed nodes are carried over unchanged —
        sound because a pairing relation only reads the pair's two
        d-neighbourhoods.  The ``dep`` edges are recomputed from the new
        candidates.  The result is bit-identical to ``ProductGraph(graph,
        keys, candidates)``.  Pass *keys* when the key set changed since the
        old build (a session ``rekeyed`` delta): affected pairs then
        recompute their relations under the new keys.  *affected_entities*
        must hold every entity the delta touched (it does for every journal
        window: a mutated triple touches its subject), which is also what
        lets the per-node edge counts of untouched nodes carry over.
        """
        twin = object.__new__(ProductGraph)
        twin._graph = graph
        twin._keys = self._keys if keys is None else keys
        twin._candidates = candidates
        twin._nodes = set()
        twin._candidate_nodes = list(candidates.pairs)
        twin._dependents = {}
        twin._pairs_by_entity = defaultdict(set)
        twin._nodes_by_pair = {}
        twin._prebuilt_dependents = None
        twin.construction_work = 0
        twin._edge_count = None
        for pair in candidates.pairs:
            cached = self._nodes_by_pair.get(pair)
            if cached is not None and not affected_entities.intersection(pair):
                twin._register_pair(pair, cached)
            else:
                twin._register_pair(pair, twin._pair_nodes(pair))
        twin._dependents = (
            dependents
            if dependents is not None
            else dependency_map(graph, twin._keys, candidates)
        )
        twin.construction_work += len(twin._nodes)
        twin._edge_counts = self._carried_edge_counts(twin, affected_entities)
        return twin

    def _carried_edge_counts(
        self, twin: "ProductGraph", affected_entities: Set[str]
    ) -> Dict[ProductNode, int]:
        """The per-node edge counts still exact on *twin*.

        A node's count reads its two components' out-rows and the membership
        of its successor pairs in ``Gp``.  The rows are unchanged when
        neither component was touched; the successors that changed
        membership are the symmetric difference of the two node sets, and a
        node with untouched rows reaches them through in-edges the new graph
        still holds.
        """
        if not self._edge_counts:
            return {}
        graph, nodes = twin._graph, twin._nodes
        moved: Set[ProductNode] = set()
        for o1, o2 in self._nodes ^ nodes:
            for s1, predicate, _ in graph.in_triples(o1):
                for s2 in graph.subjects(predicate, o2):
                    moved.add((s1, s2))
        return {
            node: count
            for node, count in self._edge_counts.items()
            if node in nodes
            and node not in moved
            and node[0] not in affected_entities
            and node[1] not in affected_entities
        }

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Iterable[ProductNode]:
        return iter(self._nodes)

    def candidate_nodes(self) -> List[Pair]:
        """The candidate entity pairs (the vertices on which keys are evaluated)."""
        return list(self._candidate_nodes)

    def has_node(self, node: ProductNode) -> bool:
        return node in self._nodes

    def dependents_of(self, pair: Pair) -> Set[Pair]:
        """Candidate pairs that depend on *pair* (``dep`` edges out of it)."""
        return self._dependents.get(pair, set())

    def candidate_pairs_touching(self, entity: str) -> Set[Pair]:
        """Candidate pairs having *entity* as a component (``tc`` edge index)."""
        return self._pairs_by_entity.get(entity, set())

    # ------------------------------------------------------------------ #
    # adjacency (computed from G on demand; Gp edges are implicit)
    # ------------------------------------------------------------------ #

    def forward_neighbors(self, node: ProductNode, predicate: str) -> List[ProductNode]:
        """Targets ``(o1, o2) ∈ Gp`` with ``(s1, p, o1)`` and ``(s2, p, o2)`` in ``G``."""
        s1, s2 = node
        if not (is_entity_ref(s1) and is_entity_ref(s2)):
            return []
        objs1 = self._graph.objects(s1, predicate)
        objs2 = self._graph.objects(s2, predicate)
        found = [
            (o1, o2)
            for o1 in objs1
            for o2 in objs2
            if (o1, o2) in self._nodes
        ]
        found.sort(key=repr)
        return found

    def backward_neighbors(self, node: ProductNode, predicate: str) -> List[ProductNode]:
        """Sources ``(s1, s2) ∈ Gp`` with ``(s1, p, o1)`` and ``(s2, p, o2)`` in ``G``."""
        o1, o2 = node
        subs1 = self._graph.subjects(predicate, o1)
        subs2 = self._graph.subjects(predicate, o2)
        found = [
            (s1, s2)
            for s1 in subs1
            for s2 in subs2
            if (s1, s2) in self._nodes
        ]
        found.sort(key=repr)
        return found

    def count_edges(self) -> int:
        """The number of topology edges of ``Gp`` (used by the |Gp| ≈ 2.7·|G| stat)."""
        if self._edge_count is None:
            # a statistic, so count in place: walk each entity-pair node's own
            # out-row (never every predicate of G) and test membership of the
            # target pair, building and sorting no neighbour list
            graph, nodes, counts = self._graph, self._nodes, self._edge_counts
            for node in nodes:
                s1, s2 = node
                if node in counts or not (is_entity_ref(s1) and is_entity_ref(s2)):
                    continue
                count = 0
                for _, predicate, o1 in graph.out_triples(s1):
                    for o2 in graph.objects(s2, predicate):
                        if (o1, o2) in nodes:
                            count += 1
                counts[node] = count
            self._edge_count = sum(counts.values())
        return self._edge_count

    def size(self) -> int:
        """``|Gp|`` measured in edges plus dep edges (mirrors ``|G|`` in triples)."""
        dep_edges = sum(len(deps) for deps in self._dependents.values())
        return self.count_edges() + dep_edges

    def stats(self) -> Dict[str, int]:
        return {
            "nodes": self.num_nodes,
            "candidate_nodes": len(self._candidate_nodes),
            "dep_edges": sum(len(deps) for deps in self._dependents.values()),
            "construction_work": self.construction_work,
        }
