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

The topology edges stay implicit in ``G``, but what a run derives from them
is remembered on the product graph, which outlives runs (a session caches it
and rebases it across mutation windows): each node's sorted neighbour lists,
EMOptVC's send order over them, and each node's simulated worker.
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
from ..vertexcentric.cost_model import Placement
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
        """*dependents* is an optional precomputed dependency map (e.g. the
        session cache's); it must equal ``dependency_map(graph, keys,
        candidates)``."""
        self._start(graph, keys, candidates)
        for pair in candidates.pairs:
            self._register_pair(pair, self._pair_nodes(pair))
        self._finish(dependents)

    def _start(self, graph: Graph, keys: KeySet, candidates: CandidateSet) -> None:
        self._graph = graph
        self._keys = keys
        self._candidates = candidates
        self._nodes: Set[ProductNode] = set()
        self._candidate_nodes: List[Pair] = list(candidates.pairs)
        self._pairs_by_entity: Dict[str, Set[Pair]] = defaultdict(set)
        #: per-candidate-pair contributed nodes (the pair itself plus its
        #: pairing-relation nodes); :meth:`rebased` reuses the entries of
        #: pairs a journal delta cannot have affected.
        self._nodes_by_pair: Dict[Pair, Set[ProductNode]] = {}
        #: work units spent building the product graph (charged as setup cost)
        self.construction_work = 0
        self._forget_derived()

    def _finish(self, dependents: Optional[Dict[Pair, Set[Pair]]]) -> None:
        self._dependents: Dict[Pair, Set[Pair]] = (
            dependents
            if dependents is not None
            else dependency_map(self._graph, self._keys, self._candidates)
        )
        self.construction_work += len(self._nodes)

    def _forget_derived(self) -> None:
        #: node -> predicate -> sorted neighbour list.  A forward row is
        #: complete once present (only non-empty lists are kept) and is what
        #: :meth:`count_edges` sums; a backward row fills per predicate.
        #: :meth:`rebased` carries the rows a delta cannot have moved.
        self._forward: Dict[ProductNode, Dict[str, List[ProductNode]]] = {}
        self._backward: Dict[ProductNode, Dict[str, List[ProductNode]]] = {}
        #: (node, predicate, forward) -> the list in EMOptVC's send order.  It
        #: reads the degrees of the *neighbours*, which a delta moves without
        #: touching the node, so it lives for one graph version only.
        self._send_order: Dict[Tuple[ProductNode, str, bool], List[ProductNode]] = {}
        #: simulated worker count -> vertex placement table
        self._placements: Dict[int, Placement] = {}
        #: :meth:`count_edges`, once asked (every run reports it)
        self._edge_count: Optional[int] = None

    # Product graphs travel to process-pool workers inside the vertex program:
    # what is remembered stays behind (a worker recomputes the rows it reads).
    def __getstate__(self) -> Dict[str, object]:
        derived = ("_forward", "_backward", "_send_order", "_placements", "_edge_count")
        return {name: value for name, value in self.__dict__.items() if name not in derived}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._forget_derived()

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
        lets the adjacency rows of untouched nodes carry over.
        """
        twin = object.__new__(ProductGraph)
        twin._start(graph, self._keys if keys is None else keys, candidates)
        for pair in candidates.pairs:
            cached = self._nodes_by_pair.get(pair)
            if cached is not None and not affected_entities.intersection(pair):
                twin._register_pair(pair, cached)
            else:
                twin._register_pair(pair, twin._pair_nodes(pair))
        twin._finish(dependents)
        self._carry_derived(twin, affected_entities)
        return twin

    def _carry_derived(self, twin: "ProductGraph", affected_entities: Set[str]) -> None:
        """Hand *twin* the adjacency rows and placements still exact on it.

        A forward row reads its node's two out-rows and the membership of its
        successor pairs in ``Gp``.  The rows are unchanged when neither
        component was touched; the successors that changed membership are the
        symmetric difference of the two node sets, and a node with untouched
        rows reaches them through in-edges the new graph still holds.  A
        backward row is the mirror image (in-rows, predecessors, out-edges),
        but only for entity pairs: a literal's in-row moves with a value
        triple, and *affected_entities* never names a literal.
        """
        graph, nodes = twin._graph, twin._nodes
        moved: Set[ProductNode] = set()  # a neighbour changed membership
        for n1, n2 in self._nodes ^ nodes:
            for s1, predicate, _ in graph.in_triples(n1):
                moved.update((s1, s2) for s2 in graph.subjects(predicate, n2))
            if is_entity_ref(n1) and is_entity_ref(n2):
                for _, predicate, o1 in graph.out_triples(n1):
                    moved.update((o1, o2) for o2 in graph.objects(n2, predicate))

        def carried(rows: Dict[ProductNode, dict]) -> Dict[ProductNode, dict]:
            return {
                node: row
                for node, row in rows.items()
                if node in nodes and node not in moved
                and is_entity_ref(node[0]) and is_entity_ref(node[1])
                and node[0] not in affected_entities and node[1] not in affected_entities
            }

        twin._forward, twin._backward = carried(self._forward), carried(self._backward)
        for processors, placement in self._placements.items():
            kept = twin._placements[processors] = Placement(processors)
            kept.update((node, worker) for node, worker in placement.items() if node in nodes)

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

    def neighbors(
        self, node: ProductNode, predicate: str, forward: bool = True, prioritized: bool = False
    ) -> List[ProductNode]:
        """The remembered :meth:`forward_neighbors` (or backward) list of
        *node*; the caller must not change it.

        Sorted by ``repr``, or — *prioritized* — in the order of EMOptVC's
        prioritized propagation: identity pairs first, then well-connected
        pairs, ``repr`` breaking ties.  That order is total, so a caller may
        filter the list and keep the order.
        """
        if prioritized:
            key = (node, predicate, forward)
            found = self._send_order.get(key)
            if found is None:
                found = self._send_order[key] = sorted(
                    self.neighbors(node, predicate, forward), key=self._priority_key
                )
            return found
        if forward:
            return self._forward_row(node).get(predicate) or []
        row = self._backward.setdefault(node, {})
        found = row.get(predicate)
        if found is None:
            found = row[predicate] = self._pairs_in_gp(
                self._graph.subjects(predicate, node[0]), self._graph.subjects(predicate, node[1])
            )
        return found

    def forward_neighbors(self, node: ProductNode, predicate: str) -> List[ProductNode]:
        """Targets ``(o1, o2) ∈ Gp`` with ``(s1, p, o1)`` and ``(s2, p, o2)`` in ``G``."""
        return self.neighbors(node, predicate, True)

    def backward_neighbors(self, node: ProductNode, predicate: str) -> List[ProductNode]:
        """Sources ``(s1, s2) ∈ Gp`` with ``(s1, p, o1)`` and ``(s2, p, o2)`` in ``G``."""
        return self.neighbors(node, predicate, False)

    def _pairs_in_gp(self, firsts, seconds) -> List[ProductNode]:
        nodes = self._nodes
        found = [(n1, n2) for n1 in firsts for n2 in seconds if (n1, n2) in nodes]
        if len(found) > 1:
            found.sort(key=repr)
        return found

    def _forward_row(self, node: ProductNode) -> Dict[str, List[ProductNode]]:
        """Every forward list of *node*, computed on first use by walking its
        own out-row (never every predicate of ``G``)."""
        row = self._forward.get(node)
        if row is None:
            s1, s2 = node
            row = {}
            if is_entity_ref(s1) and is_entity_ref(s2):
                objects = self._graph.objects
                for predicate in dict.fromkeys(p for _, p, _ in self._graph.out_triples(s1)):
                    found = self._pairs_in_gp(objects(s1, predicate), objects(s2, predicate))
                    if found:
                        row[predicate] = found
                self._forward[node] = row
        return row

    def _priority_key(self, target: ProductNode) -> Tuple[int, int, str]:
        t1, t2 = target
        degree = self._graph.degree(t1) + self._graph.degree(t2)
        return (0 if t1 == t2 else 1, -degree, repr(target))

    def placement(self, processors: int) -> Placement:
        """The vertex → simulated worker table of a *processors*-worker engine."""
        return self._placements.setdefault(processors, Placement(processors))

    def count_edges(self) -> int:
        """The number of topology edges of ``Gp`` (used by the |Gp| ≈ 2.7·|G| stat)."""
        if self._edge_count is None:
            rows = map(self._forward_row, self._nodes)
            self._edge_count = sum(len(found) for row in rows for found in row.values())
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
