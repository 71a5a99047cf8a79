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
and rebases it across mutation windows, its entity indexes edited by
:func:`~repro.matching.pair_table.edited_sets`): each node's sorted neighbour
lists, EMOptVC's send order over them, and each node's simulated worker.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..core.equivalence import Pair
from ..core.graph import Graph
from ..core.key import KeySet
from ..core.pairing import pairing_relation
from ..core.triples import GraphNode, is_entity_ref
from ..vertexcentric.cost_model import Placement
from .candidates import CandidateSet, dependency_map
from .pair_table import edited_sets, ends

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
        """``Gp`` over *candidates*: the empty product graph :meth:`rebased`
        onto them, where every candidate pair arrives.  *dependents* is an
        optional precomputed dependency map (e.g. the session cache's); it
        must equal ``dependency_map(keys, candidates)``."""
        vars(self).update(vars(_EMPTY.rebased(graph, keys, candidates, set(), set(), dependents)))

    def _forget_derived(self) -> None:
        #: node -> predicate -> sorted neighbour list.  A forward row is
        #: complete once present (only non-empty lists are kept) and is what
        #: :meth:`count_edges` sums; a backward row fills per predicate.
        #: :meth:`rebased` carries the rows a delta cannot have moved.
        self._forward: Dict[ProductNode, Dict[str, List[ProductNode]]] = {}
        self._backward: Dict[ProductNode, Dict[str, List[ProductNode]]] = {}
        #: the nodes with a backward row that are not entity pairs
        self._value_rows: Set[ProductNode] = set()
        #: (node, predicate, forward) -> the list in EMOptVC's send order.  It
        #: reads the degrees of the *neighbours*, which a delta moves without
        #: touching the node, so it lives for one graph version only.
        self._send_order: Dict[Tuple[ProductNode, str, bool], List[ProductNode]] = {}
        #: simulated worker count -> vertex placement table
        self._placements: Dict[int, Placement] = {}
        #: :meth:`count_edges`, once asked (every run reports it)
        self._edge_count: Optional[int] = None

    # Product graphs travel to process-pool workers inside the vertex program:
    # what is remembered stays behind (a worker recomputes the rows it reads),
    # and so do the contribution counts and the entity index, which only a
    # rebase reads (a worker's copy is never rebased).
    def __getstate__(self) -> Dict[str, object]:
        derived = (
            "_forward", "_backward", "_value_rows", "_send_order", "_placements",
            "_edge_count", "_refs", "_entity_nodes",
        )
        return {name: value for name, value in self.__dict__.items() if name not in derived}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._forget_derived()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def _pair_nodes(self, pair: Pair) -> Set[ProductNode]:
        """The product nodes contributed by one candidate pair (Prop. 9):
        the ones the candidates' apply just derived, if it paired the pair
        over the same (unreduced) neighbourhoods, else computed here."""
        e1, e2 = pair
        neighborhoods = self._candidates.neighborhoods
        nbhd1 = neighborhoods.nodes(e1)
        keys = self._keys.keys_for_type(self._graph.entity_type(e1))
        self.construction_work += sum(key.size for key in keys) * max(1, len(nbhd1))
        repaired = self._candidates.repaired
        if repaired is not None and pair in repaired:
            return repaired[pair]
        nbhd2 = neighborhoods.nodes(e2)
        contributed: Set[ProductNode] = {pair}
        for key in keys:
            relation = pairing_relation(self._graph, key, e1, e2, nbhd1, nbhd2)
            if relation is not None:
                for pairs in relation.values():
                    contributed.update(pairs)
        return contributed

    def _register_pair(self, pair: Pair, contributed: Set[ProductNode]) -> None:
        self._nodes_by_pair[pair] = contributed
        self._nodes |= contributed

    def rebased(
        self,
        graph: Graph,
        keys: KeySet,
        candidates: CandidateSet,
        affected_entities: Set[str],
        rows: Set[str],
        dependents: Optional[Dict[Pair, Set[Pair]]] = None,
    ) -> "ProductGraph":
        """This product graph carried over *graph*, the pairing-filtered
        *candidates* of the next version, after a journal delta: the one
        construction rule of ``Gp`` (a new one is this rule applied to the
        empty graph).

        Pairing relations are recomputed only for candidate pairs with an
        entity in *affected_entities* (all of them, onto the empty graph,
        which carries none); every other pair's contributed nodes
        are carried over unchanged — sound because a pairing relation only
        reads the key triples within key radius of the pair, and a pair
        joins or leaves the candidates only through an affected entity (the
        session passes the window's key ball).  The carrying is by
        difference: the node set and the contribution counts start as
        C-level copies, the old pairs of the affected entities are withdrawn
        (a node goes when its count reaches zero) and the new ones
        registered, and the per-entity pair and node indexes are edited by
        the same difference
        (:func:`~repro.matching.pair_table.edited_sets`), so the
        Python-level work is the window's pairs.  The
        ``dep`` edges are the given (or recomputed) map over the new
        candidates.  Affected pairs relate under *keys*, so a key-set change
        (a session ``rekeyed`` delta) is applied with the changed types'
        entities affected.  *rows* must hold every entity the delta touched
        (the session passes the window's full ball; a mutated triple touches
        its subject): an adjacency row lists every predicate of its node's
        out-row, key or not, so the rows of the product nodes holding a
        touched entity are recomputed.
        """
        twin = object.__new__(ProductGraph)
        twin._graph = graph
        twin._keys = keys
        twin._candidates = candidates
        #: work units spent building the product graph (charged as setup cost)
        twin.construction_work = 0
        twin._forget_derived()
        nodes = twin._nodes = set(self._nodes)
        #: per-candidate-pair contributed nodes (the pair itself plus its
        #: pairing-relation nodes), carried for the pairs a delta cannot
        #: have affected
        nodes_by_pair = twin._nodes_by_pair = dict(self._nodes_by_pair)
        #: node -> how many candidate pairs contribute it
        refs = twin._refs = dict(self._refs)
        withdrawn = {
            pair for entity in affected_entities for pair in self._pairs_by_entity.get(entity, ())
        }
        # an empty graph carries no pair: every candidate pair arrives
        if self._nodes_by_pair:
            arriving = candidates.pairs_touching(affected_entities)
        else:
            arriving = candidates.pairs
        counted: Set[ProductNode] = set()  # nodes whose count moved
        for pair in withdrawn:
            for node in nodes_by_pair.pop(pair):
                refs[node] -= 1
                counted.add(node)
        for pair in sorted(arriving):
            contributed = twin._pair_nodes(pair)
            twin._register_pair(pair, contributed)
            for node in contributed:
                refs[node] = refs.get(node, 0) + 1
            counted |= contributed
        #: entity -> the candidate pairs holding it (the ``tc`` index)
        twin._pairs_by_entity = edited_sets(self._pairs_by_entity, ends(withdrawn), ends(arriving))
        flipped: Set[ProductNode] = set()  # nodes that joined or left Gp
        for node in counted:
            if not refs[node]:
                del refs[node]
                nodes.discard(node)
            if (node in nodes) != (node in self._nodes):
                flipped.add(node)
        #: entity -> the entity-pair nodes holding it
        moved = [node for node in flipped if is_entity_ref(node[0]) and is_entity_ref(node[1])]
        twin._entity_nodes = edited_sets(
            self._entity_nodes,
            ends(node for node in moved if node not in nodes),
            ends(node for node in moved if node in nodes),
        )
        twin._dependents = (
            dependents if dependents is not None else dependency_map(keys, candidates)
        )
        twin.construction_work += len(nodes)
        self._carry_derived(twin, rows, flipped)
        return twin

    def _carry_derived(
        self, twin: "ProductGraph", rows: Set[str], flipped: Set[ProductNode]
    ) -> None:
        """Hand *twin* the adjacency rows and placements still exact on it.

        A forward row reads its node's two out-rows and the membership of its
        successor pairs in ``Gp``.  The rows are unchanged when neither
        component was touched; the successors that changed membership are
        the *flipped* nodes (the symmetric difference of the two node sets),
        and a node with untouched rows reaches them through in-edges the new
        graph still holds.  A backward row is the mirror image (in-rows,
        predecessors, out-edges), but only for entity pairs: a literal's
        in-row moves with a value triple, and *rows* never names a literal,
        so the other backward rows all go.  Rows are copied
        and the stale ones deleted (a graph that holds none has none to
        judge); when this graph's edges were counted, the twin's count is
        kept current by subtracting the deleted forward rows and adding the
        recomputed ones.
        """
        graph, nodes = twin._graph, twin._nodes
        stale = set(flipped)
        if self._forward or self._backward:
            for n1, n2 in flipped:  # a neighbour changed membership
                for s1, predicate, _ in graph.in_triples(n1):
                    stale.update((s1, s2) for s2 in graph.subjects(predicate, n2))
                if is_entity_ref(n1) and is_entity_ref(n2):
                    for _, predicate, o1 in graph.out_triples(n1):
                        stale.update((o1, o2) for o2 in graph.objects(n2, predicate))
            for entity in rows:
                stale.update(self._entity_nodes.get(entity, ()))
        forward, backward = dict(self._forward), dict(self._backward)
        dropped = 0
        for node in stale:
            row = forward.pop(node, None)
            if row is not None:
                dropped += sum(map(len, row.values()))
            backward.pop(node, None)
        for node in self._value_rows:
            backward.pop(node, None)
        twin._forward, twin._backward = forward, backward
        if self._edge_count is not None:
            # every entity-pair node of a counted graph holds its forward row
            recounted = sum(
                len(found)
                for node in stale
                if node in nodes
                for found in twin._forward_row(node).values()
            )
            twin._edge_count = self._edge_count - dropped + recounted
        for processors, placement in self._placements.items():
            kept = twin._placements[processors] = Placement(processors)
            kept.update(placement)
            for node in flipped:
                if node not in nodes:
                    kept.pop(node, None)

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
        return list(self._candidates.pairs)

    def node_set(self) -> Set[ProductNode]:
        """The node set itself (read-only for the caller): what a vertex
        engine hosts, tested with ``in`` and iterated in node order."""
        return self._nodes

    def is_candidate(self, node: ProductNode) -> bool:
        """Whether *node* is one of the candidate pairs."""
        return node in self._nodes_by_pair

    def dependents_of(self, pair: Pair) -> Set[Pair]:
        """Candidate pairs that depend on *pair* (``dep`` edges out of it)."""
        return self._dependents.get(pair, set())

    def candidate_pairs_touching(self, entity: str) -> FrozenSet[Pair]:
        """Candidate pairs having *entity* as a component (``tc`` edge index)."""
        return self._pairs_by_entity.get(entity, frozenset())

    # ------------------------------------------------------------------ #
    # adjacency (computed from G on demand; Gp edges are implicit)
    # ------------------------------------------------------------------ #

    def neighbors(
        self, node: ProductNode, predicate: str, forward: bool = True, prioritized: bool = False
    ) -> List[ProductNode]:
        """The remembered forward list of *node* — the targets ``(o1, o2) ∈
        Gp`` with ``(s1, p, o1)`` and ``(s2, p, o2)`` in ``G`` — or, not
        *forward*, the backward list of sources; the caller must not change
        it.

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
        row = self._backward.get(node)
        if row is None:
            row = self._backward[node] = {}
            if not (is_entity_ref(node[0]) and is_entity_ref(node[1])):
                self._value_rows.add(node)
        found = row.get(predicate)
        if found is None:
            found = row[predicate] = self._pairs_in_gp(
                self._graph.subjects(predicate, node[0]), self._graph.subjects(predicate, node[1])
            )
        return found

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
            "candidate_nodes": len(self._candidates.pairs),
            "dep_edges": sum(len(deps) for deps in self._dependents.values()),
            "construction_work": self.construction_work,
        }


#: the product graph over no pair, which every new one is rebased from
_EMPTY = object.__new__(ProductGraph)
_EMPTY.__setstate__({"_nodes": set(), "_nodes_by_pair": {}, "_pairs_by_entity": {}})
_EMPTY._refs, _EMPTY._entity_nodes = {}, {}
