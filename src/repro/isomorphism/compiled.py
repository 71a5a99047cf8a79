"""Compiled VF2 search over :class:`~repro.storage.snapshot.GraphSnapshot`.

When the target of a :class:`~repro.isomorphism.vf2.VF2Matcher` is a snapshot
(and node compatibility is the default), the search runs here in pure integer
space: the pattern graph is compiled once into index arrays, candidate sets
are frozensets of interned target ids intersected via the snapshot's CSR-
derived adjacency, and feasibility never hashes a node object.

The search replays the dict path *exactly*: the same most-constrained-first
node order (ties broken by pattern-node repr), and the same
``sorted(candidates, key=repr)`` branch order via the snapshot's
precomputed :meth:`~repro.storage.snapshot.GraphSnapshot.repr_rank` — so the
two paths yield identical mappings in the identical order with identical
search statistics, which the test suite asserts.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..core.graph import Graph
from ..core.triples import GraphNode, Literal, is_entity_ref
from ..exceptions import UnknownEntityError
from ..storage.snapshot import GraphSnapshot

_EMPTY: FrozenSet[int] = frozenset()


class CompiledPattern:
    """A pattern graph compiled against one target snapshot."""

    __slots__ = (
        "snapshot",
        "nodes",
        "index",
        "is_entity",
        "out_edges",
        "in_edges",
        "adjacent",
        "domains",
        "triples",
    )

    def __init__(self, pattern_graph: Graph, snapshot: GraphSnapshot) -> None:
        self.snapshot = snapshot
        nodes: List[GraphNode] = list(pattern_graph.entity_ids())
        nodes.extend(sorted(pattern_graph.value_nodes(), key=repr))
        self.nodes = nodes
        self.index = {node: position for position, node in enumerate(nodes)}
        self.is_entity = [is_entity_ref(node) for node in nodes]
        self.out_edges: List[List[Tuple[int, int]]] = [[] for _ in nodes]
        self.in_edges: List[List[Tuple[int, int]]] = [[] for _ in nodes]
        self.adjacent: List[List[int]] = [[] for _ in nodes]
        self.triples: List[Tuple[int, int, int]] = []
        for triple in pattern_graph.triples():
            subject = self.index[triple.subject]
            obj = self.index[triple.obj]
            pred = snapshot.pred_id(triple.predicate)
            self.out_edges[subject].append((pred, obj))
            self.in_edges[obj].append((pred, subject))
            self.adjacent[subject].append(obj)
            self.adjacent[obj].append(subject)
            self.triples.append((subject, pred, obj))
        # label-based initial domains, mirroring initial_candidates():
        # entities -> the target's type bucket, literals -> the equal
        # interned value node (or nothing)
        self.domains: List[FrozenSet[int]] = []
        for node in nodes:
            if isinstance(node, Literal):
                mapped = snapshot.id_of(node)
                self.domains.append(frozenset((mapped,)) if mapped is not None else _EMPTY)
            else:
                bucket = snapshot.type_ids(pattern_graph.entity_type(node))
                self.domains.append(frozenset(bucket))


class CompiledVF2:
    """Integer-space twin of the VF2 recursion in :mod:`repro.isomorphism.vf2`."""

    def __init__(
        self,
        pattern: CompiledPattern,
        stats,
        anchors: Optional[Dict[GraphNode, GraphNode]] = None,
    ) -> None:
        self._pattern = pattern
        self._snapshot = pattern.snapshot
        self._stats = stats
        self._anchors = dict(anchors or {})
        self._forward: List[Optional[int]] = [None] * len(pattern.nodes)
        self._used: set = set()

    # ------------------------------------------------------------------ #
    # the search
    # ------------------------------------------------------------------ #

    def iter_mappings(self) -> Iterator[Dict[GraphNode, GraphNode]]:
        pattern = self._pattern
        for pattern_node, target_node in self._anchors.items():
            position = pattern.index.get(pattern_node)
            if position is None:
                # the dict path's compatibility check consults the pattern
                # graph's entity table for entity-ref anchors and raises
                if is_entity_ref(pattern_node):
                    raise UnknownEntityError(pattern_node)
                return
            target_id = self._snapshot.id_of(target_node)
            if target_id is None:
                # mirrored from default_node_compatibility: an unknown
                # entity-ref target raises (target_graph.entity_type), an
                # unknown value or a target for a literal node just fails
                if pattern.is_entity[position] and is_entity_ref(target_node):
                    raise UnknownEntityError(str(target_node))
                return
            if not self._feasible(position, target_id):
                return
            self._forward[position] = target_id
            self._used.add(target_id)
        yield from self._search()

    def _search(self) -> Iterator[Dict[GraphNode, GraphNode]]:
        self._stats.states_visited += 1
        position = self._next_pattern_node()
        if position is None:
            if self._covers_all_triples():
                self._stats.solutions += 1
                yield self._decode_mapping()
            return
        snapshot = self._snapshot
        candidates = sorted(self._guided_candidates(position), key=snapshot.repr_rank)
        for candidate in candidates:
            self._stats.candidates_tried += 1
            if not self._feasible(position, candidate):
                continue
            self._forward[position] = candidate
            self._used.add(candidate)
            yield from self._search()
            self._forward[position] = None
            self._used.discard(candidate)

    # ------------------------------------------------------------------ #
    # candidate generation / ordering (mirrors isomorphism.candidates)
    # ------------------------------------------------------------------ #

    def _guided_candidates(self, position: int) -> FrozenSet[int]:
        pattern = self._pattern
        snapshot = self._snapshot
        forward = self._forward
        candidates: Optional[FrozenSet[int]] = None
        if pattern.is_entity[position]:
            for pred, obj in pattern.out_edges[position]:
                mapped_obj = forward[obj]
                if mapped_obj is None:
                    continue
                found = snapshot.subjects_ids(mapped_obj, pred)
                candidates = found if candidates is None else candidates & found
                if not candidates:
                    return _EMPTY
        for pred, subject in pattern.in_edges[position]:
            mapped_subject = forward[subject]
            if mapped_subject is None:
                continue
            found = snapshot.objects_ids(mapped_subject, pred)
            candidates = found if candidates is None else candidates & found
            if not candidates:
                return _EMPTY
        if candidates is None:
            candidates = pattern.domains[position]
        return candidates

    def _next_pattern_node(self) -> Optional[int]:
        pattern = self._pattern
        forward = self._forward
        unmapped = [p for p in range(len(pattern.nodes)) if forward[p] is None]
        if not unmapped:
            return None
        adjacent = [
            p
            for p in unmapped
            if any(forward[nbr] is not None for nbr in pattern.adjacent[p])
        ]
        pool = adjacent if adjacent else unmapped
        return min(
            pool, key=lambda p: (len(self._guided_candidates(p)), repr(pattern.nodes[p]))
        )

    # ------------------------------------------------------------------ #
    # feasibility (mirrors MatchState.feasible)
    # ------------------------------------------------------------------ #

    def _feasible(self, position: int, target_id: int) -> bool:
        if self._forward[position] is not None or target_id in self._used:
            return False
        # default node compatibility == membership of the label-based domain
        if target_id not in self._pattern.domains[position]:
            return False
        return self._edges_consistent(position, target_id)

    def _edges_consistent(self, position: int, target_id: int) -> bool:
        pattern = self._pattern
        snapshot = self._snapshot
        forward = self._forward
        if pattern.is_entity[position]:
            for pred, obj in pattern.out_edges[position]:
                mapped_obj = forward[obj]
                if mapped_obj is None:
                    continue
                if mapped_obj not in snapshot.objects_ids(target_id, pred):
                    return False
        for pred, subject in pattern.in_edges[position]:
            mapped_subject = forward[subject]
            if mapped_subject is None:
                continue
            if target_id not in snapshot.objects_ids(mapped_subject, pred):
                return False
        return True

    def _covers_all_triples(self) -> bool:
        snapshot = self._snapshot
        forward = self._forward
        for subject, pred, obj in self._pattern.triples:
            mapped_subject = forward[subject]
            mapped_obj = forward[obj]
            if mapped_subject is None or mapped_obj is None:
                return False
            if mapped_obj not in snapshot.objects_ids(mapped_subject, pred):
                return False
        return True

    def _decode_mapping(self) -> Dict[GraphNode, GraphNode]:
        node_at = self._snapshot.node_at
        return {
            pattern_node: node_at(self._forward[position])
            for position, pattern_node in enumerate(self._pattern.nodes)
        }
