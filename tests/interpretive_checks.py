"""The per-pair checks and the pattern walkers as they were before the
compiled pattern.

``core/eval_guided.py`` and ``core/matching.py`` used to interpret the
pattern on every step: look the node's incident triples up by name, test
which other ends are "already in the assignment", copy the graph rows into
fresh sets, and (the guided check) re-test on each candidate the very triples
the candidate set was intersected from.  This is that code, moved here
verbatim as the oracle for ``tests/core/test_compiled_checks.py``, with the
one thing it got wrong added: a pattern triple whose two ends are the same
node fell through both branches below and was never checked
(:func:`_loops_hold`, applied where the plan applies it — to the designated
entity before the search, to each side's candidates before they are paired).

The second half is the pattern walkers that each derived their own order
before ``GraphPattern.__init__`` compiled them all: the tour DFS of
``matching/traversal_order.py``, the BFS of ``compile_blocking_scheme``, the
pairing seed's anchor triples and the radius BFS — moved here verbatim as the
oracle for ``tests/core/test_compiled_pattern.py``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.equivalence import EquivalenceRelation
from repro.core.eval_guided import EvalStatistics, PairAssignment
from repro.core.graph import Graph
from repro.core.key import Key
from repro.core.pattern import (
    GraphPattern,
    NodeKind,
    PatternNode,
    PatternTriple,
    SignaturePath,
    SignatureStep,
)
from repro.core.triples import GraphNode, Literal, is_entity_ref
from repro.exceptions import UnknownEntityError
from repro.matching.blocking import KeyBlockingScheme

Valuation = Dict[str, GraphNode]


def _loops_hold(graph: Graph, pattern: GraphPattern, node: PatternNode, image: GraphNode) -> bool:
    """Does *image* carry every self-loop ``(node, p, node)`` of the pattern?"""
    return all(
        graph.has_triple(image, triple.predicate, image)
        for triple in pattern.adjacent_triples(node.name)
        if triple.subject.name == triple.obj.name
    )


class InterpretiveGuidedEvaluator:
    """``GuidedPairEvaluator`` as it was before the plan: by-name vector,
    candidates re-derived from ``adjacent_triples`` on every step, guided
    expansion re-checked on every candidate (``_expansion_ok``)."""

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self.stats = EvalStatistics()
        #: candidates ``_expansion_ok`` turned away: it re-checks the triples
        #: the candidate sets were intersected from, so this stays 0
        self.expansion_rejections = 0

    def identify_with_witness(
        self,
        key: Key,
        e1: str,
        e2: str,
        eq: EquivalenceRelation,
        neighborhood1: Optional[Set[GraphNode]] = None,
        neighborhood2: Optional[Set[GraphNode]] = None,
    ) -> Optional[PairAssignment]:
        """The witnessing instantiation ``m``, or ``None``."""
        self.stats.calls += 1
        graph = self._graph
        pattern = key.pattern
        designated = pattern.designated
        if not graph.has_entity(e1) or not graph.has_entity(e2):
            return None
        if graph.entity_type(e1) != designated.etype:
            return None
        if graph.entity_type(e2) != designated.etype:
            return None
        if not _loops_hold(graph, pattern, designated, e1):
            return None
        if not _loops_hold(graph, pattern, designated, e2):
            return None

        assignment: PairAssignment = {designated.name: (e1, e2)}
        used1: Set[GraphNode] = {e1}
        used2: Set[GraphNode] = {e2}
        order = pattern.instantiation_order
        found = self._extend(
            pattern, order, 1, assignment, used1, used2, eq, neighborhood1, neighborhood2
        )
        if not found:
            return None
        self.stats.successes += 1
        return dict(assignment)

    def _extend(
        self,
        pattern: GraphPattern,
        order: Sequence[PatternNode],
        position: int,
        assignment: PairAssignment,
        used1: Set[GraphNode],
        used2: Set[GraphNode],
        eq: EquivalenceRelation,
        neighborhood1: Optional[Set[GraphNode]],
        neighborhood2: Optional[Set[GraphNode]],
    ) -> bool:
        if position == len(order):
            return True
        node = order[position]
        for n1, n2 in self._candidate_pairs(
            pattern, node, assignment, neighborhood1, neighborhood2
        ):
            self.stats.feasibility_checks += 1
            if n1 in used1 or n2 in used2:
                continue
            if not self._equality_ok(node, n1, n2, eq):
                continue
            if not self._expansion_ok(pattern, node, n1, n2, assignment):
                self.expansion_rejections += 1
                continue
            assignment[node.name] = (n1, n2)
            used1.add(n1)
            used2.add(n2)
            self.stats.expansions += 1
            if self._extend(
                pattern,
                order,
                position + 1,
                assignment,
                used1,
                used2,
                eq,
                neighborhood1,
                neighborhood2,
            ):
                return True
            del assignment[node.name]
            used1.discard(n1)
            used2.discard(n2)
            self.stats.backtracks += 1
        return False

    def _candidate_pairs(
        self,
        pattern: GraphPattern,
        node: PatternNode,
        assignment: PairAssignment,
        neighborhood1: Optional[Set[GraphNode]],
        neighborhood2: Optional[Set[GraphNode]],
    ) -> List[Tuple[GraphNode, GraphNode]]:
        """Candidate pairs for *node*, guided by instantiated neighbours."""
        graph = self._graph
        candidates1: Optional[Set[GraphNode]] = None
        candidates2: Optional[Set[GraphNode]] = None
        for triple in pattern.adjacent_triples(node.name):
            if triple.subject.name == node.name and triple.obj.name in assignment:
                o1, o2 = assignment[triple.obj.name]
                found1: Set[GraphNode] = set(graph.subjects(triple.predicate, o1))
                found2: Set[GraphNode] = set(graph.subjects(triple.predicate, o2))
            elif triple.obj.name == node.name and triple.subject.name in assignment:
                s1, s2 = assignment[triple.subject.name]
                if not (is_entity_ref(s1) and is_entity_ref(s2)):
                    return []
                found1 = set(graph.objects(s1, triple.predicate))
                found2 = set(graph.objects(s2, triple.predicate))
            else:
                continue
            candidates1 = found1 if candidates1 is None else candidates1 & found1
            candidates2 = found2 if candidates2 is None else candidates2 & found2
            if not candidates1 or not candidates2:
                return []
        if candidates1 is None or candidates2 is None:
            # No instantiated neighbour yet; since the order is connected this
            # only happens for the designated node, which is pre-assigned.
            return []
        if neighborhood1 is not None:
            candidates1 &= neighborhood1
        if neighborhood2 is not None:
            candidates2 &= neighborhood2
        candidates1 = {n for n in candidates1 if _loops_hold(graph, pattern, node, n)}
        candidates2 = {n for n in candidates2 if _loops_hold(graph, pattern, node, n)}
        pairs = [(n1, n2) for n1 in candidates1 for n2 in candidates2]
        pairs.sort(key=repr)
        return pairs

    def _equality_ok(
        self,
        node: PatternNode,
        n1: GraphNode,
        n2: GraphNode,
        eq: EquivalenceRelation,
    ) -> bool:
        """The 'Equality' feasibility condition of ``EvalMR``."""
        graph = self._graph
        if node.kind is NodeKind.CONSTANT:
            return (
                isinstance(n1, Literal)
                and isinstance(n2, Literal)
                and n1.value == node.value
                and n2.value == node.value
            )
        if node.kind is NodeKind.VALUE_VAR:
            return isinstance(n1, Literal) and isinstance(n2, Literal) and n1 == n2
        # entity kinds
        if not (is_entity_ref(n1) and is_entity_ref(n2)):
            return False
        if not (graph.has_entity(n1) and graph.has_entity(n2)):
            return False
        if graph.entity_type(n1) != node.etype or graph.entity_type(n2) != node.etype:
            return False
        if node.kind is NodeKind.ENTITY_VAR:
            return eq.identified(n1, n2)
        # WILDCARD (and DESIGNATED, which is never re-instantiated)
        return True

    def _expansion_ok(
        self,
        pattern: GraphPattern,
        node: PatternNode,
        n1: GraphNode,
        n2: GraphNode,
        assignment: PairAssignment,
    ) -> bool:
        """The 'Guided expansion' feasibility condition of ``EvalMR``."""
        graph = self._graph
        for triple in pattern.adjacent_triples(node.name):
            if triple.subject.name == node.name and triple.obj.name in assignment:
                o1, o2 = assignment[triple.obj.name]
                if not (
                    is_entity_ref(n1)
                    and is_entity_ref(n2)
                    and graph.has_triple(n1, triple.predicate, o1)
                    and graph.has_triple(n2, triple.predicate, o2)
                ):
                    return False
            elif triple.obj.name == node.name and triple.subject.name in assignment:
                s1, s2 = assignment[triple.subject.name]
                if not (
                    is_entity_ref(s1)
                    and is_entity_ref(s2)
                    and graph.has_triple(s1, triple.predicate, n1)
                    and graph.has_triple(s2, triple.predicate, n2)
                ):
                    return False
        return True


def _node_admissible(
    graph: Graph,
    node: PatternNode,
    candidate: GraphNode,
) -> bool:
    """Can *candidate* be the image of pattern node *node* (ignoring identity)?

    This checks the typing discipline of valuations (Section 2.1): entity-kind
    nodes map to entities of the node's type, value variables map to values,
    constants map to the exact value.
    """
    if node.kind is NodeKind.CONSTANT:
        return isinstance(candidate, Literal) and candidate.value == node.value
    if node.kind is NodeKind.VALUE_VAR:
        return isinstance(candidate, Literal)
    # entity kinds
    if not is_entity_ref(candidate) or not graph.has_entity(candidate):
        return False
    return graph.entity_type(candidate) == node.etype


def _candidate_images(
    graph: Graph,
    pattern: GraphPattern,
    node: PatternNode,
    valuation: Valuation,
    restrict: Optional[Set[GraphNode]],
) -> Set[GraphNode]:
    """Graph nodes that could extend *valuation* at *node*.

    Candidates are generated from the pattern triples connecting *node* to
    already-instantiated nodes (guided expansion); when no such triple exists
    the node is unconstrained so far and all admissible graph nodes are
    candidates (this only happens transiently because patterns are connected
    and the search instantiates nodes in a connected order).
    """
    candidates: Optional[Set[GraphNode]] = None
    for triple in pattern.adjacent_triples(node.name):
        if triple.subject.name == node.name and triple.obj.name in valuation:
            other = valuation[triple.obj.name]
            found: Set[GraphNode] = set(graph.subjects(triple.predicate, other))
        elif triple.obj.name == node.name and triple.subject.name in valuation:
            other = valuation[triple.subject.name]
            if not is_entity_ref(other):
                return set()
            found = set(graph.objects(other, triple.predicate))
        else:
            continue
        candidates = found if candidates is None else (candidates & found)
        if not candidates:
            return set()
    if candidates is None:
        # unconstrained: fall back to all nodes of the right kind
        if node.kind in (NodeKind.VALUE_VAR, NodeKind.CONSTANT):
            candidates = set(graph.value_nodes())
        else:
            candidates = set(graph.entities_of_type(node.etype or ""))
    if restrict is not None:
        candidates = candidates & restrict
    return {
        c
        for c in candidates
        if _node_admissible(graph, node, c) and _loops_hold(graph, pattern, node, c)
    }


def _search_order(pattern: GraphPattern) -> List[PatternNode]:
    """A connected instantiation order starting from the designated variable."""
    order = [pattern.designated]
    placed = {pattern.designated.name}
    remaining = {n.name: n for n in pattern.nodes() if n.name not in placed}
    while remaining:
        progressed = False
        for name, node in sorted(remaining.items()):
            for triple in pattern.adjacent_triples(name):
                other = (
                    triple.obj.name if triple.subject.name == name else triple.subject.name
                )
                if other in placed:
                    order.append(node)
                    placed.add(name)
                    del remaining[name]
                    progressed = True
                    break
            if progressed:
                break
        if not progressed:  # pragma: no cover - patterns are validated connected
            order.extend(remaining.values())
            break
    return order


def interpretive_find_matches(
    graph: Graph,
    pattern: GraphPattern,
    at_entity: str,
    restrict: Optional[Set[GraphNode]] = None,
    limit: Optional[int] = None,
    work_counter: Optional[Dict[str, int]] = None,
) -> List[Valuation]:
    """``find_matches`` as it was before the plan."""
    if not graph.has_entity(at_entity):
        raise UnknownEntityError(at_entity)
    designated = pattern.designated
    if graph.entity_type(at_entity) != designated.etype:
        return []
    if restrict is not None and at_entity not in restrict:
        return []
    if not _loops_hold(graph, pattern, designated, at_entity):
        return []

    order = _search_order(pattern)
    matches: List[Valuation] = []
    valuation: Valuation = {designated.name: at_entity}
    used: Set[GraphNode] = {at_entity}

    def count(field: str, amount: int = 1) -> None:
        if work_counter is not None:
            work_counter[field] = work_counter.get(field, 0) + amount

    def backtrack(position: int) -> bool:
        """Return True when the enumeration should stop (limit reached)."""
        if position == len(order):
            matches.append(dict(valuation))
            count("matches")
            return limit is not None and len(matches) >= limit
        node = order[position]
        for candidate in sorted(
            _candidate_images(graph, pattern, node, valuation, restrict), key=repr
        ):
            count("candidates")
            if candidate in used:
                continue
            valuation[node.name] = candidate
            used.add(candidate)
            stop = backtrack(position + 1)
            del valuation[node.name]
            used.discard(candidate)
            if stop:
                return True
        return False

    backtrack(1)
    return matches


# --------------------------------------------------------------------------- #
# the pattern walkers, each deriving its own order
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class TraversalStep:
    """One step of a tour.

    ``forward`` is True when the cursor moves from the triple's subject to its
    object, False when it moves from the object back to the subject.
    """

    triple: PatternTriple
    forward: bool

    @property
    def source_name(self) -> str:
        """The pattern node the cursor is at before the step."""
        return self.triple.subject.name if self.forward else self.triple.obj.name

    @property
    def target_name(self) -> str:
        """The pattern node the cursor is at after the step."""
        return self.triple.obj.name if self.forward else self.triple.subject.name


def traversal_order(pattern: GraphPattern) -> List[TraversalStep]:
    """A tour of *pattern* starting and ending at ``x``, covering all triples.

    The tour is a DFS double-traversal: each pattern triple contributes one
    step away from ``x``'s DFS tree position and one step back, so the length
    is ``2·|Q|`` and the final cursor position is ``x`` again.
    """
    steps: List[TraversalStep] = []
    visited: Set[str] = set()
    covered: Set[Tuple[str, str, str]] = set()

    def edge_key(triple: PatternTriple) -> Tuple[str, str, str]:
        return (triple.subject.name, triple.predicate, triple.obj.name)

    def dfs(node_name: str) -> None:
        visited.add(node_name)
        adjacent = sorted(
            pattern.adjacent_triples(node_name),
            key=lambda t: (t.predicate, t.subject.name, t.obj.name),
        )
        for triple in adjacent:
            key = edge_key(triple)
            if key in covered:
                continue
            covered.add(key)
            forward = triple.subject.name == node_name
            other = triple.obj.name if forward else triple.subject.name
            steps.append(TraversalStep(triple, forward))
            if other not in visited:
                dfs(other)
            steps.append(TraversalStep(triple, not forward))

    dfs(pattern.designated.name)
    return steps


def compile_blocking_scheme(key: Key) -> KeyBlockingScheme:
    """Compile the blocking scheme of *key* (see the module docstring)."""
    pattern = key.pattern
    value_nodes = sorted(
        (node for node in pattern.nodes() if node.is_value), key=lambda n: n.name
    )
    if not value_nodes:
        return KeyBlockingScheme(
            key_name=key.name,
            target_type=key.target_type,
            paths=(),
            certified=False,
            reason="pattern has no value variable or constant node",
        )

    # undirected pattern-node adjacency with sorted neighbours, so the BFS
    # tree (and hence the compiled steps) is independent of triple order
    adjacency: Dict[str, Set[str]] = {}
    for triple in pattern.triples:
        adjacency.setdefault(triple.subject.name, set()).add(triple.obj.name)
        adjacency.setdefault(triple.obj.name, set()).add(triple.subject.name)
    parent: Dict[str, str] = {}
    root = pattern.designated.name
    seen = {root}
    queue: deque[str] = deque([root])
    while queue:
        current = queue.popleft()
        for neighbour in sorted(adjacency.get(current, ())):
            if neighbour not in seen:
                seen.add(neighbour)
                parent[neighbour] = current
                queue.append(neighbour)

    paths: List[SignaturePath] = []
    for node in value_nodes:
        names = [node.name]
        while names[-1] != root:
            names.append(parent[names[-1]])
        names.reverse()  # x = n0, ..., nk = value node
        steps: List[SignatureStep] = []
        for a, b in zip(names, names[1:]):
            forward = sorted(
                t.predicate
                for t in pattern.triples
                if t.subject.name == a and t.obj.name == b
            )
            endpoint = pattern.node(b)
            if forward:
                steps.append(SignatureStep(forward[0], True, endpoint.etype))
            else:
                backward = sorted(
                    t.predicate
                    for t in pattern.triples
                    if t.subject.name == b and t.obj.name == a
                )
                steps.append(SignatureStep(backward[0], False, endpoint.etype))
        constant = Literal(node.value) if node.is_constant else None
        paths.append(SignaturePath(node.name, tuple(steps), constant))
    return KeyBlockingScheme(
        key_name=key.name,
        target_type=key.target_type,
        paths=tuple(paths),
        certified=True,
    )


def anchor_triples(pattern: GraphPattern) -> Dict[str, PatternTriple]:
    """``GraphPattern._anchors``: per node but ``x``, the first incident
    triple tying it to an earlier node of the instantiation order."""
    placed: Set[str] = set()
    anchors: Dict[str, PatternTriple] = {}
    for node in pattern.instantiation_order:
        if placed:  # never a self-loop: its other end is the node itself
            anchors[node.name] = next(
                t
                for t in pattern.adjacent_triples(node.name)
                if (t.subject.name if t.obj.name == node.name else t.obj.name) in placed
            )
        placed.add(node.name)
    return anchors


def radius(pattern: GraphPattern) -> int:
    """``GraphPattern.radius``: the longest BFS distance from ``x``, over
    the undirected adjacency ``_build_adjacency`` kept."""
    adjacency: Dict[str, Set[str]] = {}
    for triple in pattern.triples:
        adjacency.setdefault(triple.subject.name, set()).add(triple.obj.name)
        adjacency.setdefault(triple.obj.name, set()).add(triple.subject.name)
    distances = {pattern.designated.name: 0}
    queue: deque[str] = deque([pattern.designated.name])
    while queue:
        current = queue.popleft()
        for nbr in adjacency.get(current, ()):
            if nbr not in distances:
                distances[nbr] = distances[current] + 1
                queue.append(nbr)
    return max(distances.values()) if distances else 0
