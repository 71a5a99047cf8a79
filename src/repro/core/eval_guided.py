"""Guided, early-terminating per-pair check (procedure ``EvalMR``, Section 4.1).

Checking whether a pair ``(e1, e2)`` is identified by a key ``Q(x)`` naively
requires enumerating all matches of ``Q(x)`` at ``e1`` and at ``e2`` and then
testing coincidence — two exponential-cost subgraph-isomorphism enumerations.
``EvalMR`` instead instantiates the pattern nodes with *pairs* ``(s1, s2)``
drawn from the two d-neighbourhoods simultaneously, enforcing the coincidence
conditions on the fly, and stops as soon as one full instantiation is found.

The vector ``m`` of the paper maps each pattern node to a pair (or ⊥); the
feasibility conditions are:

* **Injective** — neither component of the candidate pair appears in ``m``
  on its side already.
* **Equality** — entity variables ``y`` require ``(s1, s2) ∈ Eq``; value
  variables require ``s1 = s2`` (values); wildcards require two entities of
  the node's type; constants require ``s1 = s2 = d``.
* **Guided expansion** — for every pattern triple incident to the node whose
  other endpoint is instantiated, the corresponding edges must exist in both
  neighbourhoods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .equivalence import EquivalenceRelation
from .graph import Graph
from .key import Key
from .pattern import GraphPattern, NodeKind, PatternNode
from .triples import GraphNode, Literal, is_entity_ref

#: The instantiation vector maps pattern-node names to pairs of graph nodes.
PairAssignment = Dict[str, Tuple[GraphNode, GraphNode]]


@dataclass
class EvalStatistics:
    """Work counters reported by the guided evaluation.

    These counters are consumed by the simulated-cluster cost models and by
    the optimization-effectiveness reports (Exp-1 of the paper).
    """

    calls: int = 0
    feasibility_checks: int = 0
    expansions: int = 0
    backtracks: int = 0
    successes: int = 0

    def merge(self, other: "EvalStatistics") -> None:
        self.calls += other.calls
        self.feasibility_checks += other.feasibility_checks
        self.expansions += other.expansions
        self.backtracks += other.backtracks
        self.successes += other.successes

    @property
    def work(self) -> int:
        """A single scalar work measure (used by the cost models)."""
        return self.feasibility_checks + self.expansions + self.calls


class GuidedPairEvaluator:
    """Evaluates ``(G^d_1 ∪ G^d_2, Eq, Σ) |= (e1, e2)`` key by key.

    One evaluator is typically shared by a whole algorithm run so that its
    :class:`EvalStatistics` accumulate the total guided-search work.
    """

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self.stats = EvalStatistics()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def identify(
        self,
        key: Key,
        e1: str,
        e2: str,
        eq: EquivalenceRelation,
        neighborhood1: Optional[Set[GraphNode]] = None,
        neighborhood2: Optional[Set[GraphNode]] = None,
    ) -> bool:
        """True when the single key identifies ``(e1, e2)`` under ``Eq``.

        ``neighborhood1`` / ``neighborhood2`` restrict the nodes considered on
        each side (the d-neighbourhoods ``G^d_1`` and ``G^d_2``); ``None``
        means the whole graph.
        """
        return (
            self.identify_with_witness(key, e1, e2, eq, neighborhood1, neighborhood2)
            is not None
        )

    def identify_with_witness(
        self,
        key: Key,
        e1: str,
        e2: str,
        eq: EquivalenceRelation,
        neighborhood1: Optional[Set[GraphNode]] = None,
        neighborhood2: Optional[Set[GraphNode]] = None,
    ) -> Optional[PairAssignment]:
        """Like :meth:`identify` but return the witnessing instantiation ``m``.

        The returned mapping sends every pattern-node name to the pair of
        graph nodes it was instantiated with; ``None`` when the key does not
        identify the pair.  The witness is what proof graphs record.
        """
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

    def identify_with_any(
        self,
        keys: List[Key],
        e1: str,
        e2: str,
        eq: EquivalenceRelation,
        neighborhood1: Optional[Set[GraphNode]] = None,
        neighborhood2: Optional[Set[GraphNode]] = None,
    ) -> Optional[Key]:
        """Return the first key of *keys* identifying ``(e1, e2)``, else None."""
        for key in keys:
            if self.identify(key, e1, e2, eq, neighborhood1, neighborhood2):
                return key
        return None

    # ------------------------------------------------------------------ #
    # search internals
    # ------------------------------------------------------------------ #

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
