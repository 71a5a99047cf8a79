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
  neighbourhoods; a self-loop ``(n, p, n)`` must exist on both images.

The search walks :attr:`GraphPattern.guided_plan
<repro.core.pattern.GraphPattern.guided_plan>`, compiled once per key: slot
lists in place of a by-name vector, and guided expansion enforced by how the
candidates are generated rather than re-checked on each of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .equivalence import EquivalenceRelation
from .graph import Graph
from .key import Key
from .pattern import NodeKind, PlanStep
from .triples import GraphNode, Literal

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
        stats = self.stats
        stats.calls += 1
        graph = self._graph
        steps = key.pattern.guided_plan
        designated = steps[0]
        if not graph.has_entity(e1) or not graph.has_entity(e2):
            return None
        if graph.entity_type(e1) != designated.etype:
            return None
        if graph.entity_type(e2) != designated.etype:
            return None
        for predicate in designated.loops:
            if not (graph.has_triple(e1, predicate, e1) and graph.has_triple(e2, predicate, e2)):
                return None

        # slot i holds the images of steps[i] on either side
        left: List[GraphNode] = [e1]
        right: List[GraphNode] = [e2]
        if not self._extend(steps, left, right, {e1}, {e2}, eq, neighborhood1, neighborhood2):
            return None
        stats.successes += 1
        return {step.name: pair for step, pair in zip(steps, zip(left, right))}

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
        steps: Sequence[PlanStep],
        left: List[GraphNode],
        right: List[GraphNode],
        used1: Set[GraphNode],
        used2: Set[GraphNode],
        eq: EquivalenceRelation,
        neighborhood1: Optional[Set[GraphNode]],
        neighborhood2: Optional[Set[GraphNode]],
    ) -> bool:
        """Fill the next slot with each feasible pair in turn, depth first.

        The candidates on each side are the intersection of the stored rows
        the step's anchors name — so every pair already has the image of
        each pattern triple tying the node to an earlier slot ('Guided
        expansion'), and a string among them is a registered entity — then
        narrowed to the neighbourhood and to nodes carrying the step's
        self-loops.  The rows are the reader's own sets: never updated in
        place.  Pairs are tried in ``repr`` order, which fixes the witness
        and every counter.
        """
        position = len(left)
        if position == len(steps):
            return True
        _, kind, etype, constant, anchors, loops = steps[position]
        graph = self._graph
        found1 = found2 = None
        for is_subject, predicate, slot in anchors:
            if is_subject:
                row1 = graph.subjects(predicate, left[slot])
                row2 = graph.subjects(predicate, right[slot])
            else:
                row1 = graph.objects(left[slot], predicate)
                row2 = graph.objects(right[slot], predicate)
            found1 = row1 if found1 is None else found1 & row1
            found2 = row2 if found2 is None else found2 & row2
            if not found1 or not found2:
                return False
        if neighborhood1 is not None:
            found1 = found1 & neighborhood1
        if neighborhood2 is not None:
            found2 = found2 & neighborhood2
        for predicate in loops:
            found1 = [n for n in found1 if graph.has_triple(n, predicate, n)]
            found2 = [n for n in found2 if graph.has_triple(n, predicate, n)]
        pairs = [(n1, n2) for n1 in found1 for n2 in found2]
        if len(pairs) > 1:
            pairs.sort(key=repr)

        stats = self.stats
        for n1, n2 in pairs:
            stats.feasibility_checks += 1
            if n1 in used1 or n2 in used2:
                continue
            # the 'Equality' condition
            if kind is NodeKind.VALUE_VAR:
                if not (isinstance(n1, Literal) and n1 == n2):
                    continue
            elif kind is NodeKind.CONSTANT:
                if not (n1 == constant and n2 == constant):
                    continue
            else:  # ENTITY_VAR or WILDCARD: two entities of the node's type
                if not (isinstance(n1, str) and isinstance(n2, str)):
                    continue
                if graph.entity_type(n1) != etype or graph.entity_type(n2) != etype:
                    continue
                if kind is NodeKind.ENTITY_VAR and not eq.identified(n1, n2):
                    continue
            left.append(n1)
            right.append(n2)
            used1.add(n1)
            used2.add(n2)
            stats.expansions += 1
            if self._extend(steps, left, right, used1, used2, eq, neighborhood1, neighborhood2):
                return True
            left.pop()
            right.pop()
            used1.discard(n1)
            used2.discard(n2)
            stats.backtracks += 1
        return False
