"""The pairing relation ``P^Q`` (Proposition 9) and its two uses.

Pairing is a *necessary* condition for a candidate pair to be identified by a
key: if ``(e1, e2)`` cannot be paired by any key of ``Σ`` then
``(G, Σ) ⊭ (e1, e2)``.  The maximum pairing relation is computed by a
simulation-style fixpoint in ``O(|Q|·|G^d_1|·|G^d_2|)`` time, which is far
cheaper than isomorphism checking — and in practice costs what the walk
from ``(e1, e2)`` along the pattern touches, because the fixpoint starts
from the pairs that walk reaches (:func:`_seed`), not from the product of
the two neighbourhoods.  The optimizations of Section 4.2 use it to

1. filter the candidate set ``L`` (``EMOptMR`` / the product graph of ``EMVC``), and
2. shrink the d-neighbourhoods to the nodes that appear in the relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .graph import Graph
from .key import Key
from .pattern import VALUE_KINDS, GraphPattern
from .triples import GraphNode, Literal, is_entity_ref

#: ``P^Q`` grouped by pattern node: node name → set of (n1, n2) pairs.
PairingRelation = Dict[str, Set[Tuple[GraphNode, GraphNode]]]


@dataclass
class PairingStatistics:
    """Counters describing the pairing computation (for reports / ablations)."""

    computed: int = 0
    paired: int = 0
    pruned: int = 0

    def merge(self, other: "PairingStatistics") -> None:
        self.computed += other.computed
        self.paired += other.paired
        self.pruned += other.pruned


def _entities_of(
    graph: Graph, found: Iterable[GraphNode], nodes: Set[GraphNode], etype: Optional[str]
) -> List[GraphNode]:
    """The nodes of *found* that one side of condition (2a) admits for an
    entity-kind pattern node of type *etype*, within the neighbourhood *nodes*."""
    return [
        n
        for n in found
        if n in nodes
        and is_entity_ref(n)
        and graph.has_entity(n)
        and graph.entity_type(n) == etype
    ]


def _seed(
    graph: Graph,
    pattern: GraphPattern,
    e1: str,
    e2: str,
    nodes1: Set[GraphNode],
    nodes2: Set[GraphNode],
) -> Optional[PairingRelation]:
    """A superset of the maximum pairing relation, read off the adjacency.

    Walks :attr:`~GraphPattern.guided_plan` outward from ``(e1, e2)``: a
    node is seeded with the images, along its first anchor, of the pairs
    already seeded at that anchor's earlier slot, kept when they satisfy
    condition (2a) inside the two neighbourhoods.  Nothing of the maximum
    relation is lost: (2b) demands a supported image along *every* incident
    triple, so each of its pairs is such an image of a pair of the maximum
    relation at the other end — which, by induction along the (connected)
    plan, was seeded.  Returns ``None`` when some node has no seed: the
    pattern is connected, so the fixpoint would then empty every node, ``x``
    included.
    """
    plan = pattern.guided_plan
    relation: PairingRelation = {plan[0].name: {(e1, e2)}}
    for step in plan[1:]:
        is_subject, predicate, slot = step.anchors[0]
        constant = step.constant
        seeded: Set[Tuple[GraphNode, GraphNode]] = set()
        for a1, a2 in relation[plan[slot].name]:
            if is_subject:
                found1, found2 = graph.subjects(predicate, a1), graph.subjects(predicate, a2)
            else:
                found1, found2 = graph.objects(a1, predicate), graph.objects(a2, predicate)
            if step.kind in VALUE_KINDS:
                # one value on both sides; set algebra reuses stored hashes
                for n in found1 & found2 & nodes1 & nodes2:
                    if isinstance(n, Literal) and (constant is None or n == constant):
                        seeded.add((n, n))
            else:
                images2 = _entities_of(graph, found2, nodes2, step.etype)
                if images2:
                    for n1 in _entities_of(graph, found1, nodes1, step.etype):
                        seeded.update([(n1, n2) for n2 in images2])
        if not seeded:
            return None
        relation[step.name] = seeded
    return relation


def _supported(
    graph: Graph,
    pair: Tuple[GraphNode, GraphNode],
    node_name: str,
    pattern: GraphPattern,
    relation: PairingRelation,
    known: Optional[Tuple[bool, str, str]] = None,
) -> bool:
    """Condition (2b): every incident pattern triple has a supported image.

    *known* — ``(node is subject?, predicate, other end)`` — names an
    incident triple along which support is already established and need not
    be looked up again.
    """
    n1, n2 = pair
    for triple in pattern.adjacent_triples(node_name):
        if triple.subject.name == node_name:
            if known == (True, triple.predicate, triple.obj.name):
                continue
            if not (is_entity_ref(n1) and is_entity_ref(n2)):
                return False
            targets = relation[triple.obj.name]
            objs1 = graph.objects(n1, triple.predicate)
            objs2 = graph.objects(n2, triple.predicate)
            if not any(o1 in objs1 and o2 in objs2 for (o1, o2) in targets):
                return False
        if triple.obj.name == node_name:
            if known == (False, triple.predicate, triple.subject.name):
                continue
            sources = relation[triple.subject.name]
            subs1 = graph.subjects(triple.predicate, n1)
            subs2 = graph.subjects(triple.predicate, n2)
            if not any(s1 in subs1 and s2 in subs2 for (s1, s2) in sources):
                return False
    return True


def pairing_relation(
    graph: Graph,
    key: Key,
    e1: str,
    e2: str,
    neighborhood1: Set[GraphNode],
    neighborhood2: Set[GraphNode],
) -> Optional[PairingRelation]:
    """The maximum pairing relation of *key* at ``(e1, e2)``, or None.

    Returns ``None`` when ``(e1, e2)`` cannot be paired by *key* (the
    designated pair is pruned away by the fixpoint).
    """
    pattern = key.pattern
    relation = _seed(graph, pattern, e1, e2, neighborhood1, neighborhood2)
    if relation is None:
        return None
    plan = pattern.guided_plan
    designated = plan[0].name

    # While nothing has been pruned, every seeded pair still has the image
    # along the anchor that seeded it; any prune triggers another pass, and
    # from the second pass on every triple is checked.
    untouched = True
    changed = True
    while changed:
        changed = False
        for step in plan:
            name, known = step.name, None
            if untouched and step.anchors:
                is_subject, predicate, slot = step.anchors[0]
                known = (is_subject, predicate, plan[slot].name)
            survivors = {
                pair
                for pair in relation[name]
                if _supported(graph, pair, name, pattern, relation, known)
            }
            if len(survivors) != len(relation[name]):
                relation[name] = survivors
                changed = True
        untouched = False
        if not relation[designated]:
            return None
    return relation


def can_pair(
    graph: Graph,
    key: Key,
    e1: str,
    e2: str,
    neighborhood1: Set[GraphNode],
    neighborhood2: Set[GraphNode],
) -> bool:
    """True when ``(e1, e2)`` can be paired by *key* (necessary condition)."""
    return (
        pairing_relation(graph, key, e1, e2, neighborhood1, neighborhood2) is not None
    )


def can_pair_with_any(
    graph: Graph,
    keys: List[Key],
    e1: str,
    e2: str,
    neighborhood1: Set[GraphNode],
    neighborhood2: Set[GraphNode],
) -> bool:
    """True when some key of *keys* can pair ``(e1, e2)``."""
    return any(
        can_pair(graph, key, e1, e2, neighborhood1, neighborhood2) for key in keys
    )


def pairing_support_nodes(
    relation: PairingRelation,
) -> Tuple[Set[GraphNode], Set[GraphNode]]:
    """The graph nodes appearing on each side of a pairing relation.

    Used by the neighbourhood-reduction optimization: the d-neighbourhoods can
    be restricted to these nodes without changing the outcome of the check.
    """
    side1: Set[GraphNode] = set()
    side2: Set[GraphNode] = set()
    for pairs in relation.values():
        for n1, n2 in pairs:
            side1.add(n1)
            side2.add(n2)
    return side1, side2


def reduced_neighborhoods(
    graph: Graph,
    keys: List[Key],
    e1: str,
    e2: str,
    neighborhood1: Set[GraphNode],
    neighborhood2: Set[GraphNode],
) -> Optional[Tuple[Set[GraphNode], Set[GraphNode]]]:
    """Neighbourhoods reduced to pairing-supported nodes, over all keys.

    Returns ``None`` when no key can pair ``(e1, e2)`` (the pair can be
    dropped from ``L`` altogether); otherwise the union over keys of the
    supported nodes on each side, always containing ``e1`` / ``e2``.
    """
    reduced1: Set[GraphNode] = set()
    reduced2: Set[GraphNode] = set()
    paired = False
    for key in keys:
        relation = pairing_relation(graph, key, e1, e2, neighborhood1, neighborhood2)
        if relation is None:
            continue
        paired = True
        side1, side2 = pairing_support_nodes(relation)
        reduced1 |= side1
        reduced2 |= side2
    if not paired:
        return None
    reduced1.add(e1)
    reduced2.add(e2)
    return reduced1 & neighborhood1 | {e1}, reduced2 & neighborhood2 | {e2}
