"""Section 2 read literally: the slowest matcher that could be right.

An oracle for the differential suites, sharing no code with ``src/``'s
matchers: no instantiation order, no guided expansion, no neighbourhoods, no
union-find.  A valuation is an injective assignment of graph nodes to the
pattern nodes, in declaration order, that respects the typing discipline and
sends *every* pattern triple — self-loops included — to a member of
``set(graph.triples())``.  ``chase(G, Σ)`` is the least equivalence relation
closed under "two entities with coinciding matches of a key are equal".
:func:`naive_ball` is the d-neighbourhood of Section 4.1 read the same way:
a breadth-first walk over ``Graph.neighbors``, and
:func:`reference_signature` a blocking signature read the same way: one
path step at a time over ``Graph.objects`` / ``Graph.subjects``.
:func:`reference_fixpoint`
is :func:`naive_chase` memoised by graph content, for suites that ask for
the fixpoint of one graph state many times.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.key import Key
from repro.core.pattern import GraphPattern, NodeKind, PatternNode
from repro.core.triples import GraphNode, Literal, Triple, is_entity_ref

Valuation = Dict[str, GraphNode]


def naive_ball(graph, entity: str, radius: int) -> Set[GraphNode]:
    """The nodes within *radius* undirected hops of *entity* (itself included)."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    seen: Set[GraphNode] = {entity}
    queue = deque([(entity, 0)])
    while queue:
        node, depth = queue.popleft()
        if depth == radius:
            continue
        for nbr in graph.neighbors(node):
            if nbr not in seen:
                seen.add(nbr)
                queue.append((nbr, depth + 1))
    return seen


def _well_typed(graph, node: PatternNode, image: GraphNode) -> bool:
    if node.kind is NodeKind.CONSTANT:
        return isinstance(image, Literal) and image.value == node.value
    if node.kind is NodeKind.VALUE_VAR:
        return isinstance(image, Literal)
    return isinstance(image, str) and graph.entity_type(image) == node.etype


def naive_matches(graph, pattern: GraphPattern, at_entity: str) -> List[Valuation]:
    """Every valuation of *pattern* in *graph* sending ``x`` to *at_entity*."""
    triples: Set[Triple] = set(graph.triples())
    universe: List[GraphNode] = sorted(graph.entity_ids()) + sorted(
        {t.obj for t in triples if isinstance(t.obj, Literal)}, key=repr
    )
    nodes = list(pattern.nodes())
    found: List[Valuation] = []

    def images_hold(valuation: Valuation) -> bool:
        return all(
            Triple(valuation[t.subject.name], t.predicate, valuation[t.obj.name]) in triples
            for t in pattern.triples
            if t.subject.name in valuation and t.obj.name in valuation
        )

    def assign(index: int, valuation: Valuation) -> None:
        if index == len(nodes):
            found.append(dict(valuation))
            return
        node = nodes[index]
        choices = [at_entity] if node.is_designated else universe
        for image in choices:
            if image in valuation.values() or not _well_typed(graph, node, image):
                continue
            valuation[node.name] = image
            if images_hold(valuation):
                assign(index + 1, valuation)
            del valuation[node.name]

    assign(0, {})
    return found


def _coincide(pattern: GraphPattern, m1: Valuation, m2: Valuation, same) -> bool:
    for node in pattern.nodes():
        if node.kind is NodeKind.ENTITY_VAR and not same(m1[node.name], m2[node.name]):
            return False
        if node.kind is NodeKind.VALUE_VAR and m1[node.name] != m2[node.name]:
            return False
    return True


def naive_violations(graph, key: Key) -> List[Tuple[str, str]]:
    """Pairs of distinct entities with coinciding matches (``Eq`` = identity)."""
    entities = sorted(graph.entities_of_type(key.target_type))
    matches = {e: naive_matches(graph, key.pattern, e) for e in entities}
    return [
        (e1, e2)
        for e1, e2 in itertools.combinations(entities, 2)
        if any(
            _coincide(key.pattern, m1, m2, lambda a, b: a == b)
            for m1 in matches[e1]
            for m2 in matches[e2]
        )
    ]


def naive_chase(graph, keys) -> Set[Tuple[str, str]]:
    """The pairs of ``chase(G, Σ)``, each as ``(smaller id, larger id)``."""
    class_of: Dict[str, int] = {e: i for i, e in enumerate(sorted(graph.entity_ids()))}
    matches = {
        (key.name, e): naive_matches(graph, key.pattern, e)
        for key in keys
        for e in graph.entities_of_type(key.target_type)
    }

    def same(a: GraphNode, b: GraphNode) -> bool:
        return class_of[a] == class_of[b]

    changed = True
    while changed:
        changed = False
        for key in keys:
            entities = sorted(graph.entities_of_type(key.target_type))
            for e1, e2 in itertools.combinations(entities, 2):
                if same(e1, e2):
                    continue
                if any(
                    _coincide(key.pattern, m1, m2, same)
                    for m1 in matches[key.name, e1]
                    for m2 in matches[key.name, e2]
                ):
                    old, new = class_of[e2], class_of[e1]
                    for entity, cls in class_of.items():
                        if cls == old:
                            class_of[entity] = new
                    changed = True
    return {
        (a, b) for a, b in itertools.combinations(sorted(class_of), 2) if same(a, b)
    }


#: (content fingerprint, keys) -> naive fixpoint; cleared when it grows past
#: _MAX_FIXPOINTS rather than kept for the life of the test process
_FIXPOINTS: Dict[Tuple[str, FrozenSet[Key]], FrozenSet[Tuple[str, str]]] = {}
_MAX_FIXPOINTS = 4096


def reference_fixpoint(graph, keys) -> FrozenSet[Tuple[str, str]]:
    """:func:`naive_chase` of *graph* under *keys*, memoised by
    ``graph.content_fingerprint()`` and the keys: ``chase(G, Σ)`` is a
    function of ``(G, Σ)`` alone, so a graph state is chased once however
    many reads ask for its fixpoint."""
    memo = (graph.content_fingerprint(), frozenset(keys))
    pairs = _FIXPOINTS.get(memo)
    if pairs is None:
        if len(_FIXPOINTS) >= _MAX_FIXPOINTS:
            _FIXPOINTS.clear()
        pairs = _FIXPOINTS[memo] = frozenset(naive_chase(graph, keys))
    return pairs


def reference_signature(graph, entity, path):
    """The literals *entity* reaches along *path*, walked over the ``Graph``
    read methods one step at a time, filtered to the path's constant."""
    frontier = {entity}
    for step in path.steps:
        reached = set()
        for node in frontier:
            if step.forward:
                if is_entity_ref(node):
                    reached.update(graph.objects(node, step.predicate))
            else:
                reached.update(graph.subjects(step.predicate, node))
        if step.etype is None:
            frontier = {n for n in reached if isinstance(n, Literal)}
        else:
            frontier = {
                n
                for n in reached
                if is_entity_ref(n) and graph.has_entity(n) and graph.entity_type(n) == step.etype
            }
    if path.constant is not None:
        frontier &= {path.constant}
    return frozenset(frontier)
