"""Declarative semantics of keys: valuations, matches, coincidence and
satisfaction (Section 2).

This module is the *reference* semantics; it enumerates matches explicitly
(subgraph isomorphism from the pattern into the graph), checks whether two
matches coincide (``S1(e1) ≅Q S2(e2)``) and decides key satisfaction
``G |= Q(x)``.  It is also the kernel of the ``EMVF2MR`` baseline, whose
reported cost is this enumeration's: what is fixed is therefore the order —
nodes in :attr:`GraphPattern.enumeration_plan
<repro.core.pattern.GraphPattern.enumeration_plan>` order, candidates in
``repr`` order, so matches are listed, and coincidence checks counted, the same
way on every reader — and the ``work_counter`` counts; nothing enumerated is
remembered from one call to the next.  The other matching algorithms use the
guided, early-terminating check of :mod:`repro.core.eval_guided`, and the
cross-checks in the test suite assert that the two agree.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set, Tuple

from ..exceptions import UnknownEntityError
from .equivalence import EquivalenceRelation
from .graph import Graph
from .key import Key
from .pattern import GraphPattern, NodeKind
from .triples import GraphNode, Literal, Triple, is_entity_ref

#: A valuation maps pattern-node names to graph nodes.
Valuation = Dict[str, GraphNode]


def find_matches(
    graph: Graph,
    pattern: GraphPattern,
    at_entity: str,
    restrict: Optional[Set[GraphNode]] = None,
    limit: Optional[int] = None,
    work_counter: Optional[Dict[str, int]] = None,
) -> List[Valuation]:
    """Enumerate the valuations witnessing that *graph* matches *pattern* at
    *at_entity*.

    Each returned valuation is a bijection between the pattern nodes and a set
    of graph nodes (node-injective), mapping the designated variable to
    *at_entity*, and such that every pattern triple has its image in the
    graph — i.e. a subgraph isomorphism in the sense of Section 2.1.

    ``restrict`` optionally confines images to a node set (for example a
    d-neighbourhood); ``limit`` stops the enumeration early; ``work_counter``
    (a dict) accumulates ``"candidates"`` and ``"matches"`` counts so callers
    such as the ``EMVF2MR`` baseline can charge the enumeration cost to the
    simulated-cluster cost model.
    """
    if not graph.has_entity(at_entity):
        raise UnknownEntityError(at_entity)
    steps = pattern.enumeration_plan
    if graph.entity_type(at_entity) != steps[0].etype:
        return []
    if restrict is not None and at_entity not in restrict:
        return []
    for predicate in steps[0].loops:
        if not graph.has_triple(at_entity, predicate, at_entity):
            return []

    matches: List[Valuation] = []
    slots: List[GraphNode] = [at_entity]  # slot i holds the image of steps[i]
    used: Set[GraphNode] = {at_entity}
    tried = 0

    def backtrack() -> bool:
        """Return True when the enumeration should stop (limit reached)."""
        nonlocal tried
        position = len(slots)
        if position == len(steps):
            matches.append({step.name: image for step, image in zip(steps, slots)})
            return limit is not None and len(matches) >= limit
        _, kind, etype, constant, anchors, loops = steps[position]
        # guided expansion: the stored rows the anchors name, intersected
        # (the reader's own sets: never updated in place)
        found = None
        for is_subject, predicate, slot in anchors:
            if is_subject:
                row = graph.subjects(predicate, slots[slot])
            else:
                row = graph.objects(slots[slot], predicate)
            found = row if found is None else found & row
            if not found:
                return False
        if restrict is not None:
            found = found & restrict
        # the typing discipline of valuations (Section 2.1); a string drawn
        # from a stored row is a registered entity
        if kind is NodeKind.VALUE_VAR:
            images = [c for c in found if isinstance(c, Literal)]
        elif kind is NodeKind.CONSTANT:
            images = [c for c in found if c == constant]
        else:
            images = [c for c in found if isinstance(c, str) and graph.entity_type(c) == etype]
        for predicate in loops:
            images = [c for c in images if graph.has_triple(c, predicate, c)]
        if len(images) > 1:
            images.sort(key=repr)
        for candidate in images:
            tried += 1
            if candidate in used:
                continue
            slots.append(candidate)
            used.add(candidate)
            stop = backtrack()
            slots.pop()
            used.discard(candidate)
            if stop:
                return True
        return False

    backtrack()
    if work_counter is not None:
        if tried:
            work_counter["candidates"] = work_counter.get("candidates", 0) + tried
        if matches:
            work_counter["matches"] = work_counter.get("matches", 0) + len(matches)
    return matches


def has_match(
    graph: Graph,
    pattern: GraphPattern,
    at_entity: str,
    restrict: Optional[Set[GraphNode]] = None,
) -> bool:
    """True when *graph* matches *pattern* at *at_entity*."""
    return bool(find_matches(graph, pattern, at_entity, restrict=restrict, limit=1))


def match_triples(pattern: GraphPattern, valuation: Valuation) -> Set[Triple]:
    """The match ``S``: the image of the pattern triples under *valuation*."""
    image: Set[Triple] = set()
    for triple in pattern.triples:
        subject = valuation[triple.subject.name]
        obj = valuation[triple.obj.name]
        assert is_entity_ref(subject)
        image.add(Triple(subject, triple.predicate, obj))
    return image


def coincides(
    pattern: GraphPattern,
    valuation1: Valuation,
    valuation2: Valuation,
    eq: Optional[EquivalenceRelation] = None,
) -> bool:
    """Do the matches under *valuation1* and *valuation2* coincide?

    Implements ``S1(e1) ≅Q S2(e2)`` (and its chase variant ``≅^Eq_Q`` when an
    equivalence relation is supplied): entity variables other than ``x`` must
    map to identified entities, value variables must map to equal values;
    wildcards and the designated variable are unconstrained.
    """
    for node in pattern.nodes():
        v1 = valuation1[node.name]
        v2 = valuation2[node.name]
        if node.kind is NodeKind.ENTITY_VAR:
            assert is_entity_ref(v1) and is_entity_ref(v2)
            if eq is None:
                if v1 != v2:
                    return False
            elif not eq.identified(v1, v2):
                return False
        elif node.kind is NodeKind.VALUE_VAR:
            if v1 != v2:
                return False
        # DESIGNATED, WILDCARD: no constraint; CONSTANT: equal by construction.
    return True


def identify_pair_by_enumeration(
    graph: Graph,
    key: Key,
    e1: str,
    e2: str,
    eq: Optional[EquivalenceRelation] = None,
    restrict1: Optional[Set[GraphNode]] = None,
    restrict2: Optional[Set[GraphNode]] = None,
    work_counter: Optional[Dict[str, int]] = None,
) -> bool:
    """The naive per-pair check used by the ``EMVF2MR`` baseline.

    Enumerates *all* matches of the key's pattern at ``e1`` and at ``e2``
    (full VF2-style enumeration, no early termination) and then tests every
    pair of matches for coincidence.
    """
    pattern = key.pattern
    matches1 = find_matches(graph, pattern, e1, restrict=restrict1, work_counter=work_counter)
    if not matches1:
        return False
    matches2 = find_matches(graph, pattern, e2, restrict=restrict2, work_counter=work_counter)
    if not matches2:
        return False
    for val1, val2 in itertools.product(matches1, matches2):
        if work_counter is not None:
            work_counter["coincidence_checks"] = work_counter.get("coincidence_checks", 0) + 1
        if coincides(pattern, val1, val2, eq=eq):
            return True
    return False


def violations(graph: Graph, key: Key, limit: Optional[int] = None) -> List[Tuple[str, str]]:
    """Pairs of *distinct* entities with coinciding matches of *key*.

    These are the witnesses of ``G ⊭ Q(x)``: by the key's semantics each such
    pair refers to the same real-world entity (one of the two is a duplicate).
    """
    pattern = key.pattern
    found: List[Tuple[str, str]] = []
    entities = graph.entities_of_type(key.target_type)
    per_entity: Dict[str, List[Valuation]] = {}
    for entity in entities:
        per_entity[entity] = find_matches(graph, pattern, entity)
    for e1, e2 in itertools.combinations(entities, 2):
        for val1, val2 in itertools.product(per_entity[e1], per_entity[e2]):
            if coincides(pattern, val1, val2):
                found.append((e1, e2))
                break
        if limit is not None and len(found) >= limit:
            return found
    return found


def satisfies(graph: Graph, key: Key) -> bool:
    """``G |= Q(x)``: no two distinct entities are identified by the key."""
    return not violations(graph, key, limit=1)
