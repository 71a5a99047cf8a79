"""Property suite for the pairing relation: the propagation seed loses nothing.

``pairing_relation`` seeds each pattern node by walking the pattern outward
from the designated pair.  The reference below is the definition read
literally: seed every node with *all* pairs of the two neighbourhoods that
satisfy condition (2a) (the full scan the production code used to do), then
prune by condition (2b) until nothing changes.  Both must return the same
relation — on the dict ``Graph`` and on a ``GraphSnapshot``, over full,
restricted and arbitrary neighbourhoods, for patterns with wildcards,
constants, self-loops, cycles and second nodes of the designated type.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.graph import Graph
from repro.core.key import Key
from repro.core.pairing import pairing_relation
from repro.core.pattern import (
    NodeKind,
    PatternNode,
    PatternTriple,
    constant,
    designated,
    entity_var,
    value_var,
    wildcard,
)
from repro.core.triples import GraphNode, Literal, is_entity_ref
from repro.storage import GraphSnapshot

from tests.naive_semantics import naive_ball

TYPES = ("a", "b")
EDGE_PREDICATES = ("p", "q")
VALUE_PREDICATES = ("v", "w")
VALUES = (0, 1, "k")

Relation = Dict[str, Set[Tuple[GraphNode, GraphNode]]]


# --------------------------------------------------------------------------- #
# the reference: full-scan seed + naive fixpoint
# --------------------------------------------------------------------------- #


def _initial_candidates(
    graph, node: PatternNode, nodes1: Set[GraphNode], nodes2: Set[GraphNode], e1: str, e2: str
) -> Set[Tuple[GraphNode, GraphNode]]:
    """Pairs satisfying condition (2a) of the pairing definition for *node*."""
    if node.kind is NodeKind.DESIGNATED:
        return {(e1, e2)}
    if node.kind is NodeKind.CONSTANT:
        literal = Literal(node.value)
        if literal in nodes1 and literal in nodes2:
            return {(literal, literal)}
        return set()
    if node.kind is NodeKind.VALUE_VAR:
        values1 = {n for n in nodes1 if isinstance(n, Literal)}
        values2 = {n for n in nodes2 if isinstance(n, Literal)}
        return {(v, v) for v in values1 & values2}
    etype = node.etype
    ents1 = {
        n
        for n in nodes1
        if is_entity_ref(n) and graph.has_entity(n) and graph.entity_type(n) == etype
    }
    ents2 = {
        n
        for n in nodes2
        if is_entity_ref(n) and graph.has_entity(n) and graph.entity_type(n) == etype
    }
    return {(n1, n2) for n1 in ents1 for n2 in ents2}


def _has_image(graph, pair, node_name: str, pattern, relation: Relation) -> bool:
    """Condition (2b), one pattern triple at a time, by exhaustive search."""
    n1, n2 = pair
    for triple in pattern.triples:
        if triple.subject.name == node_name:
            if not any(
                graph.has_triple(n1, triple.predicate, o1)
                and graph.has_triple(n2, triple.predicate, o2)
                for o1, o2 in relation[triple.obj.name]
            ):
                return False
        if triple.obj.name == node_name:
            if not any(
                graph.has_triple(s1, triple.predicate, n1)
                and graph.has_triple(s2, triple.predicate, n2)
                for s1, s2 in relation[triple.subject.name]
            ):
                return False
    return True


def reference_pairing(graph, key: Key, e1, e2, nodes1, nodes2) -> Optional[Relation]:
    pattern = key.pattern
    relation: Relation = {
        node.name: _initial_candidates(graph, node, nodes1, nodes2, e1, e2)
        for node in pattern.nodes()
    }
    changed = True
    while changed:
        changed = False
        for node in pattern.nodes():
            survivors = {
                pair
                for pair in relation[node.name]
                if _has_image(graph, pair, node.name, pattern, relation)
            }
            if survivors != relation[node.name]:
                relation[node.name] = survivors
                changed = True
    return relation if relation[pattern.designated.name] else None


# --------------------------------------------------------------------------- #
# generators (pure functions of a seed, like the other property suites)
# --------------------------------------------------------------------------- #


def random_graph(rng: random.Random) -> Graph:
    """Two twin-ish clusters, so that pairs are often pairable."""
    graph = Graph()
    count = rng.randint(4, 9)
    for index in range(count):
        graph.add_entity(f"e{index}", rng.choice(TYPES))
    entities = sorted(graph.entity_ids())
    for _ in range(rng.randint(count, 3 * count)):
        subject, obj = rng.choice(entities), rng.choice(entities)  # self-loops allowed
        graph.add_edge(subject, rng.choice(EDGE_PREDICATES), obj)
    for entity in entities:
        for _ in range(rng.randint(0, 2)):
            graph.add_value(entity, rng.choice(VALUE_PREDICATES), rng.choice(VALUES))
    return graph


def random_key(rng: random.Random) -> Key:
    """A random connected pattern over the generator's vocabulary.

    Grows from ``x``; a new triple either hangs a fresh node (any kind) off
    an existing entity node or joins two existing nodes (cycles, self-loops).
    """
    x = designated("x", "a")
    entity_nodes: List[PatternNode] = [x]
    value_nodes: List[PatternNode] = []
    triples: List[PatternTriple] = []
    for step in range(rng.randint(1, 5)):
        anchor = rng.choice(entity_nodes)
        roll = rng.random()
        if roll < 0.2 and step:  # join existing nodes: a cycle or a self-loop
            other = rng.choice(entity_nodes + value_nodes)
            if other.is_value:
                triple = PatternTriple(anchor, rng.choice(VALUE_PREDICATES), other)
            else:
                triple = PatternTriple(anchor, rng.choice(EDGE_PREDICATES), other)
        elif roll < 0.55:  # a value position
            if rng.random() < 0.3:
                other = constant(rng.choice(VALUES), name=f"c{step}")
            else:
                other = value_var(f"v{step}")
            value_nodes.append(other)
            triple = PatternTriple(anchor, rng.choice(VALUE_PREDICATES), other)
        else:  # an entity position, either direction; type "a" repeats x's type
            make = entity_var if rng.random() < 0.5 else wildcard
            other = make(f"n{step}", rng.choice(TYPES))
            entity_nodes.append(other)
            predicate = rng.choice(EDGE_PREDICATES)
            if rng.random() < 0.5:
                triple = PatternTriple(anchor, predicate, other)
            else:
                triple = PatternTriple(other, predicate, anchor)
        triples.append(triple)
    return Key.from_triples(triples, name="K")


#: one hand-written pattern per shape the walk has to get right
def _shaped_keys() -> Dict[str, Key]:
    x = designated("x", "a")
    return {
        "self_loop_on_x": Key.from_triples(
            [PatternTriple(x, "p", x), PatternTriple(x, "v", value_var("n"))]
        ),
        "self_loop_off_x": Key.from_triples(
            [
                PatternTriple(x, "p", wildcard("w", "b")),
                PatternTriple(wildcard("w", "b"), "q", wildcard("w", "b")),
            ]
        ),
        "second_node_of_x_type": Key.from_triples(
            [
                PatternTriple(x, "p", entity_var("y", "a")),
                PatternTriple(entity_var("y", "a"), "v", value_var("n")),
                PatternTriple(x, "v", value_var("n")),
            ]
        ),
        "constant_and_wildcard": Key.from_triples(
            [
                PatternTriple(wildcard("w", "b"), "q", x),
                PatternTriple(wildcard("w", "b"), "w", constant("k", name="c")),
                PatternTriple(x, "v", constant(1, name="one")),
            ]
        ),
        # a pair of w pruned for lack of a common m leaves its n unsupported
        "prune_cascades": Key.from_triples(
            [
                PatternTriple(x, "p", wildcard("w", "b")),
                PatternTriple(wildcard("w", "b"), "v", value_var("n")),
                PatternTriple(wildcard("w", "b"), "w", value_var("m")),
            ]
        ),
        "triangle": Key.from_triples(
            [
                PatternTriple(x, "p", entity_var("y", "b")),
                PatternTriple(entity_var("y", "b"), "q", wildcard("z", "a")),
                PatternTriple(wildcard("z", "a"), "p", x),
            ]
        ),
        "value_between_entities": Key.from_triples(
            [
                PatternTriple(x, "v", value_var("n")),
                PatternTriple(entity_var("y", "b"), "v", value_var("n")),
                PatternTriple(entity_var("y", "b"), "w", value_var("m")),
            ]
        ),
        # two triples between one pair of nodes: an anchor is one of them
        "parallel_edges": Key.from_triples(
            [
                PatternTriple(x, "p", entity_var("y", "b")),
                PatternTriple(x, "q", entity_var("y", "b")),
            ]
        ),
        "two_cycle": Key.from_triples(
            [
                PatternTriple(x, "p", wildcard("y", "b")),
                PatternTriple(wildcard("y", "b"), "q", x),
            ]
        ),
        # a three-hop signature path, two of its hops past the wildcard
        "constant_two_hops_behind_wildcard": Key.from_triples(
            [
                PatternTriple(x, "p", wildcard("w", "b")),
                PatternTriple(wildcard("w", "b"), "q", wildcard("z", "a")),
                PatternTriple(wildcard("z", "a"), "v", constant(1, name="one")),
            ]
        ),
    }


SHAPED_KEYS = _shaped_keys()


def neighbourhoods(rng: random.Random, graph: Graph, key: Key, entity: str) -> List[Set[GraphNode]]:
    """The full d-neighbourhood, a random restriction of it, and everything."""
    full = naive_ball(graph, entity, key.radius)
    restricted = {n for n in sorted(full, key=repr) if rng.random() < 0.7} | {entity}
    everything = set(graph.entity_ids()) | graph.value_nodes()
    return [full, restricted, everything]


def check_all_pairs(rng: random.Random, graph: Graph, key: Key) -> int:
    snapshot = GraphSnapshot.build(graph)
    targets = graph.entities_of_type(key.target_type)
    paired = 0
    for e1 in targets:
        for e2 in targets:  # ordered pairs, and (e, e): the definition allows both
            for nodes1, nodes2 in zip(
                neighbourhoods(rng, graph, key, e1), neighbourhoods(rng, graph, key, e2)
            ):
                expected = reference_pairing(graph, key, e1, e2, nodes1, nodes2)
                assert pairing_relation(graph, key, e1, e2, nodes1, nodes2) == expected
                assert pairing_relation(snapshot, key, e1, e2, nodes1, nodes2) == expected
                paired += expected is not None
    return paired


# --------------------------------------------------------------------------- #
# the properties
# --------------------------------------------------------------------------- #


@given(seed=st.integers(min_value=0, max_value=1_000_000))
# a prune in the first pass takes away the support of a pair seeded off it
@example(seed=264)
@example(seed=2644)
@settings(max_examples=60, deadline=None)
def test_pairing_equals_the_full_scan_fixpoint_on_random_keys(seed):
    rng = random.Random(seed)
    graph = random_graph(rng)
    check_all_pairs(rng, graph, random_key(rng))


@pytest.mark.parametrize("shape", sorted(SHAPED_KEYS))
@given(seed=st.integers(min_value=0, max_value=1_000_000))
@example(seed=35)  # ``prune_cascades`` cascades on these two graphs
@example(seed=51)
@settings(max_examples=25, deadline=None)
def test_pairing_equals_the_full_scan_fixpoint_on_shaped_keys(shape, seed):
    rng = random.Random(seed)
    check_all_pairs(rng, random_graph(rng), SHAPED_KEYS[shape])


@pytest.mark.parametrize("shape", sorted(SHAPED_KEYS))
def test_every_shape_pairs_something(shape):
    """The shaped suite is not vacuous: each pattern pairs on some graph."""
    key = SHAPED_KEYS[shape]
    assert any(
        check_all_pairs(random.Random(seed), random_graph(random.Random(seed)), key)
        for seed in range(40)
    )
