"""The compiled per-pair checks are the interpretive ones.

``GuidedPairEvaluator`` and ``find_matches`` walk a plan compiled once per
pattern; :mod:`tests.interpretive_checks` is the code they replaced (with the
self-loop check added to both).  On generated keys and graphs — dict ``Graph``
and ``GraphSnapshot``, restricted and unrestricted, with and without
``limit`` — the two must agree on everything a caller or a cost model can
see: the witness, every ``EvalStatistics`` field after every call, the list
of matches in order, and the ``work_counter`` counts.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Optional, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.equivalence import EquivalenceRelation
from repro.core.eval_guided import GuidedPairEvaluator
from repro.core.key import KeySet
from repro.core.matching import coincides, find_matches, identify_pair_by_enumeration
from repro.core.pattern import GraphPattern
from repro.core.triples import GraphNode, Literal
from repro.exceptions import UnknownEntityError
from repro.storage import GraphSnapshot

from tests.interpretive_checks import (
    InterpretiveGuidedEvaluator,
    _search_order,
    interpretive_find_matches,
)
from tests.properties.test_backend_agreement import planted_graph
from tests.properties.test_pairing_properties import (
    SHAPED_KEYS,
    neighbourhoods,
    random_key,
)


def random_eq(rng: random.Random, graph) -> EquivalenceRelation:
    """A few same-type entities merged, so entity variables have work to do."""
    eq = EquivalenceRelation(graph.entity_ids())
    for etype in sorted(graph.types()):
        members = sorted(graph.entities_of_type(etype))
        for _ in range(rng.randint(0, 2)):
            eq.merge(rng.choice(members), rng.choice(members))
    return eq


def restrictions(rng: random.Random, graph, key, entity: str) -> List[Optional[Set[GraphNode]]]:
    """Unrestricted, then the three node sets of the pairing suite."""
    return [None] + neighbourhoods(rng, graph, key, entity)


def interpretive_identify_by_enumeration(graph, key, e1, e2, eq, restrict1, restrict2, counter):
    """``identify_pair_by_enumeration`` over the interpretive enumerator."""
    pattern = key.pattern
    matches1 = interpretive_find_matches(graph, pattern, e1, restrict1, work_counter=counter)
    if not matches1:
        return False
    matches2 = interpretive_find_matches(graph, pattern, e2, restrict2, work_counter=counter)
    for val1 in matches1:
        for val2 in matches2:
            counter["coincidence_checks"] = counter.get("coincidence_checks", 0) + 1
            if coincides(pattern, val1, val2, eq=eq):
                return True
    return False


def compare_on(rng: random.Random, dict_graph, key) -> None:
    targets = sorted(dict_graph.entities_of_type(key.target_type))
    eq = random_eq(rng, dict_graph)
    pattern = key.pattern
    for graph in (dict_graph, GraphSnapshot.build(dict_graph)):
        compiled, oracle = GuidedPairEvaluator(graph), InterpretiveGuidedEvaluator(graph)
        for e1 in targets:
            around1 = restrictions(rng, dict_graph, key, e1)
            for limit in (None, 1, 2):
                for restrict in around1:
                    got_count: Dict[str, int] = {}
                    want_count: Dict[str, int] = {}
                    got = find_matches(graph, pattern, e1, restrict, limit, got_count)
                    want = interpretive_find_matches(
                        graph, pattern, e1, restrict, limit, want_count
                    )
                    assert got == want and got_count == want_count
                    assert [list(m) for m in got] == [list(m) for m in want]  # key order too
            for e2 in targets:
                for nodes1, nodes2 in zip(around1, restrictions(rng, dict_graph, key, e2)):
                    got = compiled.identify_with_witness(key, e1, e2, eq, nodes1, nodes2)
                    want = oracle.identify_with_witness(key, e1, e2, eq, nodes1, nodes2)
                    assert got == want and compiled.stats == oracle.stats
                    assert got is None or list(got) == list(want)

                    got_count, want_count = {}, {}
                    assert identify_pair_by_enumeration(
                        graph, key, e1, e2, eq, nodes1, nodes2, got_count
                    ) == interpretive_identify_by_enumeration(
                        graph, key, e1, e2, eq, nodes1, nodes2, want_count
                    )
                    assert got_count == want_count
        # guided expansion holds by construction of the candidate sets
        assert oracle.expansion_rejections == 0
        assert oracle.stats.calls == len(targets) ** 2 * 4


@given(seed=st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=40, deadline=None)
def test_compiled_checks_equal_the_interpretive_ones_on_random_keys(seed):
    rng = random.Random(seed)
    key = random_key(rng)
    compare_on(rng, planted_graph(rng, KeySet([key])), key)


@pytest.mark.parametrize("shape", sorted(SHAPED_KEYS))
@given(seed=st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=10, deadline=None)
def test_compiled_checks_equal_the_interpretive_ones_on_shaped_keys(shape, seed):
    rng = random.Random(seed)
    key = SHAPED_KEYS[shape]
    compare_on(rng, planted_graph(rng, KeySet([key])), key)


def test_both_enumerators_refuse_an_unknown_entity():
    key = SHAPED_KEYS["triangle"]
    graph = planted_graph(random.Random(0), KeySet([key]))
    for enumerate_matches in (find_matches, interpretive_find_matches):
        with pytest.raises(UnknownEntityError):
            enumerate_matches(graph, key.pattern, "nobody")


# --------------------------------------------------------------------------- #
# the plans themselves
# --------------------------------------------------------------------------- #


def _patterns() -> List[GraphPattern]:
    generated = [random_key(random.Random(seed)).pattern for seed in range(200)]
    return generated + [key.pattern for key in SHAPED_KEYS.values()]


def test_plans_follow_the_two_orders_the_checks_always_used():
    for pattern in _patterns():
        guided = [step.name for step in pattern.guided_plan]
        assert guided == [node.name for node in pattern.instantiation_order]
        enumerated = [step.name for step in pattern.enumeration_plan]
        assert enumerated == [node.name for node in _search_order(pattern)]


def test_every_step_reads_exactly_its_triples_to_earlier_slots():
    """Each pattern triple is enforced once: as a loop of its node, or as an
    anchor of whichever end comes later — so no step past ``x`` is ever
    unconstrained, and nothing is left for a second look at the candidate."""
    loops_seen = 0
    for pattern in _patterns():
        for plan in (pattern.guided_plan, pattern.enumeration_plan):
            enforced = []
            for position, step in enumerate(plan):
                node = pattern.node(step.name)
                constant = Literal(node.value) if node.is_constant else None
                assert (step.kind, step.etype, step.constant) == (node.kind, node.etype, constant)
                assert bool(step.anchors) is (position > 0)
                for is_subject, predicate, slot in step.anchors:
                    assert slot < position
                    ends = (step.name, plan[slot].name)
                    enforced.append((*(ends if is_subject else ends[::-1]), predicate))
                enforced.extend((step.name, step.name, p) for p in step.loops)
                loops_seen += len(step.loops)
            assert sorted(enforced) == sorted(
                (t.subject.name, t.obj.name, t.predicate) for t in pattern.triples
            )
    assert loops_seen > 0


def test_every_tour_crosses_each_triple_once_each_way():
    """The tour starts and ends at ``x``, each step starts where the last one
    ended, and each distinct pattern triple is crossed exactly twice, once in
    each direction — a self-loop included — with the far end's kind, type
    and constant."""
    for pattern in _patterns():
        nodes = list(pattern.nodes())
        x = nodes.index(pattern.designated)
        tour = pattern.tour
        assert tour[0][0] == x and tour[-1][1] == x
        assert all(previous[1] == step[0] for previous, step in zip(tour, tour[1:]))
        crossed = []
        for source, target, predicate, forward, kind, etype, constant in tour:
            far = nodes[target]
            literal = Literal(far.value) if far.is_constant else None
            assert (kind, etype, constant) == (far.kind, far.etype, literal)
            ends = (nodes[source].name, nodes[target].name)
            crossed.append((*(ends if forward else ends[::-1]), predicate, forward))
        distinct = {(t.subject.name, t.obj.name, t.predicate) for t in pattern.triples}
        assert sorted(crossed) == sorted(
            (*triple, forward) for triple in distinct for forward in (True, False)
        )


def test_every_signature_path_walks_pattern_triples_to_its_node():
    """One path per value node, by name; it is as long as the node's BFS
    distance from ``x``, and every hop is a pattern triple, read in its
    direction, that reaches a node of the hop's type one step further out."""
    for pattern in _patterns():
        triples = {(t.subject.name, t.predicate, t.obj.name) for t in pattern.triples}
        edges = [(s, o) for s, _, o in triples] + [(o, s) for s, _, o in triples]
        distance = {pattern.designated.name: 0}
        queue = deque([pattern.designated.name])
        while queue:
            a = queue.popleft()
            for source, b in edges:
                if source == a and b not in distance:
                    distance[b] = distance[a] + 1
                    queue.append(b)
        values = sorted(node.name for node in pattern.nodes() if node.is_value)
        assert [path.node_name for path in pattern.signature_paths] == values
        for path in pattern.signature_paths:
            node = pattern.node(path.node_name)
            assert path.constant == (Literal(node.value) if node.is_constant else None)
            assert len(path.steps) == distance[path.node_name]
            reached = {pattern.designated.name}
            for hop in path.steps:
                reached = {
                    b
                    for s, p, o in triples
                    for a, b in [(s, o) if hop.forward else (o, s)]
                    if p == hop.predicate and a in reached and distance[b] == distance[a] + 1
                    and pattern.node(b).etype == hop.etype
                }
            assert path.node_name in reached
