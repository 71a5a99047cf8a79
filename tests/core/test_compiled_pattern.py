"""What ``GraphPattern`` compiles is what each walker used to derive for itself.

Before the pattern compiled them, four pieces of code each walked a key's
pattern on their own: the tour DFS of the vertex-centric backends, the BFS of
the blocking layer, the pairing seed's anchor triples and the radius BFS.
:mod:`tests.interpretive_checks` holds that code verbatim; on hand-written
shapes, random keys and the synthetic generator's keys the compiled form must
equal it exactly — every tour step, every signature path (node, steps,
constant, certification), the radius and every anchor — so that no counter and
no simulated second moves.  The old blocking BFS sorted neighbour names
because its adjacency held sets, so CI also runs this under two fixed hash
seeds.
"""

from __future__ import annotations

import random
from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.key import Key
from repro.core.pattern import PatternTriple, constant, designated, value_var, wildcard
from repro.core.triples import Literal
from repro.datasets.keygen import generate_keys
from repro.matching.blocking import compile_blocking_scheme

from tests import interpretive_checks as walked
from tests.properties.test_pairing_properties import SHAPED_KEYS, random_key


def assert_compiled_as_walked(key: Key) -> None:
    pattern = key.pattern
    names = [node.name for node in pattern.nodes()]

    tour = [(names[s], names[t], p, forward) for s, t, p, forward, *_ in pattern.tour]
    assert tour == [
        (step.source_name, step.target_name, step.triple.predicate, step.forward)
        for step in walked.traversal_order(pattern)
    ]
    for _, target, _, _, kind, etype, far_constant in pattern.tour:
        far = pattern.node(names[target])
        literal = Literal(far.value) if far.is_constant else None
        assert (kind, etype, far_constant) == (far.kind, far.etype, literal)

    assert compile_blocking_scheme(key) == walked.compile_blocking_scheme(key)
    assert pattern.radius == walked.radius(pattern)

    plan = pattern.guided_plan
    anchors = walked.anchor_triples(pattern)
    assert sorted(anchors) == sorted(step.name for step in plan[1:])
    for step in plan[1:]:
        is_subject, predicate, slot = step.anchors[0]
        ends = (step.name, plan[slot].name) if is_subject else (plan[slot].name, step.name)
        triple = anchors[step.name]
        assert (ends[0], predicate, ends[1]) == (
            triple.subject.name, triple.predicate, triple.obj.name
        )


def _diamonds() -> Dict[str, Key]:
    """Two tree paths of one length into one node, so that only the BFS's
    name order picks the parent a signature path runs through (``a`` before
    ``b``): the random keys rarely grow one."""
    x = designated("x", "t")
    a, b, c = (wildcard(name, "t") for name in "abc")
    return {
        "diamond": Key.from_triples(
            [
                PatternTriple(x, "p", b),
                PatternTriple(x, "q", a),
                PatternTriple(b, "v", value_var("n")),
                PatternTriple(a, "w", value_var("n")),
            ]
        ),
        # c is reached forward from a and backward from b
        "diamond_both_ways": Key.from_triples(
            [
                PatternTriple(x, "p", a),
                PatternTriple(x, "p", b),
                PatternTriple(c, "r", b),
                PatternTriple(a, "s", c),
                PatternTriple(c, "v", constant(1, name="one")),
            ]
        ),
    }


@pytest.mark.parametrize("shape", sorted(SHAPED_KEYS))
def test_compiled_pattern_equals_the_walkers_on_shaped_keys(shape):
    assert_compiled_as_walked(SHAPED_KEYS[shape])


@pytest.mark.parametrize("shape", sorted(_diamonds()))
def test_compiled_pattern_equals_the_walkers_where_bfs_parents_tie(shape):
    assert_compiled_as_walked(_diamonds()[shape])


@given(seed=st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=200, deadline=None)
def test_compiled_pattern_equals_the_walkers_on_random_keys(seed):
    assert_compiled_as_walked(random_key(random.Random(seed)))


@given(
    num_keys=st.integers(min_value=1, max_value=12),
    chain_length=st.integers(min_value=1, max_value=5),
    radius=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_compiled_pattern_equals_the_walkers_on_generated_keys(num_keys, chain_length, radius):
    for key in generate_keys(num_keys, chain_length, radius):
        assert_compiled_as_walked(key)
