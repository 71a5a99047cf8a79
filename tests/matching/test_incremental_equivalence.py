"""Differential mutation-fuzz harness for incremental matching.

The one property that makes ``MatchSession.run(incremental=True)`` safe to
use: after *any* sequence of journalled mutations (edge additions and
removals, new and retyped entities, literal edits), the incremental result is
bit-identical to a from-scratch full run on the mutated graph — for every
registered backend, and under every executor.  The ground truth is
``naive_chase`` (``tests/naive_semantics.py``), Section 2 read literally and
sharing no code with ``src/``'s matchers (all backends equal it by
Church–Rosser).  It is brute force, so the graphs stay tiny:
:func:`fuzz_dataset` starts at 28 entities and a window adds a handful.
Keep them under ~50 entities, where one ``naive_chase`` call costs ~4 ms
against ~0.5 ms for the ``src/`` chase (one core of a 2-CPU Xeon).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ALGORITHMS, MatchSession
from repro.core.chase import candidate_pairs
from repro.core.graph import Graph
from repro.core.triples import Literal
from repro.datasets.synthetic import synthetic_dataset

from tests.graphs import triples_of, types_of
from tests.naive_semantics import naive_chase

BACKENDS = tuple(ALGORITHMS)


# --------------------------------------------------------------------------- #
# the mutation fuzzer
# --------------------------------------------------------------------------- #


def apply_random_mutation(graph: Graph, rng: random.Random) -> str:
    """Apply one random journalled mutation; returns a description (for notes).

    Reads the graph without publishing it, so a graph no session publishes
    keeps its rows and the rebuilds the suites compare against never read a
    patch."""
    entities = sorted(graph.entity_ids())
    triples = sorted(triples_of(graph), key=repr)
    types = sorted(types_of(graph))
    predicates = sorted(graph.predicates()) or ["name_of"]
    kind = rng.choice(
        ["add_edge", "remove_triple", "add_entity", "retype_entity", "edit_literal"]
    )

    if kind == "add_edge" and len(entities) >= 2:
        source, target = rng.sample(entities, 2)
        predicate = rng.choice(predicates)
        graph.add_edge(source, predicate, target)
        return f"add_edge({source}, {predicate}, {target})"

    if kind == "remove_triple" and triples:
        triple = rng.choice(triples)
        graph.remove_triple(triple)
        return f"remove_triple({triple})"

    if kind == "add_entity" and types:
        etype = rng.choice(types)
        eid = f"fuzz_{graph.num_entities}_{rng.randrange(1000)}"
        graph.add_entity(eid, etype)
        # give it values/edges that can coincide with an existing entity's
        twin = rng.choice(entities)
        for triple in graph.out_triples(twin).copy():
            if rng.random() < 0.7:
                graph.add_triple(triple._replace(subject=eid))
        return f"add_entity({eid}, {etype}) twinning {twin}"

    if kind == "retype_entity" and entities and types:
        eid = rng.choice(entities)
        graph.retype_entity(eid, rng.choice(types))
        return f"retype_entity({eid})"

    # literal edit: repoint one value triple at an existing or fresh value
    value_triples = [t for t in triples if t.object_is_value()]
    if value_triples:
        triple = rng.choice(value_triples)
        if rng.random() < 0.6:
            other = rng.choice(value_triples)
            new_value = other.obj
        else:
            new_value = Literal(f"fuzzed_{rng.randrange(1000)}")
        graph.set_value(triple.subject, triple.predicate, new_value)
        return f"edit_literal({triple.subject}, {triple.predicate})"

    # graph too small for the drawn mutation: fall back to a fresh entity
    graph.add_entity(f"fuzz_{graph.num_entities}", types[0] if types else "thing")
    return "add_entity(fallback)"


def fuzz_dataset(seed: int):
    return synthetic_dataset(
        num_keys=4, chain_length=2, radius=2, entities_per_type=3, seed=seed % 40
    )


def assert_incremental_matches_full(session: MatchSession, graph, keys) -> None:
    incremental = session.rerun()
    assert incremental.eq.pairs() == naive_chase(graph, keys), session.last_delta()
    delta = session.last_delta()
    if delta is not None and delta.mode in ("incremental", "reused"):
        # the plan's universe: the quadratic L under blocking="off", the
        # pairing-filtered blocked set otherwise
        blocking = session.config.blocking
        universe = (
            candidate_pairs(graph, keys)
            if blocking == "off"
            else session._artifacts.candidates(filtered=True, blocking=blocking).pairs
        )
        assert delta.pairs_rechecked + delta.pairs_skipped == len(universe)


# --------------------------------------------------------------------------- #
# the differential property, per backend
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    rounds=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
)
@settings(max_examples=12, deadline=None)
def test_incremental_equals_full_under_random_mutations(backend, seed, rounds):
    """incremental Eq == from-scratch Eq after arbitrary mutation sequences."""
    fuzz_incremental(backend, seed, rounds, blocking="off")


def fuzz_incremental(backend, seed, rounds, **settings):
    dataset = fuzz_dataset(seed)
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph).with_keys(keys).using(backend, **settings)
    session.run()
    rng = random.Random(seed)
    for count in rounds:
        for _ in range(count):
            apply_random_mutation(graph, rng)
        assert_incremental_matches_full(session, graph, keys)


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    rounds=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
)
@settings(max_examples=12, deadline=None)
def test_incremental_equals_full_under_the_default_blocking(backend, seed, rounds):
    """The same property on the default path: the blocked universe."""
    assert MatchSession(Graph()).config.blocking == "auto"
    fuzz_incremental(backend, seed, rounds)


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=10, deadline=None)
def test_incremental_chain_survives_interleaved_full_runs(seed):
    """Full and incremental runs interleave freely on one session."""
    dataset = fuzz_dataset(seed)
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph).with_keys(keys).using("chase", blocking="off")
    session.run()
    rng = random.Random(seed)
    for index in range(3):
        apply_random_mutation(graph, rng)
        if index % 2 == 0:
            assert_incremental_matches_full(session, graph, keys)
        else:
            full = session.rematch()
            assert full.eq.pairs() == naive_chase(graph, keys)


# --------------------------------------------------------------------------- #
# executors: the same property on real worker pools
# --------------------------------------------------------------------------- #

EXECUTOR_BACKENDS = tuple(name for name in BACKENDS if name != "chase")


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_incremental_equals_full_on_executor_pools(backend, executor):
    dataset = fuzz_dataset(23)
    graph, keys = dataset.graph, dataset.keys
    session = (
        MatchSession(graph)
        .with_keys(keys)
        .using(backend, executor=executor, workers=2, blocking="off")
    )
    session.run()
    rng = random.Random(23)
    for _ in range(3):
        apply_random_mutation(graph, rng)
        assert_incremental_matches_full(session, graph, keys)


@pytest.mark.parametrize("backend", ["EMOptMR", "EMOptVC"])
def test_incremental_equals_full_on_process_pool(backend):
    dataset = fuzz_dataset(5)
    graph, keys = dataset.graph, dataset.keys
    session = (
        MatchSession(graph)
        .with_keys(keys)
        .using(backend, executor="process", workers=2, blocking="off")
    )
    session.run()
    rng = random.Random(5)
    apply_random_mutation(graph, rng)
    apply_random_mutation(graph, rng)
    assert_incremental_matches_full(session, graph, keys)


def test_incremental_identical_across_executors_after_delta():
    """One delta, every executor: all runs produce the same Eq."""
    dataset = fuzz_dataset(11)
    graph, keys = dataset.graph, dataset.keys
    sessions = {
        executor: MatchSession(graph).with_keys(keys).using(
            "EMOptMR", executor=executor, workers=2
        )
        for executor in ("serial", "thread", "process")
    }
    for session in sessions.values():
        session.run()
    rng = random.Random(11)
    apply_random_mutation(graph, rng)
    results = {name: session.rerun() for name, session in sessions.items()}
    reference = naive_chase(graph, keys)
    for name, result in results.items():
        assert result.eq.pairs() == reference, name


# --------------------------------------------------------------------------- #
# rebased artifacts must equal from-scratch builds, bit for bit
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", ["EMOptMR", "EMOptVC"])
@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=10, deadline=None)
def test_rebased_artifacts_equal_fresh_builds(backend, seed):
    """Candidate sets, restrictions and dependency maps survive rebasing.

    Pairing supports are a joint simulation, so a mutation on one side of a
    pair can drift the *other* (unaffected) side's reduced neighbourhood —
    this differential gates that whole bug class, not just the fixpoint.
    """
    from repro.matching.candidates import (
        build_candidates,
        build_filtered_candidates,
        dependency_map,
    )

    dataset = fuzz_dataset(seed)
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph).with_keys(keys).using(backend, blocking="off")
    session.run()
    rng = random.Random(seed + 999)
    for _ in range(2):
        apply_random_mutation(graph, rng)
        session.rerun()
        arts = session._artifacts
        snapshot = arts.snapshot()
        for flavor, cached in arts.cached("candidates").items():
            filtered, reduce_neighborhoods, blocked = flavor
            blocking = "auto" if blocked else "off"
            if filtered:
                fresh = build_filtered_candidates(
                    graph, keys,
                    reduce_neighborhoods=reduce_neighborhoods,
                    snapshot=snapshot,
                    blocking=blocking,
                )
                assert cached.pair_supports == fresh.pair_supports, flavor
                assert cached.rejected_pairs == fresh.rejected_pairs, flavor
            else:
                fresh = build_candidates(graph, keys, snapshot=snapshot, blocking=blocking)
            assert list(cached.pairs) == list(fresh.pairs), flavor
            for pair in cached.pairs:
                for entity in pair:
                    assert cached.neighborhoods.nodes(entity) == fresh.neighborhoods.nodes(entity), (
                        flavor, entity,
                    )
        for flavor, artifact in arts.cached("dependency_map").items():
            cached = arts.cached("candidates")[flavor]
            assert artifact.forward == dependency_map(keys, cached), flavor
        for flavor, product_graph in arts.cached("product_graph").items():
            cached = arts.cached("candidates")[flavor]
            from repro.matching.product_graph import ProductGraph

            fresh_pg = ProductGraph(snapshot, keys, cached)
            assert product_graph._nodes == fresh_pg._nodes, flavor
            assert product_graph._dependents == fresh_pg._dependents, flavor
