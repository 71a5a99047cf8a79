"""Property suite for the blocking layer: no false negatives, ever.

Three guarantees, each fuzzed over the synthetic dataset generator:

1. **Completeness** — blocked candidate enumeration is a subset of the
   quadratic enumeration that still contains every pair the unblocked chase
   directly identifies (so no key firing is ever lost).
2. **Identity** — the final ``Eq`` is bit-identical with blocking off, auto
   and force, for all six backends and under real executor pools.
3. **Incremental identity** — a session running blocked *and* incremental
   stays bit-identical to a from-scratch full run after arbitrary journalled
   mutation sequences (the PR-5 differential harness, with blocking on).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ALGORITHMS, MatchSession
from repro.core.chase import candidate_pairs, chase
from repro.datasets.synthetic import synthetic_dataset
from repro.matching.blocking import (
    _entity_signatures,
    _path_signatures,
    blocked_candidate_pairs,
    compile_blocking_scheme,
)
from repro.storage import GraphSnapshot

from tests.matching.test_incremental_equivalence import apply_random_mutation
from tests.naive_semantics import naive_chase, reference_signature
from tests.properties.test_pairing_properties import SHAPED_KEYS, random_graph, random_key

BACKENDS = tuple(ALGORITHMS)


def fuzz_dataset(seed: int):
    return synthetic_dataset(
        num_keys=4, chain_length=2, radius=2, entities_per_type=3, seed=seed % 40
    )


# --------------------------------------------------------------------------- #
# 1. completeness: blocked ⊆ quadratic, ⊇ directly-identified
# --------------------------------------------------------------------------- #


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=15, deadline=None)
def test_blocked_candidates_bracket_the_chase(seed):
    dataset = fuzz_dataset(seed)
    graph, keys = dataset.graph, dataset.keys
    quadratic = candidate_pairs(graph, keys)
    blocked, stats, _ = blocked_candidate_pairs(graph, keys, mode="auto")
    assert set(blocked) <= set(quadratic)
    assert stats.enumerated_pairs == len(blocked)
    assert stats.quadratic_pairs == len(quadratic)
    outcome = chase(graph, keys)
    fired = {step.pair for step in outcome.steps}
    assert fired <= set(blocked)


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=15, deadline=None)
def test_blocked_output_is_an_ordered_subsequence(seed):
    dataset = fuzz_dataset(seed)
    graph, keys = dataset.graph, dataset.keys
    quadratic = candidate_pairs(graph, keys)
    blocked, _, _ = blocked_candidate_pairs(graph, keys, mode="auto")
    positions = {pair: index for index, pair in enumerate(quadratic)}
    indexes = [positions[pair] for pair in blocked]
    assert indexes == sorted(indexes)


# --------------------------------------------------------------------------- #
# 2. identity: the fixpoint never changes, any backend, any executor
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=6, deadline=None)
def test_eq_identical_with_blocking_on_and_off(backend, seed):
    dataset = fuzz_dataset(seed)
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph).with_keys(keys)
    reference = session.run(backend, blocking="off").pairs()
    assert session.run(backend, blocking="auto").pairs() == reference


@pytest.mark.parametrize("backend", [name for name in BACKENDS if name != "chase"])
@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_eq_identical_under_executor_pools(backend, executor):
    dataset = fuzz_dataset(23)
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph).with_keys(keys)
    reference = session.run(backend, executor=executor, workers=2, blocking="off").pairs()
    blocked = session.run(backend, executor=executor, workers=2, blocking="auto")
    assert blocked.pairs() == reference


@pytest.mark.parametrize("backend", ["EMOptMR", "EMOptVC"])
def test_eq_identical_on_process_pools(backend):
    dataset = fuzz_dataset(7)
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph).with_keys(keys)
    reference = session.run(
        backend, executor="process", workers=2, blocking="off"
    ).pairs()
    blocked = session.run(backend, executor="process", workers=2, blocking="auto")
    assert blocked.pairs() == reference


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=8, deadline=None)
def test_force_equals_auto_whenever_force_is_accepted(seed):
    from repro.exceptions import ConfigError

    dataset = fuzz_dataset(seed)
    graph, keys = dataset.graph, dataset.keys
    auto_pairs, _, _ = blocked_candidate_pairs(graph, keys, mode="auto")
    try:
        force_pairs, _, _ = blocked_candidate_pairs(graph, keys, mode="force")
    except ConfigError:
        return  # an uncertified key shape: refusal is the contract
    assert force_pairs == auto_pairs


# --------------------------------------------------------------------------- #
# 2b. one bucket-wide pass per hop == one walk per entity
# --------------------------------------------------------------------------- #


@given(seed=st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=60, deadline=None)
def test_bucket_signatures_equal_per_entity_walks(seed):
    """Multi-hop, backward-hop, through-a-value and constant paths alike."""
    rng = random.Random(seed)
    graph = random_graph(rng)
    snapshot = GraphSnapshot.build(graph)
    for key in [random_key(rng), *SHAPED_KEYS.values()]:
        scheme = compile_blocking_scheme(key)
        for path in scheme.paths:
            # both index sides hold literal ids: decode them to compare
            # against the object-space walk
            bucket = {
                entity: frozenset(map(snapshot.node_at, tokens))
                for entity, tokens in _path_signatures(
                    snapshot, scheme.target_type, path
                ).items()
            }
            for walk in (
                lambda entity: frozenset(
                    map(
                        snapshot.node_at,
                        _entity_signatures(snapshot, [entity], path).get(entity, ()),
                    )
                ),
                lambda entity: reference_signature(graph, entity, path),
            ):
                walked = {
                    entity: walk(entity)
                    for entity in graph.entities_of_type(scheme.target_type)
                }
                assert bucket == {e: tokens for e, tokens in walked.items() if tokens}


# --------------------------------------------------------------------------- #
# 3. incremental identity: blocked + incremental == full, under mutation fuzz
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    rounds=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=2),
)
@settings(max_examples=8, deadline=None)
# regression: a new entity's pair must enter the blocked universe even when
# its partner's signature went stale without a cached neighbourhood (the
# blocking-index rebase now sweeps the touched radius ball, not just the
# cached-entry stale set)
@example(seed=5452, rounds=[1, 2])
def test_blocked_incremental_equals_full_under_random_mutations(backend, seed, rounds):
    dataset = fuzz_dataset(seed)
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph).with_keys(keys).using(backend, blocking="auto")
    session.run()
    rng = random.Random(seed)
    for count in rounds:
        for _ in range(count):
            apply_random_mutation(graph, rng)
        incremental = session.rerun()
        assert incremental.eq.pairs() == naive_chase(graph, keys), session.last_delta()
