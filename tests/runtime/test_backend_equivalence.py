"""Executor equivalence: every backend, same results on every executor.

The acceptance bar of the runtime layer: for each registered backend, the
serial, thread and process executors must produce *bit-identical* results —
same identified pairs, same statistics, same simulated seconds — because the
partitioned schedules are pure functions of the configuration, never of where
the tasks physically ran.

The answer is checked against ``tests/naive_semantics.naive_chase``, Section 2
read literally with no code shared with ``src/``.  It is brute force over
valuations, so the dataset stays at 88 entities and the oracle runs once per
module.
"""

from __future__ import annotations

import pytest

from repro.api.registry import ALGORITHMS, get_algorithm
from repro.api.session import MatchSession
from repro.datasets.synthetic import synthetic_dataset
from repro.exceptions import ConfigError
from tests.naive_semantics import naive_chase

EXECUTOR_KINDS = ("serial", "thread", "process")


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset(
        num_keys=8, chain_length=2, radius=2, entities_per_type=5, scale=1.0, seed=7
    )


@pytest.fixture(scope="module")
def naive_pairs(dataset):
    pairs = naive_chase(dataset.graph, dataset.keys)
    assert pairs  # the seeded dataset must contain duplicates to find
    return pairs


@pytest.fixture(scope="module")
def executor_backends():
    return [
        name for name in ALGORITHMS if "executors" in get_algorithm(name).capabilities
    ]


def test_all_six_backends_are_registered(executor_backends):
    assert set(ALGORITHMS) == {"chase", "EMMR", "EMVF2MR", "EMOptMR", "EMVC", "EMOptVC"}
    assert executor_backends == ["EMMR", "EMVF2MR", "EMOptMR", "EMVC", "EMOptVC"]


def test_all_backends_agree_on_pairs_across_executors(
    dataset, executor_backends, naive_pairs
):
    """All six backends, serial/thread/process: the naive fixpoint."""
    session = MatchSession(dataset.graph).with_keys(dataset.keys)
    assert session.run("chase").pairs() == naive_pairs
    for name in executor_backends:
        for kind in EXECUTOR_KINDS:
            result = session.run(name, processors=4, executor=kind, workers=2)
            assert result.pairs() == naive_pairs, (name, kind)


def test_snapshot_path_is_bit_identical_to_the_dict_path_chase(
    dataset, executor_backends, naive_pairs
):
    """The compiled-snapshot read layer must not change chase(G, Σ).

    Session runs share one GraphSnapshot (built once); the dict-path chase —
    run on the bare graph, no session, no snapshot — is what every backend
    and every executor must reproduce exactly, and it is itself held to the
    naive fixpoint.
    """
    from repro.core.chase import chase

    dict_path = chase(dataset.graph, dataset.keys).pairs()
    assert dict_path == naive_pairs
    session = MatchSession(dataset.graph).with_keys(dataset.keys)
    for name in ["chase"] + list(executor_backends):
        assert session.run(name).pairs() == dict_path, name
    for name in executor_backends:
        assert (
            session.run(name, executor="process", workers=2).pairs() == dict_path
        ), name
    assert session.cache_info().snapshot_builds == 1


@pytest.mark.parametrize("algorithm", ["EMMR", "EMVF2MR", "EMOptMR", "EMVC", "EMOptVC"])
def test_executor_results_are_bit_identical(dataset, algorithm):
    """Same stats, same simulated seconds, same pairs for every executor."""
    session = MatchSession(dataset.graph).with_keys(dataset.keys)
    reference = None
    for kind in EXECUTOR_KINDS:
        result = session.run(algorithm, processors=4, executor=kind, workers=2)
        if reference is None:
            reference = result
            continue
        assert result.pairs() == reference.pairs(), kind
        assert result.stats.as_dict() == reference.stats.as_dict(), kind
        assert result.simulated_seconds == pytest.approx(
            reference.simulated_seconds, abs=1e-12
        ), kind
        assert result.cost_breakdown == pytest.approx(reference.cost_breakdown), kind


@pytest.mark.parametrize("algorithm", ["EMOptMR", "EMOptVC"])
def test_partitioned_runs_match_classic_path(dataset, algorithm):
    """The executor path must find exactly what the classic path finds."""
    session = MatchSession(dataset.graph).with_keys(dataset.keys)
    classic = session.run(algorithm, processors=4)
    partitioned = session.run(algorithm, processors=4, executor="serial", workers=3)
    assert partitioned.pairs() == classic.pairs()


@pytest.mark.parametrize("strategy", ["hash", "chunk", "fragment"])
def test_vertex_partitioner_strategies_preserve_results(dataset, strategy):
    session = MatchSession(dataset.graph).with_keys(dataset.keys)
    classic = session.run("EMOptVC", processors=4)
    result = session.run(
        "EMOptVC", processors=4, executor="serial", workers=3, partitioner=strategy
    )
    assert result.pairs() == classic.pairs()


def test_wall_seconds_are_measured(dataset):
    session = MatchSession(dataset.graph).with_keys(dataset.keys)
    result = session.run("EMOptMR", processors=4, executor="serial")
    assert result.wall_seconds > 0
    assert result.summary()["wall_seconds"] == pytest.approx(result.wall_seconds, abs=1e-3)


def test_chase_rejects_executor_requests(dataset):
    session = MatchSession(dataset.graph).with_keys(dataset.keys)
    with pytest.raises(ConfigError, match="does not support executor"):
        session.run("chase", executor="process")


def test_using_applies_the_same_executor_gate_as_run(dataset):
    """using('chase').run() must behave like run('chase') on an executor session."""
    session = MatchSession(dataset.graph).with_keys(dataset.keys)
    session.using("EMOptMR", executor="serial", workers=2)
    direct = session.run("chase")
    via_using = session.using("chase").run()
    assert via_using.pairs() == direct.pairs()
    assert session.config.executor is None


def test_run_all_with_executor_skips_unsupporting_backends(dataset):
    """run_all on an executor session runs chase classically, not erroring."""
    session = MatchSession(dataset.graph).with_keys(dataset.keys)
    results = session.run_all(["chase", "EMOptMR"], executor="serial", workers=2)
    assert results["chase"].pairs() == results["EMOptMR"].pairs()
