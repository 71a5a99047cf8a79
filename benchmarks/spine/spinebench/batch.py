"""``batch_cold`` and ``batch_warm_backends``: the library user's workloads.

No service, no WAL, no store: a graph, a key set and ``MatchSession``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Set

from repro.api.session import MatchSession
from repro.core.chase import chase
from repro.matching.blocking import BlockingIndex, blocked_candidate_pairs
from repro.matching.candidates import build_filtered_candidates
from repro.storage import GraphSnapshot, SnapshotNeighborhoodIndex
from repro.storage.store import SnapshotStore

from . import gen
from .harness import Params, finish, mark_rss, repeated_setup, turns
from .schema import Outcome
from .stats import Estimate, median
from .trace import Tracer

#: fewest timed iterations / sweeps, whatever ``--seconds`` says
MIN_ITERATIONS = 2
#: ``peak_rss_mb`` is the peak after this many iterations / sweeps
RSS_AFTER = 10


@dataclass
class BatchState:
    graph: object
    keys: object
    #: pairs of the sequential chase: what every run must return
    reference: Set
    session: object = None


def _rate(times: List[Estimate]) -> Estimate:
    """Operations per second of one round of operations taking *times*."""
    return Estimate(
        len(times) / (sum(t.value for t in times) / 1000.0), min(t.n for t in times)
    )


def _fresh_run(state: BatchState, algorithm: str):
    session = MatchSession(state.graph).with_keys(state.keys).using(
        algorithm, blocking="auto"
    )
    return session, session.run()


# --------------------------------------------------------------------------- #
# batch_cold
# --------------------------------------------------------------------------- #


def _cold_setup(params: Params) -> BatchState:
    dataset = gen.cold_dataset(params.seed, params.smoke)
    graph, keys = dataset.graph, dataset.keys
    state = BatchState(graph, keys, chase(graph, keys, blocking="auto").pairs())
    # warm-up: imports, allocator and code caches; never the artifacts
    # (every timed iteration builds its own)
    for algorithm in ("EMOptMR", "chase"):
        _fresh_run(state, algorithm)
    return state


#: the artifact builds a cold run pays for, one after the other
#: (``matching.blocking.collision`` happens inside ``candidates.build``)
_BUILDS = (
    "storage.snapshot.build", "storage.neighborhoods.index_build",
    "matching.blocking.index_build", "matching.candidates.build",
)
#: the cold iteration's own operations
_COLD_OPS = ("match", "rematch", "chase", "dependency_map")

Series = Dict[str, List[float]]


def _probe_build_layers(state: BatchState, tracer: Tracer, params: Params, series: Series) -> None:
    """Call each artifact-build layer directly, on this workload's graph."""
    graph, keys = state.graph, state.keys

    def timed(span: str, call):
        result, ms = params.stopwatch.timed_ms(tracer, span, call)
        series[span].append(ms)
        return result

    snapshot = timed("storage.snapshot.build", lambda: GraphSnapshot.build(graph))
    neighborhoods = timed(
        "storage.neighborhoods.index_build", lambda: SnapshotNeighborhoodIndex(snapshot, keys)
    )
    blocking = timed(
        "matching.blocking.index_build",
        lambda: BlockingIndex.build(graph, keys, snapshot=snapshot),
    )
    _, blocking_stats, _ = timed(
        "matching.blocking.collision",
        lambda: blocked_candidate_pairs(
            graph, keys, mode="auto", snapshot=snapshot, index=blocking
        ),
    )
    candidates = timed(
        "matching.candidates.build",
        lambda: build_filtered_candidates(
            graph, keys, index=neighborhoods, snapshot=snapshot,
            blocking="auto", blocking_index=blocking,
        ),
    )
    if "storage.snapshot.bytes" not in tracer.counts:  # the same on every iteration
        # serialized size stands in for "sum of array buffers": the arrays
        # themselves are private to the snapshot
        path = SnapshotStore(params.workdir / "cold_store").save(snapshot, graph=graph)
        tracer.count("storage.snapshot.bytes", path.stat().st_size)
        tracer.count(
            "matching.blocking.pairs_kept_ratio",
            blocking_stats.enumerated_pairs / max(1, blocking_stats.quadratic_pairs),
        )
        tracer.count("matching.candidates.pairs", candidates.size)
        tracer.count(
            "matching.candidates.filter_keep_ratio",
            candidates.size / max(1, candidates.unfiltered_size),
        )


def _cold_iteration(state: BatchState, tracer: Tracer, params: Params, outcome: Outcome,
                    series: Series) -> None:
    timed_ms = params.stopwatch.timed_ms
    (session, result), elapsed = timed_ms(
        tracer, "api.session.run", lambda: _fresh_run(state, "EMOptMR")
    )
    series["match"].append(elapsed)
    outcome.check(result.eq.pairs() == state.reference, "cold EMOptMR != chase")
    series["dependency_map"].append(  # the program's own clock, same repeat
        1000.0 * session.phase_timings().get("dependency_map_build", 0.0)
        / params.stopwatch.slowdowns[-1]
    )

    again, solve = timed_ms(tracer, "mapreduce.EMOptMR.resolve", session.run)
    series["rematch"].append(solve)
    outcome.check(again.eq.pairs() == state.reference, "rematch != chase")

    # a one-shot user holds one session at a time
    del session, result, again
    (_, sequential), sequential_ms = timed_ms(
        tracer, "core.chase.cold_run", lambda: _fresh_run(state, "chase")
    )
    series["chase"].append(sequential_ms)
    outcome.check(sequential.eq.pairs() == state.reference, "cold chase != chase")


def _cold_loop(state: BatchState, params: Params, tracer: Tracer, outcome: Outcome) -> List[Series]:
    """Cold matches until the time is up: per turn (``harness.turns``)
    and operation, its samples."""
    tracers = turns(tracer)
    series: List[Series] = [
        {name: [] for name in _COLD_OPS + _BUILDS + ("matching.blocking.collision",)}
        for _ in tracers
    ]
    deadline = time.perf_counter() + params.seconds
    iteration = 0
    while iteration < MIN_ITERATIONS * len(tracers) or time.perf_counter() < deadline:
        turn = iteration % len(tracers)
        with tracers[turn].span("iteration", iteration=iteration):
            _cold_iteration(state, tracers[turn], params, outcome, series[turn])
            if tracers[turn].enabled:
                _probe_build_layers(state, tracer, params, series[turn])
        iteration += 1
        mark_rss(outcome, iteration, RSS_AFTER)
    return series


def run_cold(params: Params, tracer: Tracer) -> Outcome:
    outcome = Outcome("batch_cold")
    state, setup_s = repeated_setup(params, lambda _: _cold_setup(params), lambda _: None)
    series = _cold_loop(state, params, tracer, outcome)
    plain, traced = series[0], series[-1]
    if tracer.enabled:
        layer = outcome.per_layer
        for name in _BUILDS + ("matching.blocking.collision",):
            layer[f"{name}_ms"] = median(traced[name]).value
        for name in (
            "storage.snapshot.bytes", "matching.blocking.pairs_kept_ratio",
            "matching.candidates.pairs", "matching.candidates.filter_keep_ratio",
        ):
            layer[name] = tracer.counts[name][0]
        layer["matching.incremental.dependency_map_ms"] = median(traced["dependency_map"]).value
        layer["api.session.self_ms"] = (
            median(traced["match"]).value
            - sum(layer[f"{name}_ms"] for name in _BUILDS)
            - layer["matching.incremental.dependency_map_ms"]
            - median(traced["rematch"]).value
        )
        layer["trace.overhead_ratio"] = (
            median(traced["match"]).value / median(plain["match"]).value
        )
    times = [median(plain[name]) for name in ("match", "chase", "rematch")]
    outcome.end_to_end.update(zip(("primary_ms", "secondary_ms", "tertiary_ms"), times))
    outcome.end_to_end["throughput_per_s"] = _rate(times)
    return finish(outcome, setup_s)


# --------------------------------------------------------------------------- #
# batch_warm_backends
# --------------------------------------------------------------------------- #

_SOLVE_SPAN = {
    "chase": "core.chase.solve",
    "EMMR": "mapreduce.EMMR.solve",
    "EMOptMR": "mapreduce.EMOptMR.solve",
    "EMVF2MR": "mapreduce.EMVF2MR.solve",
    "EMVC": "vertexcentric.EMVC.solve",
    "EMOptVC": "vertexcentric.EMOptVC.solve",
}


def _warm_setup(params: Params) -> BatchState:
    dataset = gen.warm_dataset(params.seed, params.smoke)
    graph, keys = dataset.graph, dataset.keys
    state = BatchState(graph, keys, chase(graph, keys, blocking="auto").pairs())
    state.session = MatchSession(graph).with_keys(keys).using("EMOptMR", blocking="auto")
    for algorithm in gen.BACKENDS:  # builds every artifact any backend needs
        state.session.run(algorithm)
    return state


def _warm_loop(state: BatchState, params: Params, tracer: Tracer, outcome: Outcome):
    """Sweeps over the backends until the time is up: per turn
    (``harness.turns``) and backend its samples, and each backend's last
    result."""
    tracers = turns(tracer)
    series: List[Series] = [{algorithm: [] for algorithm in gen.BACKENDS} for _ in tracers]
    last: Dict[str, object] = {}
    deadline = time.perf_counter() + params.seconds
    sweep = 0
    while sweep < MIN_ITERATIONS * len(tracers) or time.perf_counter() < deadline:
        turn = sweep % len(tracers)
        with tracers[turn].span("sweep", iteration=sweep):
            for algorithm in gen.BACKENDS:
                result, elapsed = params.stopwatch.timed_ms(
                    tracers[turn], _SOLVE_SPAN[algorithm],
                    lambda: state.session.run(algorithm),
                )
                series[turn][algorithm].append(elapsed)
                outcome.check(
                    result.eq.pairs() == state.reference, f"warm {algorithm} != chase"
                )
                last[algorithm] = result
        sweep += 1
        mark_rss(outcome, sweep, RSS_AFTER)
    return series, last


def run_warm(params: Params, tracer: Tracer) -> Outcome:
    outcome = Outcome("batch_warm_backends")
    state, setup_s = repeated_setup(params, lambda _: _warm_setup(params), lambda _: None)
    series, last = _warm_loop(state, params, tracer, outcome)
    plain, traced = series[0], series[-1]
    if tracer.enabled:
        layer = outcome.per_layer
        for algorithm, span in _SOLVE_SPAN.items():
            layer[f"{span}_ms"] = median(traced[algorithm]).value
        layer["core.chase.checks"] = last["chase"].stats.checks
        layer["mapreduce.rounds"] = sum(last[a].stats.rounds for a in gen.MR_BACKENDS)
        layer["mapreduce.shuffled_records"] = sum(
            last[a].stats.shuffled_records for a in gen.MR_BACKENDS
        )
        sent = sum(last[a].stats.messages_sent for a in gen.VC_BACKENDS)
        layer["vertexcentric.messages_sent"] = sent
        layer["vertexcentric.processed_ratio"] = (
            sum(last[a].stats.messages_processed for a in gen.VC_BACKENDS) / max(1, sent)
        )
        layer["matching.product_graph.build_ms"] = 1000.0 * state.session.phase_timings().get(
            "product_graph_build", 0.0
        )
        layer["matching.product_graph.nodes"] = last["EMOptVC"].stats.product_graph_nodes
        layer["trace.overhead_ratio"] = (
            layer["core.chase.solve_ms"] / median(plain["chase"]).value
        )
    times = {algorithm: median(one) for algorithm, one in plain.items()}
    outcome.end_to_end["primary_ms"] = times["chase"]
    for slot, family in (("secondary_ms", gen.MR_BACKENDS), ("tertiary_ms", gen.VC_BACKENDS)):
        outcome.end_to_end[slot] = Estimate(
            sum(times[a].value for a in family), min(times[a].n for a in family)
        )
    outcome.end_to_end["throughput_per_s"] = _rate(list(times.values()))
    return finish(outcome, setup_s)
