"""Tests of ``SessionArtifacts``: the slot rule, and the backends' one build path.

Every per-flavour artifact (candidates, dependency map, product graph)
follows one rule — fresh: return it; parked by a mutation: rebase with the
union of the affected sets; missing: build — and every parallel backend
reads its inputs through a cache, a throwaway one when it was given none.
"""

from __future__ import annotations

import pytest

from repro import MatchSession
from repro.api.registry import get_algorithm
from repro.datasets.music import music_dataset
from repro.matching import (
    MapReduceEntityMatcher,
    OptimizedMapReduceEntityMatcher,
    OptimizedVertexCentricEntityMatcher,
    VertexCentricEntityMatcher,
    VF2MapReduceEntityMatcher,
)
from repro.matching.artifacts import SessionArtifacts

FLAVOUR = dict(filtered=True, reduce_neighborhoods=False, blocking="off")

#: kind → the (build, rebase) counters the slot rule bumps for it
COUNTERS = {
    "candidates": ("candidate_builds", "candidate_rebases"),
    "dependency_map": (None, None),
    "product_graph": ("product_graph_builds", "product_graph_rebases"),
}


def content(kind, artifact):
    """The comparable content of one artifact, by kind."""
    if kind == "candidates":
        return (list(artifact.pairs), artifact.pair_supports, artifact.rejected_pairs)
    if kind == "dependency_map":
        return artifact
    return (
        set(artifact.nodes()),
        {pair: artifact.dependents_of(pair) for pair in artifact.candidate_nodes()},
    )


@pytest.mark.parametrize("kind", sorted(COUNTERS))
def test_slot_rule_builds_then_returns_then_rebases(kind):
    graph, keys = music_dataset()
    artifacts = SessionArtifacts(graph, keys)
    access = getattr(artifacts, kind)
    builds, rebases = COUNTERS[kind]

    def counted(info):
        return tuple(0 if name is None else getattr(info, name) for name in (builds, rebases))

    # missing → build, charged to "{kind}_build" and the build counter
    built = access(**FLAVOUR)
    info, timings = artifacts.cache_info(), dict(artifacts.timings)
    assert f"{kind}_build" in timings and f"{kind}_rebase" not in timings
    assert counted(info) == ((0, 0) if builds is None else (1, 0))

    # fresh → the same object; no counter and no phase moves
    assert access(**FLAVOUR) is built
    assert artifacts.cache_info() == info
    assert artifacts.timings == timings

    # two deltas with no access in between: the slot stays parked, and its
    # affected set must be the union of both windows.  The first delta
    # breaks the (art1, art2) pairing; the second touches only alb3, whose
    # window alone would leave that pair's cached verdict in place.
    graph.set_value("art2", "name_of", "The Rutles")
    artifacts.refresh()
    graph.add_value("alb3", "label", "Apple")
    artifacts.refresh()
    assert artifacts.cached(kind) == {}

    rebased = access(**FLAVOUR)
    assert rebased is not built
    assert list(artifacts.cached(kind)) == [(True, False, False)]
    assert f"{kind}_rebase" in artifacts.timings
    assert artifacts.timings[f"{kind}_build"] == timings[f"{kind}_build"]
    assert counted(artifacts.cache_info()) == ((0, 0) if builds is None else (1, 1))
    fresh = getattr(SessionArtifacts(graph, keys), kind)(**FLAVOUR)
    assert content(kind, rebased) == content(kind, fresh)
    assert content(kind, rebased) != content(kind, built)


MATCHERS = {
    "EMMR": MapReduceEntityMatcher,
    "EMVF2MR": VF2MapReduceEntityMatcher,
    "EMOptMR": OptimizedMapReduceEntityMatcher,
    "EMVC": VertexCentricEntityMatcher,
    "EMOptVC": OptimizedVertexCentricEntityMatcher,
}


@pytest.mark.parametrize("blocking", ["off", "auto"])
@pytest.mark.parametrize("name", sorted(MATCHERS))
def test_backend_without_a_session_reads_through_a_throwaway_cache(
    name, blocking, small_synthetic
):
    graph, keys = small_synthetic.graph, small_synthetic.keys
    via_session = MatchSession(graph).with_keys(keys).run(name, blocking=blocking)

    via_registry = get_algorithm(name).run(graph, keys, blocking=blocking)
    assert via_registry.pairs() == via_session.pairs()
    assert via_registry.stats == via_session.stats

    matcher = MATCHERS[name](graph, keys, blocking=blocking)
    direct = matcher.run()
    assert direct.pairs() == via_session.pairs()
    assert direct.stats == via_session.stats
    info = matcher.artifacts.cache_info()
    vertex_centric = name in ("EMVC", "EMOptVC")
    assert info.snapshot_builds == 1
    assert info.neighborhood_index_builds == 1
    assert info.candidate_builds == 1
    assert info.blocking_index_builds == (1 if blocking == "auto" else 0)
    assert info.product_graph_builds == (1 if vertex_centric else 0)
    assert info.traversal_order_builds == (1 if vertex_centric else 0)
    assert info.candidate_rebases == info.product_graph_rebases == 0
