"""Tests of ``SessionArtifacts``: the slot rule, and the backends' one build path.

Every per-flavour artifact (candidates, dependency map, product graph)
follows one rule — fresh: return it; parked by a mutation: apply the
artifact's construction rule to it with the union of the affected sets;
missing: apply it to the empty artifact — and every parallel backend reads
its inputs through a cache, a throwaway one when it was given none.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro import MatchSession
from repro.api.registry import get_algorithm
from repro.core.graph import Graph
from repro.datasets.music import music_dataset
from repro.matching import (
    MapReduceEntityMatcher,
    OptimizedMapReduceEntityMatcher,
    OptimizedVertexCentricEntityMatcher,
    VertexCentricEntityMatcher,
    VF2MapReduceEntityMatcher,
)
from repro.matching import artifacts as artifacts_module
from repro.matching import incremental as incremental_module
from repro.matching import product_graph as product_graph_module
from repro.matching.artifacts import SessionArtifacts

from tests.matching.test_incremental_equivalence import apply_random_mutation, fuzz_dataset

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


def test_every_artifact_comes_out_of_its_one_apply(monkeypatch):
    """A build is the artifact's one construction rule applied to the empty
    artifact: over a session stream, the applies from empty are exactly the
    slot's builds and the carried applies its rebases, kind by kind, so an
    artifact made by a second construction path fails the counts."""
    applies = Counter()
    candidates_rule = incremental_module.rebase_filtered_candidates

    def candidates(old, *args, **kwargs):
        empty = not (old.pairs or old.rejected_pairs)
        applies["candidates", "build" if empty else "rebase"] += 1
        return candidates_rule(old, *args, **kwargs)

    dependency_rule = incremental_module.DependencyArtifact.rebased

    def dependency_map(old, *args):
        applies["dependency_map", "build" if old.candidates is None else "rebase"] += 1
        return dependency_rule(old, *args)

    product_graph_rule = product_graph_module.ProductGraph.rebased

    def product_graph(old, *args, **kwargs):
        empty = old is product_graph_module._EMPTY
        applies["product_graph", "build" if empty else "rebase"] += 1
        return product_graph_rule(old, *args, **kwargs)

    phases = Counter()
    timed = SessionArtifacts._timed

    def charged(artifacts, phase, build):
        phases[phase] += 1
        return timed(artifacts, phase, build)

    for module in (incremental_module, artifacts_module):
        monkeypatch.setattr(module, "rebase_filtered_candidates", candidates)
    monkeypatch.setattr(incremental_module.DependencyArtifact, "rebased", dependency_map)
    monkeypatch.setattr(product_graph_module.ProductGraph, "rebased", product_graph)
    monkeypatch.setattr(SessionArtifacts, "_timed", charged)

    dataset = fuzz_dataset(3)
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph).with_keys(keys)
    rng = random.Random(3)
    for window in range(4):
        for _ in range(window and 2):
            apply_random_mutation(graph, rng)
        for backend in ("EMOptVC", "EMOptMR"):
            session.run(backend, blocking="auto", incremental=window > 0)
    for kind in COUNTERS:
        for phase in ("build", "rebase"):
            assert applies[kind, phase] == phases[f"{kind}_{phase}"] > 0, (kind, phase)


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
    assert info.candidate_rebases == info.product_graph_rebases == 0


# --------------------------------------------------------------------------- #
# the snapshot refresh: patch, compact, and fail loudly
# --------------------------------------------------------------------------- #


def test_overlay_past_the_threshold_compacts_through_the_ordinary_build_path(small_synthetic):
    """Windows accumulate overlay rows; past the fraction the next snapshot
    is a canonical rebuild, and the overlay starts again from nothing."""
    graph, keys = small_synthetic.graph, small_synthetic.keys
    session = MatchSession(graph).with_keys(keys).using("EMOptVC", blocking="auto")
    session.run()
    artifacts = session._artifacts
    limit = SessionArtifacts.SNAPSHOT_PATCH_MAX_FRACTION
    entities = sorted(graph.entity_ids())
    rows = []
    for window, subject in enumerate(entities):
        graph.add_value(subject, "window_tag", f"value {window}")
        assert session.rerun().pairs() == session.run("chase").pairs()
        info = session.cache_info()
        assert info.snapshot_overlay_rows == artifacts.snapshot().overlay_rows
        assert info.snapshot_overlay_rows <= limit * artifacts.snapshot().num_nodes
        rows.append(info.snapshot_overlay_rows)
        if info.snapshot_compactions:
            break
    assert info.snapshot_compactions == 1 and info.snapshot_builds == 2
    assert info.snapshot_patches == len(rows) - 1
    assert rows[:-1] == sorted(rows[:-1]) and rows[-1] == 0  # grew, then compacted away


@pytest.mark.provokes_fallbacks
def test_a_window_that_does_not_cover_the_delta_is_counted_and_rebuilt(small_synthetic, monkeypatch):
    graph, keys = small_synthetic.graph, small_synthetic.keys
    session = MatchSession(graph).with_keys(keys).using("EMOptVC")
    session.run()
    subject = sorted(graph.entity_ids())[0]
    touched_since = Graph.touched_since
    # the journal "forgets" the literal the window added
    monkeypatch.setattr(
        Graph, "touched_since", lambda self, version: touched_since(self, version) & {subject}
    )
    graph.add_value(subject, "window_tag", "uncovered")
    assert session.rerun().pairs() == session.run("chase").pairs()
    info = session.cache_info()
    assert info.snapshot_patch_fallbacks == 1 and info.snapshot_patches == 0
    assert info.snapshot_builds == 2  # the documented failure is answered with a rebuild


def test_a_defect_in_the_patch_is_not_answered_with_a_rebuild(small_synthetic, monkeypatch):
    """Only ``SnapshotPatchError`` falls back; anything else is a bug and must
    surface, not turn into a correct, slow, silent rebuild."""
    from repro.storage import GraphSnapshot

    graph, keys = small_synthetic.graph, small_synthetic.keys
    session = MatchSession(graph).with_keys(keys).using("EMOptVC")
    session.run()

    def defective(self, graph, touched):
        raise ZeroDivisionError("a defect in the overlay code")

    monkeypatch.setattr(GraphSnapshot, "patched", defective)
    graph.add_value(sorted(graph.entity_ids())[0], "window_tag", "x")
    with pytest.raises(ZeroDivisionError):
        session.rerun()


@pytest.mark.provokes_fallbacks
def test_a_failed_store_write_through_is_counted_and_the_run_goes_on(small_synthetic, tmp_path):
    graph, keys = small_synthetic.graph, small_synthetic.keys
    session = MatchSession(graph, snapshot_store=tmp_path / "store").with_keys(keys)
    session.run("EMOptVC")
    (tmp_path / "store").rename(tmp_path / "moved")
    (tmp_path / "store").write_text("a file where the store directory was")
    graph.add_value(sorted(graph.entity_ids())[0], "window_tag", "x")
    assert session.rerun().pairs() == session.run("chase").pairs()
    info = session.cache_info()
    assert info.store_write_failures == 1 and info.snapshot_patches == 1
    assert info.snapshot_patch_fallbacks == 0
