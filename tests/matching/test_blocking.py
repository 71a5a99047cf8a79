"""Unit tests for the signature blocking layer (sub-quadratic candidates).

Covers scheme compilation per key shape, certification and the force-mode
refusal, the subsequence/superset relationship between blocked and quadratic
candidate enumeration, incremental index rebasing, the snapshot value index
(``vindex``) that backs integer-space signature compilation, and the session
plumbing (flavor caching, counters, phase timers).
"""

from __future__ import annotations

import itertools

import pytest

from repro import MatchSession
from repro.core.chase import candidate_pairs, chase
from repro.core.graph import Graph
from repro.core.key import Key, KeySet
from repro.core.parser import parse_keys
from repro.core.pattern import (
    GraphPattern,
    PatternTriple,
    constant,
    designated,
    entity_var,
    value_var,
)
from repro.core.triples import Literal
from repro.exceptions import ConfigError
from repro.matching.blocking import (
    BLOCKING_MODES,
    BlockingIndex,
    blocked_candidate_pairs,
    compile_blocking_scheme,
    compile_blocking_schemes,
    validate_blocking_mode,
)
from repro.matching.artifacts import SessionArtifacts
from repro.storage import GraphSnapshot

from tests.naive_semantics import reference_fixpoint


# --------------------------------------------------------------------------- #
# fixtures: key shapes and matching graphs
# --------------------------------------------------------------------------- #


def flat_key() -> KeySet:
    """value-set shape: person identified by its name literal."""
    x = designated("x", "person")
    v = value_var("v")
    return KeySet([Key(GraphPattern([PatternTriple(x, "name", v)], name="Q"), name="pname")])


def recursive_key() -> KeySet:
    """neighbourhood-value shape: book identified via its author's name."""
    x = designated("x", "book")
    a = entity_var("a", "author")
    v = value_var("v")
    pattern = GraphPattern(
        [PatternTriple(x, "written_by", a), PatternTriple(a, "name", v)], name="Q"
    )
    return KeySet([Key(pattern, name="kbook")])


def constant_key() -> KeySet:
    """constant shape: only 'active' people with equal names are candidates."""
    x = designated("x", "person")
    v = value_var("v")
    c = constant("active", name="c")
    pattern = GraphPattern(
        [PatternTriple(x, "name", v), PatternTriple(x, "status", c)], name="Q"
    )
    return KeySet([Key(pattern, name="pactive")])


def uncertified_key() -> KeySet:
    """no value position at all: the scheme cannot be certified sound."""
    x = designated("x", "person")
    y = entity_var("y", "person")
    return KeySet(
        [Key(GraphPattern([PatternTriple(x, "friend", y)], name="Q"), name="pfriend")]
    )


def flat_graph(n: int = 9, collide: int = 3) -> Graph:
    graph = Graph()
    for i in range(n):
        graph.add_entity(f"p{i}", "person")
        graph.add_value(f"p{i}", "name", f"n{i % collide}")
        graph.add_value(f"p{i}", "status", "active" if i % 2 == 0 else "retired")
    return graph


def book_graph() -> Graph:
    graph = Graph()
    for i in range(6):
        graph.add_entity(f"b{i}", "book")
        graph.add_entity(f"a{i}", "author")
        graph.add_edge(f"b{i}", "written_by", f"a{i}")
        graph.add_value(f"a{i}", "name", f"auth{i % 2}")
    return graph


# --------------------------------------------------------------------------- #
# scheme compilation
# --------------------------------------------------------------------------- #


class TestSchemeCompilation:
    def test_flat_key_compiles_one_single_hop_path(self):
        scheme = compile_blocking_scheme(next(iter(flat_key())))
        assert scheme.certified
        assert scheme.target_type == "person"
        assert len(scheme.paths) == 1
        (path,) = scheme.paths
        assert len(path.steps) == 1
        assert path.steps[0].predicate == "name"
        assert path.steps[0].forward is True
        assert path.constant is None

    def test_recursive_key_compiles_a_two_hop_path(self):
        scheme = compile_blocking_scheme(next(iter(recursive_key())))
        assert scheme.certified
        (path,) = scheme.paths
        assert [s.predicate for s in path.steps] == ["written_by", "name"]
        assert path.steps[0].etype == "author"
        assert path.steps[1].etype is None  # literal endpoint

    def test_constant_node_becomes_a_filter_path(self):
        scheme = compile_blocking_scheme(next(iter(constant_key())))
        assert scheme.certified
        constants = [p.constant for p in scheme.paths if p.constant is not None]
        assert constants == [Literal("active")]

    def test_value_free_pattern_is_not_certified(self):
        scheme = compile_blocking_scheme(next(iter(uncertified_key())))
        assert not scheme.certified
        assert "value" in scheme.reason

    def test_schemes_follow_key_order(self):
        keys = KeySet(list(flat_key()) + list(recursive_key()))
        schemes = compile_blocking_schemes(keys)
        assert [s.key_name for s in schemes] == [k.name for k in keys]

    def test_validate_blocking_mode(self):
        for mode in BLOCKING_MODES:
            assert validate_blocking_mode(mode) == mode
        with pytest.raises(ConfigError):
            validate_blocking_mode("sometimes")


# --------------------------------------------------------------------------- #
# blocked enumeration vs. the quadratic baseline
# --------------------------------------------------------------------------- #


def assert_subsequence(blocked, quadratic):
    """blocked must be an order-preserving subsequence of the quadratic list."""
    iterator = iter(quadratic)
    for pair in blocked:
        for candidate in iterator:
            if candidate == pair:
                break
        else:
            pytest.fail(f"{pair} missing from (or out of order in) quadratic output")


class TestBlockedEnumeration:
    @pytest.mark.parametrize(
        "graph_factory, keys_factory",
        [(flat_graph, flat_key), (book_graph, recursive_key), (flat_graph, constant_key)],
    )
    def test_blocked_is_an_ordered_subset_of_quadratic(self, graph_factory, keys_factory):
        graph, keys = graph_factory(), keys_factory()
        quadratic = candidate_pairs(graph, keys)
        blocked, stats, _ = blocked_candidate_pairs(graph, keys, mode="auto")
        assert set(blocked) <= set(quadratic)
        assert_subsequence(blocked, quadratic)
        assert stats.enumerated_pairs == len(blocked)
        assert stats.quadratic_pairs == len(quadratic)
        assert stats.pairs_pruned == len(quadratic) - len(blocked)

    @pytest.mark.parametrize(
        "graph_factory, keys_factory",
        [(flat_graph, flat_key), (book_graph, recursive_key), (flat_graph, constant_key)],
    )
    def test_blocked_preserves_every_directly_identified_pair(
        self, graph_factory, keys_factory
    ):
        graph, keys = graph_factory(), keys_factory()
        outcome = chase(graph, keys)
        blocked, _, _ = blocked_candidate_pairs(graph, keys, mode="auto")
        fired = {step.pair for step in outcome.steps}
        assert fired <= set(blocked)
        # and therefore the fixpoint is unchanged
        assert chase(graph, keys, blocking="auto").pairs() == outcome.pairs()

    def test_blocking_actually_prunes(self):
        graph, keys = flat_graph(12, collide=4), flat_key()
        blocked, stats, _ = blocked_candidate_pairs(graph, keys, mode="auto")
        assert stats.pairs_pruned > 0
        assert len(blocked) < stats.quadratic_pairs
        assert stats.blocks_touched > 0
        assert stats.certified_types == 1
        assert stats.fallback_types == 0

    def test_snapshot_and_graph_paths_agree(self):
        graph, keys = book_graph(), recursive_key()
        snapshot = GraphSnapshot.build(graph)
        from_graph, _, _ = blocked_candidate_pairs(graph, keys, mode="auto")
        from_snapshot, _, _ = blocked_candidate_pairs(
            graph, keys, mode="auto", snapshot=snapshot
        )
        assert from_graph == from_snapshot

    def test_auto_falls_back_to_quadratic_for_uncertified_types(self):
        graph = flat_graph()
        for i in range(0, 8, 2):
            graph.add_edge(f"p{i}", "friend", f"p{i + 1}")
        keys = uncertified_key()
        blocked, stats, _ = blocked_candidate_pairs(graph, keys, mode="auto")
        assert stats.fallback_types == 1
        assert stats.certified_types == 0
        assert blocked == candidate_pairs(graph, keys)  # no pruning, no loss

    def test_force_refuses_uncertified_keys(self):
        graph, keys = flat_graph(), uncertified_key()
        with pytest.raises(ConfigError, match="pfriend"):
            blocked_candidate_pairs(graph, keys, mode="force")

    def test_force_equals_auto_when_certified(self):
        graph, keys = flat_graph(), flat_key()
        auto_pairs, _, _ = blocked_candidate_pairs(graph, keys, mode="auto")
        force_pairs, _, _ = blocked_candidate_pairs(graph, keys, mode="force")
        assert auto_pairs == force_pairs

    def test_mode_off_is_rejected_at_this_layer(self):
        graph, keys = flat_graph(), flat_key()
        with pytest.raises(ConfigError):
            blocked_candidate_pairs(graph, keys, mode="off")

    def test_index_reuse_skips_the_rebuild(self):
        graph, keys = flat_graph(), flat_key()
        pairs1, _, index = blocked_candidate_pairs(graph, keys, mode="auto")
        pairs2, _, index2 = blocked_candidate_pairs(graph, keys, mode="auto", index=index)
        assert pairs1 == pairs2
        assert index2 is index


# --------------------------------------------------------------------------- #
# incremental rebasing
# --------------------------------------------------------------------------- #


def _patched(snapshot: GraphSnapshot, graph: Graph, version: int) -> GraphSnapshot:
    """*snapshot* patched with the journal window since *version*: the next
    snapshot of its lineage, which is all an index may rebase onto."""
    return snapshot.patched(graph, graph.touched_since(version))


class TestRebasing:
    def test_rebased_index_equals_fresh_build(self):
        graph, keys = flat_graph(), flat_key()
        snapshot, version = GraphSnapshot.build(graph), graph.version
        index = BlockingIndex.build(graph, keys, snapshot=snapshot)
        graph.add_entity("p_new", "person")
        graph.add_value("p_new", "name", "n0")
        graph.set_value("p3", "name", "totally_fresh")
        rebased = index.rebased(
            _patched(snapshot, graph, version), affected_entities=("p_new", "p3")
        )
        fresh = BlockingIndex.build(graph, keys)
        assert rebased.candidate_pairs("auto")[0] == fresh.candidate_pairs("auto")[0]

    def test_rebase_drops_removed_entities(self):
        graph, keys = book_graph(), recursive_key()
        snapshot, version = GraphSnapshot.build(graph), graph.version
        index = BlockingIndex.build(graph, keys, snapshot=snapshot)
        for triple in graph.out_triples("b0").copy():
            graph.remove_triple(triple)
        rebased = index.rebased(
            _patched(snapshot, graph, version), affected_entities=("b0", "a0")
        )
        fresh = BlockingIndex.build(graph, keys)
        assert rebased.candidate_pairs("auto")[0] == fresh.candidate_pairs("auto")[0]

    def test_rebased_refuses_a_snapshot_of_another_lineage(self):
        """Tokens are literal ids, which a canonical rebuild reassigns."""
        graph, keys = flat_graph(), flat_key()
        index = BlockingIndex.build(graph, keys)
        graph.add_value("p3", "name", "totally_fresh")
        with pytest.raises(ValueError, match="lineage"):
            index.rebased(GraphSnapshot.build(graph), affected_entities=("p3",))

    def test_a_compacting_window_rebuilds_the_index_over_the_new_lineage(self, monkeypatch):
        """A compaction reassigns every literal id (a new entity sorts before
        them all), so the session's index after it must read the compacted
        snapshot's ids, exactly as a fresh build over it does.  The graph
        holds 10 entities, so the naive oracle costs microseconds."""
        monkeypatch.setattr(Graph, "SNAPSHOT_PATCH_MAX_FRACTION", 0.0)
        graph, keys = flat_graph(), flat_key()
        session = MatchSession(graph).with_keys(keys).using("EMOptMR", blocking="auto")
        session.run()
        graph.add_entity("p_new", "person")
        graph.add_value("p_new", "name", "n0")
        assert session.rerun().pairs() == reference_fixpoint(graph, keys)
        info = session.cache_info()
        assert info.snapshot_compactions == 1 and info.snapshot_patches == 0
        assert (info.blocking_index_builds, info.blocking_index_rebases) == (2, 0)
        artifacts = session._artifacts
        snapshot = artifacts.snapshot()
        assert snapshot.lineage is snapshot
        fresh = BlockingIndex.build(graph, keys, snapshot=snapshot)
        assert artifacts.blocking_index()._signatures == fresh._signatures


# --------------------------------------------------------------------------- #
# satellite: candidate_pairs determinism is insertion-order independent
# --------------------------------------------------------------------------- #


class TestCandidatePairOrder:
    def test_insertion_order_does_not_change_the_enumeration(self):
        keys = flat_key()
        forward, backward = Graph(), Graph()
        ids = [f"p{i}" for i in range(7)]
        for eid in ids:
            forward.add_entity(eid, "person")
            forward.add_value(eid, "name", "shared")
        for eid in reversed(ids):
            backward.add_entity(eid, "person")
            backward.add_value(eid, "name", "shared")
        assert candidate_pairs(forward, keys) == candidate_pairs(backward, keys)
        blocked_fwd, _, _ = blocked_candidate_pairs(forward, keys, mode="auto")
        blocked_bwd, _, _ = blocked_candidate_pairs(backward, keys, mode="auto")
        assert blocked_fwd == blocked_bwd

    def test_pairs_are_grouped_by_type_and_sorted_within_each_group(self):
        graph = flat_graph()
        for i in range(4):
            graph.add_entity(f"b{i}", "book")
            graph.add_value(f"b{i}", "name", "t")
        x = designated("x", "book")
        v = value_var("v")
        book_key = Key(GraphPattern([PatternTriple(x, "name", v)], name="Q"), name="kb")
        keys = KeySet(list(flat_key()) + [book_key])
        pairs = candidate_pairs(graph, keys)
        # each pair canonically ordered
        assert all(e1 < e2 for e1, e2 in pairs)
        # grouped by target type (visited in sorted order), sorted within
        groups = [list(group) for _, group in itertools.groupby(pairs, key=lambda p: p[0][0])]
        assert len(groups) == 2  # 'b*' block then 'p*' block
        for group in groups:
            assert group == sorted(group)


# --------------------------------------------------------------------------- #
# the snapshot value index backing integer-space signature compilation
# --------------------------------------------------------------------------- #


class TestValueIndex:
    def test_value_postings_match_a_brute_force_scan(self):
        graph = flat_graph()
        snapshot = GraphSnapshot.build(graph)
        for predicate in ("name", "status"):
            pred_id = snapshot.pred_id(predicate)
            postings = snapshot.value_postings(pred_id)
            assert postings is not None
            literal_ids, subject_ids = postings
            seen = {
                (snapshot.node_at(l), snapshot.node_at(s))
                for l, s in zip(literal_ids, subject_ids)
            }
            expected = {
                (triple.obj, triple.subject)
                for triple in graph.triples()
                if triple.predicate == predicate and triple.object_is_value()
            }
            assert seen == expected
            # sorted by (literal id, subject id): binary-searchable
            assert list(zip(literal_ids, subject_ids)) == sorted(
                zip(literal_ids, subject_ids)
            )

    def test_out_ids_and_in_ids_agree_with_neighbor_lists(self):
        graph = book_graph()
        snapshot = GraphSnapshot.build(graph)
        pred = snapshot.pred_id("written_by")
        for i in range(6):
            book = snapshot.id_of(f"b{i}")
            author = snapshot.id_of(f"a{i}")
            assert list(snapshot.out_ids(book, pred)) == [author]
            assert list(snapshot.in_ids(author, pred)) == [book]

    def test_legacy_snapshots_degrade_to_no_postings(self):
        graph = flat_graph()
        snapshot = GraphSnapshot.build(graph)
        state = snapshot.__getstate__()
        for name in ("_vindex_offsets", "_vindex_literals", "_vindex_subjects"):
            state.pop(name, None)
        legacy = GraphSnapshot.__new__(GraphSnapshot)
        legacy.__setstate__(state)
        assert legacy.value_postings(0) is None
        # the blocking layer still works (object-space fallback)
        pairs, _, _ = blocked_candidate_pairs(graph, flat_key(), mode="auto", snapshot=legacy)
        reference, _, _ = blocked_candidate_pairs(graph, flat_key(), mode="auto")
        assert pairs == reference


# --------------------------------------------------------------------------- #
# session plumbing: flavors, counters, timers, config gating
# --------------------------------------------------------------------------- #


class TestSessionIntegration:
    def test_counters_and_phase_timers_appear(self):
        graph, keys = flat_graph(), flat_key()
        session = MatchSession(graph).with_keys(keys)
        result = session.run("EMOptMR", blocking="auto")
        info = session.cache_info()
        assert info.blocking_index_builds == 1
        assert info.blocking_index_rebases == 0
        assert info.blocking_pairs_pruned > 0
        assert info.blocking_blocks_touched > 0
        timings = session.phase_timings()
        assert "blocking_index_build" in timings
        assert "blocking_collision" in timings
        assert "blocking_pairing_filter" in timings
        quadratic = MatchSession(graph).with_keys(keys).run("EMOptMR", blocking="off")
        assert result.pairs() == quadratic.pairs()

    def test_blocked_and_quadratic_candidates_cache_separately(self):
        graph, keys = flat_graph(), flat_key()
        session = MatchSession(graph).with_keys(keys)
        session.run("EMOptMR", blocking="off")
        session.run("EMOptMR", blocking="auto")
        flavors = set(session._artifacts.cached("candidates"))
        assert {flavor[2] for flavor in flavors} == {False, True}

    def test_index_is_built_once_and_shared_across_backends(self):
        graph, keys = flat_graph(), flat_key()
        session = MatchSession(graph).with_keys(keys)
        for backend in ("chase", "EMMR", "EMOptMR", "EMVC", "EMOptVC"):
            session.run(backend, blocking="auto")
        assert session.cache_info().blocking_index_builds == 1

    def test_signatures_collide_once_per_graph_version(self, monkeypatch):
        """Every blocked consumer at one version — each ``candidates``
        flavour, and the ``chase`` backend on every run of a warm session —
        reads the cache's one enumeration; a mutation drops it.  The index
        comes out of its one rule, :meth:`BlockingIndex.rebased`: applied
        once to the empty index, then once carried over the window.  The
        graph holds 10 entities, so the naive oracle costs microseconds."""
        from repro.matching.blocking import BlockingIndex

        calls = {"from empty": 0, "carried": 0, "collide": 0}
        original_apply = BlockingIndex.rebased
        original_collide = BlockingIndex.candidate_pairs

        def apply(self, *args, **kwargs):
            calls["from empty" if self._snapshot is None else "carried"] += 1
            return original_apply(self, *args, **kwargs)

        def collide(self, mode="auto"):
            calls["collide"] += 1
            return original_collide(self, mode)

        monkeypatch.setattr(BlockingIndex, "rebased", apply)
        monkeypatch.setattr(BlockingIndex, "candidate_pairs", collide)

        graph, keys = flat_graph(), flat_key()
        reference = chase(graph, keys, blocking="auto")
        calls.update({name: 0 for name in calls})
        session = MatchSession(graph).with_keys(keys)
        for _ in range(3):
            for backend in ("chase", "EMMR", "EMOptMR", "EMVC", "EMOptVC"):
                result = session.run(backend, blocking="auto")
                assert result.pairs() == reference_fixpoint(graph, keys)
            # the oracle and the backend enumerate the same pairs in the same
            # order, so the statistics do not move
            warm = session.run("chase", blocking="auto")
            assert warm.stats.candidate_pairs == reference.candidates
            assert warm.stats.checks == reference.checks
        assert calls == {"from empty": 1, "carried": 0, "collide": 1}
        flavours = session._artifacts.cached("candidates")
        assert len(flavours) >= 2 and all(blocked for _f, _r, blocked in flavours)
        collision = session.phase_timings()["blocking_collision"]

        graph.add_entity("p_extra", "person")
        graph.add_value("p_extra", "name", "n1")
        for backend in ("EMOptMR", "chase", "EMOptVC"):
            assert session.run(backend, blocking="auto").pairs() == reference_fixpoint(graph, keys)
        # one carried apply, one new pass
        assert calls == {"from empty": 1, "carried": 1, "collide": 2}
        assert session.phase_timings()["blocking_collision"] > collision
        pairs, stats = session._artifacts.blocked_pairs("auto")
        assert stats.mode == "auto" and stats.enumerated_pairs == len(pairs)
        assert session._artifacts.blocked_pairs("force")[1].mode == "force"
        assert calls["collide"] == 2
        # one immutable enumeration, shared by reference: no consumer can
        # reorder or grow another flavour's pairs
        assert pairs == tuple(blocked_candidate_pairs(graph, keys, mode="auto")[0])
        assert session._artifacts.blocked_pairs("auto")[0] is pairs

    def test_incremental_rerun_rebases_instead_of_rebuilding(self):
        graph, keys = flat_graph(), flat_key()
        session = MatchSession(graph).with_keys(keys).using("EMOptMR", blocking="auto")
        session.run()
        graph.add_entity("p_extra", "person")
        graph.add_value("p_extra", "name", "n1")
        incremental = session.rerun()
        info = session.cache_info()
        assert info.blocking_index_builds == 1
        assert info.blocking_index_rebases == 1
        full = MatchSession(graph).with_keys(keys).run("EMOptMR", blocking="off")
        assert incremental.pairs() == full.pairs()

    @pytest.mark.parametrize("backend", ["chase", "EMMR", "EMOptMR", "EMVC", "EMOptVC"])
    def test_pair_entering_the_universe_off_a_never_cached_entity_is_rechecked(
        self, backend
    ):
        """Regression: two entities that never collided have no cached
        neighbourhood to go stale, so an edit one hop away (the wildcard
        node's literal) that makes them collide for the first time used to
        reach the blocked universe but not the delta plan's worklist, and
        the incremental result silently missed the pair.  The graph holds 6
        entities, so the naive oracle costs microseconds."""
        keys = parse_keys(
            """
            key K for item:
              x -[name_of]-> name*
              x -[hop]-> _w:aux
              _w:aux -[locator_of]-> locator*
            """
        )
        graph = Graph()
        for i, locator in enumerate(("loc_a", "loc_b", "loc_c")):
            graph.add_entity(f"e{i}", "item")
            graph.add_entity(f"aux{i}", "aux")
            graph.add_value(f"e{i}", "name_of", "same name")
            graph.add_edge(f"e{i}", "hop", f"aux{i}")
            graph.add_value(f"aux{i}", "locator_of", locator)
        session = MatchSession(graph).with_keys(keys).using(backend, blocking="auto")
        assert not session.run().pairs()
        graph.set_value("aux1", "locator_of", "loc_a")
        result = session.rerun()
        assert session.last_delta().mode == "incremental"
        assert result.pairs() == reference_fixpoint(graph, keys) == {("e0", "e1")}

    def test_force_mode_raises_cleanly_through_the_session(self):
        graph = flat_graph()
        for i in range(0, 8, 2):
            graph.add_edge(f"p{i}", "friend", f"p{i + 1}")
        session = MatchSession(graph).with_keys(uncertified_key())
        with pytest.raises(ConfigError, match="pfriend"):
            session.run("chase", blocking="force")

    def test_config_rejects_unknown_blocking_modes(self):
        from repro.api.config import MatchConfig

        with pytest.raises(ConfigError):
            MatchConfig(algorithm="chase", blocking="maybe")

    def test_config_round_trips_blocking_over_the_wire(self):
        from repro.api.config import MatchConfig

        config = MatchConfig(algorithm="EMOptMR", blocking="auto")
        assert MatchConfig.from_dict(config.to_dict()).blocking == "auto"
        assert "blocking=auto" in config.describe()

    def test_service_metrics_expose_blocking_counters(self):
        from repro.api.config import MatchConfig
        from repro.service.registry import GraphRegistry

        registry = GraphRegistry()
        entry = registry.register("g", flat_graph(), flat_key())
        entry.match(MatchConfig(algorithm="EMOptMR", blocking="auto"))
        cache = entry.describe()["cache"]
        assert cache["blocking_index_builds"] == 1
        assert cache["blocking_pairs_pruned"] > 0
