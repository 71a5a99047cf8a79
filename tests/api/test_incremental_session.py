"""Incremental-session behaviour: fallbacks, journal edge cases, counters.

Every ``Eq`` is checked against :func:`reference_fixpoint` (the naive chase
of Section 2, no ``src/`` matcher), never against the ``src/`` chase, which
shares candidate enumeration and the guided evaluator with the backends it
would check.  That bounds the graphs: the album graph has 3-4 entities, the
synthetic one 36 (where one naive chase costs a few ms).
"""

from __future__ import annotations

import pytest

from repro import Graph, MatchSession, parse_keys
from repro.core.chase import candidate_pairs
from repro.datasets.synthetic import synthetic_dataset

from tests.naive_semantics import reference_fixpoint

ALBUM_KEYS = """
key album_by_name_and_year for album:
  x -[name_of]-> name*
  x -[release_year]-> year*
"""


def album_graph() -> Graph:
    graph = Graph()
    for eid in ("alb1", "alb2", "alb3"):
        graph.add_entity(eid, "album")
    graph.add_value("alb1", "name_of", "Anthology 2")
    graph.add_value("alb2", "name_of", "Anthology 2")
    graph.add_value("alb3", "name_of", "Abbey Road")
    graph.add_value("alb1", "release_year", "1996")
    return graph


def primed_session(graph: Graph) -> MatchSession:
    session = MatchSession(graph).with_keys(parse_keys(ALBUM_KEYS)).using("chase")
    session.run()
    return session


class TestFallbacks:
    def test_first_incremental_run_falls_back_to_full(self):
        graph = album_graph()
        session = MatchSession(graph).with_keys(parse_keys(ALBUM_KEYS))
        result = session.run("chase", incremental=True)
        assert result.pairs() == reference_fixpoint(graph, parse_keys(ALBUM_KEYS))
        delta = session.last_delta()
        assert delta is not None and delta.mode == "full"
        assert "no previous result" in delta.reason
        assert session.cache_info().incremental_runs == 0

    def test_window_overflow_falls_back_silently(self, monkeypatch):
        monkeypatch.setattr(Graph, "MUTATION_LOG_LIMIT", 4)
        graph = album_graph()
        session = primed_session(graph)
        # enough mutations to slide the journal window past the seed version
        for index in range(4):
            graph.add_value("alb3", f"tag_{index}", f"v{index}")
        graph.add_value("alb2", "release_year", "1996")
        assert graph.touched_since(session.seed_version) is None
        result = session.rerun()
        assert result.identified("alb1", "alb2")
        delta = session.last_delta()
        assert delta.mode == "full" and "journal window expired" in delta.reason
        assert session.cache_info().incremental_runs == 0  # not incremented

    def test_invalidate_severs_the_delta_chain(self):
        graph = album_graph()
        session = primed_session(graph)
        graph.add_value("alb2", "release_year", "1996")
        session.rerun()
        info = session.cache_info()
        assert info.incremental_runs == 1
        assert info.pairs_rechecked + info.pairs_skipped > 0
        session.invalidate()
        info = session.cache_info()
        # the new counters reset alongside the artifact drop
        assert info.incremental_runs == 0
        assert info.pairs_rechecked == 0 and info.pairs_skipped == 0
        assert session.last_delta() is None
        graph.add_value("alb3", "release_year", "1969")
        session.rerun()
        assert session.last_delta().mode == "full"

    def test_with_keys_keeps_the_seed_when_keys_are_equal(self):
        # re-passing an equal key set is a no-op delta: the seed state (and
        # every cached artifact) survives, so the rerun reuses the result
        graph = album_graph()
        session = primed_session(graph)
        session.with_keys(parse_keys(ALBUM_KEYS))
        session.rerun()
        assert session.last_delta().mode == "reused"
        assert session.cache_info().key_rebases == 0

    def test_with_keys_drops_the_seed_state_on_a_real_delta(self):
        graph = album_graph()
        session = primed_session(graph)
        changed = ALBUM_KEYS.replace("release_year]-> year*", "name_of]-> name*")
        session.with_keys(parse_keys(changed))
        result = session.rerun()
        assert session.last_delta().mode == "full"
        assert result.pairs() == reference_fixpoint(graph, parse_keys(changed))
        assert session.cache_info().key_rebases == 1


class TestJournalEdgeCases:
    def test_mutation_touching_zero_candidate_pairs_reuses_result(self):
        graph = album_graph()
        session = primed_session(graph)
        first = session.rematch()
        graph.add_entity("venue1", "venue")  # unkeyed type, isolated node
        second = session.rerun()
        assert second is first  # the previous result object, returned as-is
        delta = session.last_delta()
        assert delta.mode == "reused"
        assert delta.pairs_rechecked == 0
        assert session.cache_info().incremental_runs == 1

    def test_no_mutation_at_all_reuses_result(self):
        graph = album_graph()
        session = primed_session(graph)
        first = session.rematch()
        second = session.rerun()
        assert second is first
        assert session.last_delta().mode == "reused"

    def test_back_to_back_mutations_between_runs(self):
        graph = album_graph()
        session = primed_session(graph)
        seed_version = session.seed_version
        graph.add_value("alb2", "release_year", "1996")
        graph.add_value("alb3", "release_year", "1969")
        graph.add_entity("alb4", "album")
        graph.add_value("alb4", "name_of", "Abbey Road")
        graph.add_value("alb4", "release_year", "1969")
        assert graph.version > seed_version + 1  # versions skip forward
        result = session.rerun()
        keys = parse_keys(ALBUM_KEYS)
        assert result.eq.pairs() == reference_fixpoint(graph, keys)
        assert result.identified("alb1", "alb2")
        assert result.identified("alb3", "alb4")
        assert session.last_delta().mode == "incremental"

    def test_removal_retracts_previous_identification(self):
        graph = album_graph()
        graph.add_value("alb2", "release_year", "1996")
        session = primed_session(graph)
        assert session.rematch().identified("alb1", "alb2")
        graph.remove_value("alb2", "release_year", "1996")
        result = session.rerun()
        assert not result.identified("alb1", "alb2")
        assert result.eq.pairs() == reference_fixpoint(graph, parse_keys(ALBUM_KEYS))

    def test_retype_drops_pairs_without_a_backend_run(self):
        graph = album_graph()
        graph.add_value("alb2", "release_year", "1996")
        session = primed_session(graph)
        assert session.rematch().identified("alb1", "alb2")
        graph.retype_entity("alb2", "bootleg")
        result = session.rerun()
        assert not result.identified("alb1", "alb2")
        assert result.eq.pairs() == reference_fixpoint(graph, parse_keys(ALBUM_KEYS))


class TestCounterInvariants:
    def test_rechecked_plus_skipped_equals_candidates_each_run(self):
        dataset = synthetic_dataset(
            num_keys=4, chain_length=2, radius=2, entities_per_type=4, seed=3
        )
        graph, keys = dataset.graph, dataset.keys
        session = MatchSession(graph).with_keys(keys).using("EMOptMR", blocking="off")
        session.run()
        mutations = [
            lambda: graph.add_value("e0_1_0", "extra_tag", "x"),
            lambda: graph.add_entity("fuzz_e", graph.entity_type("e0_1_0")),
            lambda: graph.add_value("fuzz_e", "name_of", "name_0_1_0"),
        ]
        previous = session.cache_info()
        for mutate in mutations:
            mutate()
            session.rerun()
            info = session.cache_info()
            rechecked = info.pairs_rechecked - previous.pairs_rechecked
            skipped = info.pairs_skipped - previous.pairs_skipped
            assert rechecked + skipped == len(candidate_pairs(graph, keys))
            assert rechecked == session.last_delta().pairs_rechecked
            previous = info
        assert session.cache_info().incremental_runs == len(mutations)

    def test_incremental_run_reuses_artifacts_via_rebase(self):
        dataset = synthetic_dataset(
            num_keys=4, chain_length=2, radius=2, entities_per_type=4, seed=3
        )
        graph, keys = dataset.graph, dataset.keys
        session = MatchSession(graph).with_keys(keys).using("EMOptVC")
        session.run()
        built = session.cache_info()
        # a key-relevant edit (a value no key names would be answered
        # "reused" without touching a slot): e0_1_0 takes e0_1_1's name
        graph.set_value("e0_1_0", "name_of", "name_0_1_1")
        session.rerun()
        assert session.last_delta().mode == "incremental"
        info = session.cache_info()
        # the filtered candidates and the product graph were rebased, not rebuilt
        assert info.candidate_rebases >= 1
        assert info.product_graph_rebases == 1
        assert info.product_graph_builds == built.product_graph_builds
        assert info.neighborhood_index_builds == built.neighborhood_index_builds

    def test_every_backend_reports_consistent_counters(self):
        graph = album_graph()
        keys = parse_keys(ALBUM_KEYS)
        for backend in ("chase", "EMMR", "EMVF2MR", "EMOptMR", "EMVC", "EMOptVC"):
            # blocking="off": the counters partition the quadratic L
            session = MatchSession(graph.copy()).with_keys(keys).using(
                backend, blocking="off"
            )
            session.run()
            session.graph.add_value("alb2", "release_year", "1996")
            result = session.rerun()
            assert result.identified("alb1", "alb2"), backend
            delta = session.last_delta()
            assert delta.mode == "incremental", backend
            info = session.cache_info()
            assert info.incremental_runs == 1, backend
            assert (
                delta.pairs_rechecked + delta.pairs_skipped
                == len(candidate_pairs(session.graph, keys))
            ), backend


class TestConfigSurface:
    def test_incremental_flag_via_config_default(self):
        graph = album_graph()
        session = MatchSession(graph).with_keys(parse_keys(ALBUM_KEYS))
        session.using("chase", incremental=True)
        assert session.config.incremental
        session.run()  # fallback full (no previous result)
        assert session.last_delta().mode == "full"
        graph.add_value("alb2", "release_year", "1996")
        result = session.run()  # config default: incremental
        assert result.identified("alb1", "alb2")
        assert session.last_delta().mode == "incremental"

    def test_incremental_flag_validated(self):
        from repro import MatchConfig
        from repro.exceptions import ConfigError

        with pytest.raises(ConfigError, match="incremental"):
            MatchConfig(incremental="yes")

    def test_describe_mentions_incremental(self):
        from repro import MatchConfig

        assert "incremental" in MatchConfig(incremental=True).describe()
        assert "incremental" not in MatchConfig().describe()

    def test_history_and_result_equivalence_of_rerun_and_rematch(self):
        graph = album_graph()
        session = primed_session(graph)
        graph.add_value("alb2", "release_year", "1996")
        incremental = session.rerun()
        full = session.rematch()
        assert incremental.eq.pairs() == full.eq.pairs()
        assert len(session.history) == 3


class TestReuseGuards:
    def test_no_op_delta_does_not_leak_results_across_algorithms(self):
        graph = album_graph()
        session = MatchSession(graph).with_keys(parse_keys(ALBUM_KEYS))
        session.run("EMMR", incremental=True)  # fallback full, records seed
        result = session.run("EMVC", incremental=True)  # no mutation since
        # same fixpoint, but the result must carry THIS run's identity
        assert result.algorithm == "EMVC"
        assert session.last_delta().mode == "incremental"
        again = session.run("EMVC", incremental=True)
        assert again is result  # now the config matches: object reuse kicks in
        assert session.last_delta().mode == "reused"

    def test_option_change_disables_reuse(self):
        graph = album_graph()
        session = MatchSession(graph).with_keys(parse_keys(ALBUM_KEYS))
        first = session.run("EMOptVC", incremental=True, fanout=2)
        second = session.run("EMOptVC", incremental=True, fanout=3)
        assert second is not first
        assert second.algorithm == "EMOptVC"
        assert second.eq.pairs() == first.eq.pairs()

    def test_candidate_pairs_stat_normalized_across_backends(self):
        graph = album_graph()
        keys = parse_keys(ALBUM_KEYS)
        expected = len(candidate_pairs(graph, keys)) + 0  # |L| before mutation
        for backend in ("chase", "EMMR", "EMOptVC"):
            session = MatchSession(graph.copy()).with_keys(keys).using(
                backend, blocking="off"
            )
            session.run()
            session.graph.add_value("alb2", "release_year", "1996")
            result = session.rerun()
            assert result.stats.candidate_pairs == len(
                candidate_pairs(session.graph, keys)
            ), backend

    def test_failed_run_clears_provenance_and_leaves_the_seed_sound(self, monkeypatch):
        graph = album_graph()
        session = primed_session(graph)
        graph.add_value("alb2", "release_year", "1996")
        session.rerun()
        assert session.last_delta() is not None
        seeded_at = session.seed_version

        class Boom(RuntimeError):
            pass

        # a backend that dies mid-run (observers are isolated since the
        # notify() hardening, so the failure is injected below the session)
        def exploding(self, spec, config, validated, artifacts):
            raise Boom(spec.name)

        monkeypatch.setattr(MatchSession, "_execute", exploding)
        graph.remove_value("alb2", "release_year", "1996")
        with pytest.raises(Boom):
            session.run("EMMR", incremental=True)  # dies mid-run
        monkeypatch.undo()
        # no stale provenance survives the failure.  The seed does, untouched
        # (it is immutable and still at the cache's version), so the next
        # run plans the failed run's mutation too
        assert session.last_delta() is None
        assert session.seed_version == seeded_at
        result = session.rerun()
        assert session.last_delta().mode == "incremental"
        assert not result.identified("alb1", "alb2")
        assert result.eq.pairs() == reference_fixpoint(graph, parse_keys(ALBUM_KEYS))

    def test_failure_after_the_refresh_is_the_one_out_of_step_case(self, monkeypatch):
        """A run that dies once ``refresh()`` has moved the cache leaves the
        seed a version behind it: the next run must not plan from that
        seed, and says why."""
        import repro.api.session as session_module

        graph = album_graph()
        session = primed_session(graph)
        graph.add_value("alb2", "release_year", "1996")

        def refresh_then_die(artifacts, state, *, blocking):
            artifacts.refresh()
            raise RuntimeError("died planning")

        monkeypatch.setattr(session_module, "plan_session_delta", refresh_then_die)
        with pytest.raises(RuntimeError, match="died planning"):
            session.rerun()
        monkeypatch.undo()
        assert session.seed_version < graph.version
        result = session.rerun()
        delta = session.last_delta()
        assert delta.mode == "full" and "out of step" in delta.reason
        assert result.identified("alb1", "alb2")
        assert session.seed_version == graph.version


class TestSharedSeed:
    """The seed lives in the artifact cache: sibling sessions share it."""

    def test_a_sibling_session_seeds_from_the_fixpoint_the_cache_holds(self):
        from repro.matching.artifacts import SessionArtifacts

        dataset = synthetic_dataset(
            num_keys=4, chain_length=2, radius=2, entities_per_type=4, seed=3
        )
        graph, keys = dataset.graph, dataset.keys
        artifacts = SessionArtifacts(graph, keys)
        writer = MatchSession(graph, artifacts=artifacts).using("EMOptVC")
        reader = MatchSession(graph, artifacts=artifacts).using("EMOptMR")
        assert reader.seed_version is None
        writer.rerun()
        assert writer.last_delta().mode == "full"
        # never ran, yet seeded: the cache holds the writer's fixpoint
        first = reader.rerun()
        assert reader.last_delta().mode == "incremental"
        assert reader.last_delta().touched_nodes == 0
        assert first.algorithm == "EMOptMR"
        assert reader.rerun() is first and reader.last_delta().mode == "reused"

        graph.add_value("e0_1_0", "name_of", "name_0_1_1")
        written = writer.rerun()
        assert writer.last_delta().mode == "incremental"
        assert reader.seed_version == writer.seed_version == graph.version
        # the reader lags the cache by a window it never saw: an empty
        # journal window against the writer's fixpoint, its own backend
        second = reader.rerun()
        delta = reader.last_delta()
        assert (delta.mode, delta.touched_nodes) == ("incremental", 0)
        assert second is not first and second.algorithm == "EMOptMR"
        assert second.eq.pairs() == written.eq.pairs() == reference_fixpoint(graph, keys)
        assert delta.pairs_rechecked + delta.pairs_skipped == len(
            artifacts.candidates(filtered=True, blocking="auto").pairs
        )

    def test_one_eq_copy_per_graph_version(self):
        graph = album_graph()
        session = primed_session(graph)
        seed = session._artifacts.seed()
        for backend in ("EMMR", "EMOptVC", "chase"):
            session.run(backend)
        assert session._artifacts.seed() is seed  # same version, same fixpoint
        graph.add_value("alb2", "release_year", "1996")
        session.rerun()
        assert session._artifacts.seed() is not seed
        assert seed.version < session.seed_version

    def test_rekeying_and_invalidation_drop_the_seed(self):
        graph = album_graph()
        session = primed_session(graph)
        assert session.seed_version == graph.version
        session.with_keys(parse_keys(ALBUM_KEYS))  # equal keys: the seed stays
        assert session.seed_version == graph.version
        changed = ALBUM_KEYS.replace("release_year]-> year*", "name_of]-> name*")
        session.with_keys(parse_keys(changed))
        assert session.seed_version is None
        session.rerun()
        assert session.seed_version == graph.version
        session.invalidate()
        assert session.seed_version is None


class TestHeldResults:
    """Each run shape's last result lives in the cache beside the seed, so
    any session on that cache answers a shape held at this version."""

    def test_alternating_shapes_each_get_their_held_result(self):
        session = MatchSession(album_graph()).with_keys(parse_keys(ALBUM_KEYS))
        first = session.run("EMOptMR", incremental=True)
        assert session.last_delta().mode == "full"
        session.run("EMOptVC", incremental=True)
        assert session.last_delta().mode == "incremental"
        assert session.run("EMOptMR", incremental=True) is first
        assert session.last_delta().mode == "reused"

    def test_a_same_shape_sibling_session_gets_the_held_result(self):
        from repro.matching.artifacts import SessionArtifacts

        graph = album_graph()
        artifacts = SessionArtifacts(graph, parse_keys(ALBUM_KEYS))
        first = MatchSession(graph, artifacts=artifacts).using("EMOptVC").rerun()
        sibling = MatchSession(graph, artifacts=artifacts).using("EMOptVC")
        assert sibling.rerun() is first
        assert sibling.last_delta().mode == "reused"

    def test_one_shape_past_the_bound_evicts_the_least_recently_used(self):
        from repro.matching.artifacts import SessionArtifacts

        session = MatchSession(album_graph()).with_keys(parse_keys(ALBUM_KEYS))
        shapes = range(1, SessionArtifacts.MAX_HELD_SHAPES + 2)
        for processors in shapes:
            session.run("EMOptVC", incremental=True, processors=processors)
        assert session.cache_info().held_evictions == 1
        session.run("EMOptVC", incremental=True, processors=shapes[1])
        assert session.last_delta().mode == "reused"
        # the first shape's result went; the fixpoint did not
        session.run("EMOptVC", incremental=True, processors=shapes[0])
        assert session.last_delta().mode == "incremental"
        assert session.cache_info().held_evictions == 2
