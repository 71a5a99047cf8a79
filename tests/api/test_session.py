"""Tests of the MatchSession facade: caching, consistency, incremental runs."""

from __future__ import annotations

import pytest

from repro import ALGORITHMS, Graph, MatchSession, Session, parse_keys
from repro.datasets.music import EXPECTED_IDENTIFIED_PAIRS, music_dataset
from repro.exceptions import ConfigError, MatchingError

ALBUM_KEYS = """
key album_by_name_and_year for album:
  x -[name_of]-> name*
  x -[release_year]-> year*
"""


def album_graph(with_second_year: bool = True) -> Graph:
    graph = Graph()
    graph.add_entity("alb1", "album")
    graph.add_entity("alb2", "album")
    graph.add_value("alb1", "name_of", "Anthology 2")
    graph.add_value("alb2", "name_of", "Anthology 2")
    graph.add_value("alb1", "release_year", "1996")
    if with_second_year:
        graph.add_value("alb2", "release_year", "1996")
    return graph


class TestFluentApi:
    def test_quickstart_chain(self):
        graph, keys = music_dataset()
        result = Session(graph).with_keys(keys).using("EMOptVC", processors=8, fanout=4).run()
        assert result.algorithm == "EMOptVC" and result.processors == 8
        assert result.pairs() == set(EXPECTED_IDENTIFIED_PAIRS)

    def test_every_registered_name_runs_through_using(self):
        graph, keys = music_dataset()
        session = MatchSession(graph).with_keys(keys)
        for name in ALGORITHMS:
            assert session.using(name).run().pairs() == set(EXPECTED_IDENTIFIED_PAIRS)

    def test_run_without_keys_raises(self):
        with pytest.raises(MatchingError, match="no keys"):
            MatchSession(album_graph()).run()

    def test_options_validated_per_backend(self):
        graph, keys = music_dataset()
        session = MatchSession(graph).with_keys(keys)
        with pytest.raises(ConfigError):
            session.run("EMMR", fanout=2)

    def test_history_records_provenance(self):
        graph, keys = music_dataset()
        session = MatchSession(graph).with_keys(keys)
        session.run("chase")
        session.run("EMOptVC", fanout=2)
        assert [config.algorithm for config, _ in session.history] == ["chase", "EMOptVC"]
        assert session.history[1][0].options == {"fanout": 2}
        assert session.history[1][1].algorithm == "EMOptVC"

    def test_history_keeps_only_the_most_recent_runs(self):
        session = MatchSession(album_graph()).with_keys(parse_keys(ALBUM_KEYS))
        runs = MatchSession._MAX_HISTORY + 3
        for index in range(runs):
            session.run("chase", processors=index + 1)
        kept = [config.processors for config, _ in session.history]
        assert kept == list(range(4, runs + 1))  # oldest three evicted


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_all_registered_algorithms_agree_on_paper_example(algorithm):
    graph, keys = music_dataset()
    session = MatchSession(graph).with_keys(keys)
    assert session.run(algorithm).pairs() == set(EXPECTED_IDENTIFIED_PAIRS)


class TestArtifactReuse:
    def test_neighborhood_index_built_once_across_two_runs(self):
        graph, keys = music_dataset()
        session = MatchSession(graph).with_keys(keys)
        session.run("EMVC")
        session.run("EMOptVC")
        assert session.cache_info().neighborhood_index_builds == 1

    def test_index_and_product_graph_shared_across_families(self):
        graph, keys = music_dataset()
        session = MatchSession(graph).with_keys(keys)
        results = session.run_all()
        info = session.cache_info()
        assert info.neighborhood_index_builds == 1
        assert info.product_graph_builds == 1  # EMVC and EMOptVC share one Gp
        pairs = {frozenset(r.pairs()) for r in results.values()}
        assert len(pairs) == 1  # all backends agree

    def test_session_results_match_one_shot_runs(self):
        graph, keys = music_dataset()
        session = MatchSession(graph).with_keys(keys)
        from repro import match_entities

        for name in ALGORITHMS:
            assert session.run(name).pairs() == match_entities(graph, keys, algorithm=name).pairs()

    def test_reduced_flavor_does_not_stale_shared_index(self):
        graph, keys = music_dataset()
        session = MatchSession(graph).with_keys(keys)
        session.run("EMOptMR")  # restricts a *clone* of the shared index
        vc = session.run("EMVC")  # must still see unreduced neighbourhoods
        assert vc.pairs() == set(EXPECTED_IDENTIFIED_PAIRS)

    def test_with_new_keys_drops_caches(self):
        graph, keys = music_dataset()
        session = MatchSession(graph).with_keys(keys)
        session.run("EMVC")
        session.with_keys(parse_keys(ALBUM_KEYS))
        session.run("EMVC")
        assert session.cache_info().neighborhood_index_builds == 1  # fresh cache object

    def test_repassing_same_keyset_object_drops_caches(self):
        # a KeySet can be mutated in place; re-passing it must not serve
        # stale traversal orders / candidate sets from the old contents
        graph, keys = music_dataset()
        session = MatchSession(graph).with_keys(keys)
        session.run("EMOptVC")
        assert session.cache_info().neighborhood_index_builds == 1
        session.with_keys(keys)
        session.run("EMOptVC")
        assert session.cache_info().neighborhood_index_builds == 1  # rebuilt fresh


class TestIncrementalRematching:
    def test_rematch_after_add_value(self):
        graph = album_graph(with_second_year=False)
        session = MatchSession(graph).with_keys(parse_keys(ALBUM_KEYS)).using("EMOptVC")
        first = session.run()
        assert not first.identified("alb1", "alb2")
        graph.add_value("alb2", "release_year", "1996")
        second = session.rematch()
        assert second.identified("alb1", "alb2")

    def test_mutation_invalidates_only_stale_neighborhoods(self):
        graph = album_graph(with_second_year=False)
        session = MatchSession(graph).with_keys(parse_keys(ALBUM_KEYS))
        session.run("EMVC")
        graph.add_value("alb2", "release_year", "1996")
        session.run("EMVC")
        info = session.cache_info()
        # the index object survived the mutation (selective eviction, no rebuild)
        assert info.neighborhood_index_builds == 1
        assert info.invalidations == 1

    def test_rematch_consistent_across_backends_after_mutation(self):
        graph = album_graph(with_second_year=False)
        session = MatchSession(graph).with_keys(parse_keys(ALBUM_KEYS))
        session.run_all()
        graph.add_value("alb2", "release_year", "1996")
        results = session.run_all()
        for result in results.values():
            assert result.identified("alb1", "alb2"), result.algorithm


class TestObserverHooks:
    def test_round_events_delivered(self):
        graph, keys = music_dataset()
        events = []
        session = MatchSession(graph).with_keys(keys).on_progress(events.append)
        session.run("EMMR")
        stages = [event.stage for event in events]
        assert "round" in stages and stages[-1] == "done"
        rounds = [event.round for event in events if event.stage == "round"]
        assert rounds == sorted(rounds) and rounds[0] == 1

    def test_vertex_centric_stage_events(self):
        graph, keys = music_dataset()
        events = []
        session = MatchSession(graph).with_keys(keys).on_progress(events.append)
        session.run("EMOptVC")
        stages = {event.stage for event in events}
        assert {"candidates", "product-graph", "engine", "done"} <= stages

    def test_multiple_observers_all_notified(self):
        graph, keys = music_dataset()
        first, second = [], []
        session = MatchSession(graph).with_keys(keys)
        session.on_progress(first.append).on_progress(second.append)
        session.run("EMMR")
        assert len(first) == len(second) > 0


class TestGraphMutationJournal:
    def test_version_increases_on_mutation(self):
        graph = Graph()
        v0 = graph.version
        graph.add_entity("e1", "thing")
        assert graph.version > v0
        v1 = graph.version
        graph.add_value("e1", "name_of", "x")
        assert graph.version > v1

    def test_touched_since_reports_mutated_nodes(self):
        graph = album_graph()
        version = graph.version
        assert graph.touched_since(version) == set()
        graph.add_value("alb2", "release_year", "1997")
        touched = graph.touched_since(version)
        assert touched is not None and "alb2" in touched

    def test_duplicate_triple_does_not_bump_version(self):
        graph = album_graph()
        version = graph.version
        graph.add_value("alb1", "release_year", "1996")  # already present
        assert graph.version == version
