"""Unit tests for the Graph triple store."""

from __future__ import annotations

import pytest

from repro.core.graph import Graph, merge_graphs
from repro.core.triples import Literal, Triple
from repro.exceptions import DuplicateEntityError, UnknownEntityError


@pytest.fixture
def graph() -> Graph:
    g = Graph()
    g.add_entity("a", "album")
    g.add_entity("b", "album")
    g.add_entity("r", "artist")
    g.add_value("a", "name_of", "X")
    g.add_value("b", "name_of", "X")
    g.add_edge("a", "recorded_by", "r")
    return g


class TestConstruction:
    def test_counts(self, graph: Graph):
        assert graph.num_entities == 3
        assert graph.num_triples == 3
        # two albums share the same name value node
        assert graph.num_nodes == 4

    def test_readding_entity_same_type_is_noop(self, graph: Graph):
        graph.add_entity("a", "album")
        assert graph.num_entities == 3

    def test_readding_entity_different_type_fails(self, graph: Graph):
        with pytest.raises(DuplicateEntityError):
            graph.add_entity("a", "artist")

    def test_triple_with_unknown_subject_fails(self, graph: Graph):
        with pytest.raises(UnknownEntityError):
            graph.add_edge("missing", "p", "a")

    def test_triple_with_unknown_entity_object_fails(self, graph: Graph):
        with pytest.raises(UnknownEntityError):
            graph.add_edge("a", "p", "missing")

    def test_duplicate_triples_are_deduplicated(self, graph: Graph):
        graph.add_edge("a", "recorded_by", "r")
        assert graph.num_triples == 3

    def test_from_triples(self):
        g = Graph.from_triples(
            {"a": "album", "r": "artist"},
            [Triple("a", "recorded_by", "r"), Triple("a", "name_of", Literal("X"))],
        )
        assert g.num_triples == 2

    def test_copy_is_independent(self, graph: Graph):
        clone = graph.copy()
        clone.add_entity("new", "album")
        assert not graph.has_entity("new")
        assert clone == clone and clone != graph


class TestQueries:
    def test_entity_lookup(self, graph: Graph):
        assert graph.entity_type("a") == "album"
        with pytest.raises(UnknownEntityError):
            graph.entity_type("zzz")

    def test_entities_of_type_sorted(self, graph: Graph):
        assert graph.entities_of_type("album") == ["a", "b"]
        assert graph.entities_of_type("nonexistent") == []

    def test_types_and_predicates(self, graph: Graph):
        assert graph.types() == {"album", "artist"}
        assert graph.predicates() == {"name_of", "recorded_by"}

    def test_objects_and_subjects(self, graph: Graph):
        assert graph.objects("a", "recorded_by") == {"r"}
        assert graph.subjects("name_of", Literal("X")) == {"a", "b"}
        assert graph.objects("a", "missing") == set()

    def test_out_in_triples(self, graph: Graph):
        assert len(graph.out_triples("a")) == 2
        assert len(graph.in_triples("r")) == 1

    def test_neighbors_are_undirected(self, graph: Graph):
        assert "r" in graph.neighbors("a")
        assert "a" in graph.neighbors("r")
        assert Literal("X") in graph.neighbors("a")

    def test_the_row_of_a_node_without_one_refuses_writes(self, graph: Graph):
        assert dict(graph.out_row("r")) == {} and dict(graph.in_row("a")) == {}
        with pytest.raises(TypeError):
            graph.out_row("r")["made_up"] = {"a"}
        assert not graph.has_triple("r", "made_up", "a")
        assert graph.objects("b", "made_up") == set()

    def test_has_triple_and_contains(self, graph: Graph):
        assert graph.has_triple("a", "recorded_by", "r")
        assert Triple("a", "recorded_by", "r") in graph
        assert "a" in graph
        assert "zzz" not in graph

    def test_value_nodes_and_degree(self, graph: Graph):
        assert graph.value_nodes() == {Literal("X")}
        assert graph.degree("a") == 2

    def test_stats(self, graph: Graph):
        stats = graph.stats()
        assert stats["entities"] == 3
        assert stats["triples"] == 3
        assert stats["types"] == 2


class TestStructure:
    def test_induced_subgraph(self, graph: Graph):
        sub = graph.induced_subgraph({"a", "r"})
        assert sub.num_entities == 2
        assert sub.num_triples == 1
        assert sub.has_triple("a", "recorded_by", "r")

    def test_union_and_merge(self, graph: Graph):
        other = Graph()
        other.add_entity("c", "album")
        other.add_value("c", "name_of", "Y")
        merged = graph.union(other)
        assert merged.num_entities == 4
        assert merge_graphs([graph, other]).num_triples == 4

    def test_connectivity(self, graph: Graph):
        assert graph.is_connected()
        graph.add_entity("lonely", "album")
        assert not graph.is_connected()

    def test_empty_graph_is_trivially_connected(self):
        assert Graph().is_connected()


class TestNonMonotoneMutations:
    """remove_triple / remove_edge / remove_value / set_value / retype_entity."""

    def test_remove_triple_updates_every_index(self, graph: Graph):
        graph.remove_edge("a", "recorded_by", "r")
        assert not graph.has_triple("a", "recorded_by", "r")
        assert graph.num_triples == 2
        assert graph.objects("a", "recorded_by") == set()
        assert graph.subjects("recorded_by", "r") == set()
        assert "r" not in graph.neighbors("a")
        assert "a" not in graph.neighbors("r")

    def test_remove_keeps_undirected_edge_with_parallel_triple(self, graph: Graph):
        graph.add_edge("a", "produced_by", "r")  # parallel edge a—r
        graph.remove_edge("a", "recorded_by", "r")
        assert "r" in graph.neighbors("a")
        graph.remove_edge("a", "produced_by", "r")
        assert "r" not in graph.neighbors("a")

    def test_remove_keeps_undirected_edge_with_reverse_triple(self, graph: Graph):
        graph.add_edge("r", "performs_on", "a")
        graph.remove_edge("a", "recorded_by", "r")
        assert "r" in graph.neighbors("a") and "a" in graph.neighbors("r")

    def test_remove_value_shares_value_nodes_correctly(self, graph: Graph):
        graph.remove_value("a", "name_of", "X")
        # "b" still holds the shared value node
        assert graph.has_triple("b", "name_of", Literal("X"))
        assert Literal("X") in graph.value_nodes()
        assert "a" not in graph.subjects("name_of", Literal("X"))

    def test_value_node_disappears_with_its_last_triple(self, graph: Graph):
        graph.add_value("a", "alias_of", "Y")
        assert graph.value_nodes() == {Literal("X"), Literal("Y")}
        graph.remove_value("a", "name_of", "X")
        graph.remove_value("b", "name_of", "X")
        assert graph.value_nodes() == {Literal("Y")}
        assert graph.num_nodes == graph.num_entities + 1
        assert graph.in_triples(Literal("X")) == set()  # a read must not revive it
        assert graph.value_nodes() == {Literal("Y")}
        graph.set_value("a", "alias_of", "Z")
        assert graph.value_nodes() == {Literal("Z")}
        # an entity is never a value node, with or without incoming edges
        assert not graph.value_nodes() & set(graph.entity_ids())

    def test_removal_is_journalled(self, graph: Graph):
        version = graph.version
        graph.remove_edge("a", "recorded_by", "r")
        assert graph.version > version
        touched = graph.touched_since(version)
        assert touched == {"a", "r"}

    def test_absent_removal_is_a_noop(self, graph: Graph):
        version = graph.version
        graph.remove_edge("a", "never_there", "r")
        assert graph.version == version

    def test_set_value_replaces_and_journals(self, graph: Graph):
        version = graph.version
        graph.set_value("a", "name_of", "Y")
        assert graph.objects("a", "name_of") == {Literal("Y")}
        touched = graph.touched_since(version)
        assert "a" in touched and Literal("X") in touched and Literal("Y") in touched

    def test_set_value_same_value_is_a_noop(self, graph: Graph):
        version = graph.version
        graph.set_value("a", "name_of", "X")
        assert graph.version == version

    def test_retype_entity_moves_type_buckets(self, graph: Graph):
        version = graph.version
        graph.retype_entity("a", "bootleg")
        assert graph.entity_type("a") == "bootleg"
        assert graph.entities_of_type("album") == ["b"]
        assert graph.entities_of_type("bootleg") == ["a"]
        assert graph.touched_since(version) == {"a"}
        # incident triples survive a retype
        assert graph.has_triple("a", "recorded_by", "r")

    def test_retype_to_same_type_is_a_noop(self, graph: Graph):
        version = graph.version
        graph.retype_entity("a", "album")
        assert graph.version == version

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_entity("zz", 5),
            lambda g: g.add_entity(5, "album"),
            lambda g: g.add_triple(Triple("a", 7, Literal("v"))),
            lambda g: g.add_edge("a", None, "b"),
            lambda g: g.retype_entity("a", 5),
        ],
    )
    def test_a_non_string_name_leaves_the_graph_as_it_was(self, graph: Graph, mutate):
        """Each mutator computes its fingerprint term before its first
        write, so a name that cannot be encoded raises with nothing moved."""
        before = graph.copy(), graph.version, graph.content_fingerprint()
        with pytest.raises((AttributeError, TypeError)):
            mutate(graph)
        assert (graph, graph.version, graph.content_fingerprint()) == before

    def test_retype_unknown_entity_raises(self, graph: Graph):
        with pytest.raises(UnknownEntityError):
            graph.retype_entity("ghost", "album")

    def test_copy_equality_after_removals(self, graph: Graph):
        graph.remove_edge("a", "recorded_by", "r")
        clone = graph.copy()
        assert clone == graph
        assert clone.neighbors("a") == graph.neighbors("a")


class TestReadOnlyAnswers:
    """``objects`` / ``subjects`` hand out read-only answers, from a written
    row and from the held snapshot alike: adding to one raises, and the
    graph, its journal, its fingerprint and its triple count stay as they
    were."""

    @pytest.mark.parametrize("published", [False, True], ids=["written", "held"])
    def test_adding_to_an_answer_raises_and_changes_nothing(self, graph: Graph, published):
        if published:
            graph.snapshot()
        before = (
            {t for node in ("a", "b", "r") for t in graph.out_triples(node)},
            graph.version, graph.touched_since(0),
            graph.content_fingerprint(), graph.num_triples,
        )
        answers = (
            graph.objects("a", "name_of"),
            graph.subjects("recorded_by", "r"),
            graph.objects("r", "no_such_predicate"),
        )
        for answer in answers:
            with pytest.raises(AttributeError):
                answer.add("intruder")
        assert graph.objects("a", "name_of") == {Literal("X")}
        assert graph.subjects("recorded_by", "r") == {"a"}
        after = (
            {t for node in ("a", "b", "r") for t in graph.out_triples(node)},
            graph.version, graph.touched_since(0),
            graph.content_fingerprint(), graph.num_triples,
        )
        assert after == before
