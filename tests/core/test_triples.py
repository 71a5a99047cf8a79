"""Unit tests for the primitive data model (entities, literals, triples)."""

from __future__ import annotations

import pickle

import pytest

from repro.core.graph import Graph
from repro.core.triples import Entity, Literal, Triple, as_object, is_entity_ref, is_literal
from repro.runtime.partition import default_affinity, stable_hash
from repro.storage import GraphSnapshot
from repro.storage.store import _decode_node, _encode_node


class TestEntity:
    def test_requires_non_empty_id(self):
        with pytest.raises(ValueError):
            Entity("", "album")

    def test_requires_non_empty_type(self):
        with pytest.raises(ValueError):
            Entity("alb1", "")

    def test_equality_and_hash(self):
        assert Entity("alb1", "album") == Entity("alb1", "album")
        assert hash(Entity("alb1", "album")) == hash(Entity("alb1", "album"))
        assert Entity("alb1", "album") != Entity("alb1", "artist")


class TestLiteral:
    def test_value_equality(self):
        assert Literal("1996") == Literal("1996")
        assert Literal("1996") != Literal(1996)

    def test_unhashable_value_rejected(self):
        with pytest.raises(TypeError):
            Literal(["a", "list"])

    def test_usable_in_sets(self):
        assert len({Literal("a"), Literal("a"), Literal("b")}) == 2


#: one value of every type the store encodes by tag, and one it pickles
VALUES = ["ada", 7, True, 2.5, None, ("a", 1)]


class TestLiteralContract:
    """A literal is laid out as the 1-tuple of its value, hashed by the
    tuple hash at C level; what a node is may not change with that layout."""

    @pytest.mark.parametrize("value", VALUES)
    def test_hash_is_the_tuple_hash(self, value):
        # what the frozen dataclass hashed to: set orders stay as they were
        assert hash(Literal(value)) == hash((value,))

    @pytest.mark.parametrize("value", VALUES)
    def test_a_literal_equals_no_tuple_and_no_string(self, value):
        literal = Literal(value)
        for other in ((value,), str(value)):
            assert literal != other and other != literal
            assert not (literal == other or other == literal)
        assert literal == Literal(value) and not literal != Literal(value)
        assert repr(literal) == f"Literal(value={value!r})"

    @pytest.mark.parametrize("value", VALUES)
    def test_pickle_keeps_the_type_and_the_exact_value(self, value):
        back = pickle.loads(pickle.dumps(Literal(value)))
        assert type(back) is Literal and back == Literal(value)
        assert type(back.value) is type(value)
        assert pickle.loads(pickle.dumps(Literal(True))).value is True
        assert type(pickle.loads(pickle.dumps(Literal(1))).value) is int

    @pytest.mark.parametrize("value", VALUES)
    def test_store_encoding_keeps_the_type_and_the_exact_value(self, value):
        tag, payload = _encode_node(Literal(value))
        back = _decode_node(tag[0], payload)
        assert type(back) is Literal and back == Literal(value)
        assert type(back.value) is type(value)

    def test_stable_hash_reads_the_repr_not_the_tuple(self):
        # CRC-32s pinned from the dataclass literal: worker placement of a
        # key that holds a literal must not move with its layout
        pinned = {
            Literal("ada"): 1420399180,
            Literal(7): 3781807452,
            Literal(True): 440489683,
            Literal(2.5): 1611719598,
            Literal(None): 2182158883,
            Literal(("a", 1)): 4165692128,
            ("e1", Literal("ada")): 4122186058,
            (Literal(3), Literal(3)): 3854852942,
        }
        assert {key: stable_hash(key) for key in pinned} == pinned
        assert default_affinity(Literal("ada")) == Literal("ada")
        assert default_affinity((Literal(3), Literal(4))) == Literal(3)

    def test_placement_key_is_the_interned_id(self):
        graph = Graph()
        graph.add_entity("e1", "person")
        graph.add_value("e1", "name", ("a", 1))
        snapshot = GraphSnapshot.build(graph)
        literal = Literal(("a", 1))
        assert snapshot.placement_key(literal) == snapshot.id_of(literal)
        assert snapshot.placement_key(("e1", literal)) == (
            snapshot.id_of("e1"),
            snapshot.id_of(literal),
        )


class TestTriple:
    def test_object_kind_helpers(self):
        value_triple = Triple("alb1", "name_of", Literal("Anthology 2"))
        edge_triple = Triple("alb1", "recorded_by", "art1")
        assert value_triple.object_is_value()
        assert not value_triple.object_is_entity()
        assert edge_triple.object_is_entity()
        assert not edge_triple.object_is_value()

    def test_is_named_tuple(self):
        triple = Triple("s", "p", "o")
        subject, predicate, obj = triple
        assert (subject, predicate, obj) == ("s", "p", "o")


class TestHelpers:
    def test_is_literal_and_is_entity_ref(self):
        assert is_literal(Literal(3))
        assert not is_literal("e1")
        assert is_entity_ref("e1")
        assert not is_entity_ref(Literal(3))

    def test_as_object_wraps_non_strings(self):
        assert as_object(42) == Literal(42)
        assert as_object("e1") == "e1"
        assert as_object(Literal("x")) == Literal("x")
