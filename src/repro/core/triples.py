"""Primitive data model: entities, literal values and triples.

The paper models a graph ``G`` as a set of triples ``(s, p, o)`` where the
subject ``s`` is always an entity, the predicate ``p`` is a label, and the
object ``o`` is either an entity or a data value.  Entities carry a unique id
and a type; values are compared by value equality, entities by node identity
(their id).

In this package:

* entities are referenced by their string id; their type lives in
  :class:`Entity` records held by the graph;
* values are wrapped in :class:`Literal` so that a triple object is
  unambiguously either an entity reference (a ``str``) or a value
  (a ``Literal``), regardless of the Python type of the value itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, Tuple, Union


@dataclass(frozen=True, slots=True)
class Entity:
    """An entity: a node with a unique id and a type from Θ."""

    eid: str
    etype: str

    def __post_init__(self) -> None:
        if not self.eid:
            raise ValueError("entity id must be a non-empty string")
        if not self.etype:
            raise ValueError("entity type must be a non-empty string")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.eid}:{self.etype}"


class Literal(tuple):
    """A data value from D.

    Two literals are equal exactly when their wrapped values are equal, which
    implements the paper's *value equality* (``d1 = d2``).  The wrapped value
    must be hashable (strings, numbers, booleans, tuples...).  A literal is
    laid out as the 1-tuple of its value, so it hashes in C to
    ``hash((value,))``, yet it equals only literals, never a plain tuple.
    """

    __slots__ = ()

    def __new__(cls, value: object) -> "Literal":
        try:
            hash(value)
        except TypeError as exc:
            raise TypeError(
                f"literal values must be hashable, got {type(value).__name__}"
            ) from exc
        return tuple.__new__(cls, (value,))

    value = property(itemgetter(0), doc="The wrapped value.")

    __hash__ = tuple.__hash__

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    __ne__ = object.__ne__  # the negated __eq__, not the tuple comparison

    def __getnewargs__(self) -> Tuple[object]:
        return (self[0],)

    def __repr__(self) -> str:
        # node orders sort by this string, once per literal per snapshot build
        return f"Literal(value={self[0]!r})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self[0])


#: A triple object is either an entity id (``str``) or a :class:`Literal`.
GraphNode = Union[str, Literal]


class Triple(NamedTuple):
    """A triple ``(subject, predicate, object)``.

    ``subject`` is an entity id, ``predicate`` a label from P, and ``obj``
    either an entity id (``str``) or a :class:`Literal`.
    """

    subject: str
    predicate: str
    obj: GraphNode

    def object_is_value(self) -> bool:
        """Return ``True`` when the object of this triple is a data value."""
        return isinstance(self.obj, Literal)

    def object_is_entity(self) -> bool:
        """Return ``True`` when the object of this triple is an entity."""
        return isinstance(self.obj, str)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.subject}, {self.predicate}, {self.obj})"


def is_literal(node: GraphNode) -> bool:
    """Return ``True`` when *node* is a data value (a :class:`Literal`)."""
    return isinstance(node, Literal)


def is_entity_ref(node: GraphNode) -> bool:
    """Return ``True`` when *node* is an entity reference (an entity id)."""
    return isinstance(node, str)


def as_object(value: object) -> GraphNode:
    """Coerce *value* into a triple object.

    Strings are ambiguous (they could be entity ids or string values), so this
    helper treats plain strings as entity references and everything else as a
    value; wrap strings in :class:`Literal` explicitly when they are values.
    """
    if isinstance(value, (str, Literal)):
        return value
    return Literal(value)
