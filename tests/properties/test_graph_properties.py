"""A differential model for the dict ``Graph``.

``Graph`` keeps two rows per node (subject -> predicate -> objects, object
-> predicate -> subjects) and derives every other read from them.  This
suite runs random mutation sequences against it and against a model that
shares none of its code, ``eid -> type`` plus a set of ``(s, p, o)``, and
after every operation checks each derived read against the model: the
triple set, ``has_triple`` / ``in``, ``out_triples`` / ``in_triples``,
``objects`` / ``subjects``, ``neighbors`` / ``degree``, ``value_nodes``,
the counts, ``==``, ``is_connected`` and ``induced_subgraph``, plus the
running fingerprint, ``copy()`` and the journal (``touched_since(v)``
covers every node whose rows, type or existence changed after ``v``).

The naive oracle (``tests/naive_semantics.py``) reads the dict ``Graph``
too, so this suite is what keeps that oracle independent of the graph's
layout.  The operations lean toward the cases a two-row layout can get
wrong: parallel triples (two predicates between one pair), reverse
triples, self-loops, and removing the last triple of a predicate or of a
literal.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.fingerprint import graph_fingerprint
from repro.core.graph import Graph
from repro.core.triples import GraphNode, Literal, Triple
from repro.exceptions import DuplicateEntityError, UnknownEntityError

ENTITIES = ("a", "b", "c", "d")
#: registered before the drawn operations run ("d" only by an operation)
FIRST = ENTITIES[:3]
TYPES = ("t0", "t1")
PREDICATES = ("p", "q")
LITERALS = (Literal("x"), Literal("y"), Literal(1))
NODES: Tuple[GraphNode, ...] = ENTITIES + LITERALS

class GraphModel:
    """``eid -> type`` and a set of ``(s, p, o)``: the graph as Section 2 says."""

    def __init__(self) -> None:
        self.types: Dict[str, str] = {}
        self.triples: Set[Tuple[str, str, GraphNode]] = set()

    def add_entity(self, eid: str, etype: str) -> None:
        if self.types.get(eid, etype) != etype:
            raise DuplicateEntityError(eid, self.types[eid], etype)
        self.types[eid] = etype

    def add(self, s: str, p: str, o: GraphNode) -> None:
        if s not in self.types or (isinstance(o, str) and o not in self.types):
            raise UnknownEntityError(s)
        self.triples.add((s, p, o))

    def remove(self, s: str, p: str, o: GraphNode) -> None:
        self.triples.discard((s, p, o))

    def set_value(self, s: str, p: str, o: Literal) -> None:
        if s not in self.types:
            raise UnknownEntityError(s)
        self.triples -= {t for t in self.triples if t[:2] == (s, p) and isinstance(t[2], Literal)}
        self.triples.add((s, p, o))

    def retype(self, eid: str, etype: str) -> None:
        if eid not in self.types:
            raise UnknownEntityError(eid)
        self.types[eid] = etype

    def state(self, node: GraphNode):
        """What a node's rows, type and existence are, for the journal check."""
        out = {(p, o) for s, p, o in self.triples if s == node}
        back = {(s, p) for s, p, o in self.triples if o == node}
        return self.types.get(node) if isinstance(node, str) else None, out, back

    def neighbors(self, node: GraphNode) -> Set[GraphNode]:
        return {o for s, _, o in self.triples if s == node} | {
            s for s, _, o in self.triples if o == node
        }


# --------------------------------------------------------------------------- #
# operations: drawn as small integers, resolved against the model's state
# --------------------------------------------------------------------------- #

_KINDS = (
    "add_edge", "add_value", "add_entity", "remove_edge", "remove_value",
    "set_value", "retype_entity",
    # the biased kinds, each resolved onto a triple the model holds
    "parallel", "reverse", "self_loop", "remove_last",
)


def _ops(kinds, min_size, max_size):
    draws = st.tuples(
        st.sampled_from(kinds), st.integers(0, 63), st.integers(0, 63), st.integers(0, 63)
    )
    return st.lists(draws, min_size=min_size, max_size=max_size)


#: a few additions first, so that the mixed tail has triples to work on
operations = st.tuples(
    _ops(("add_edge", "add_value", "parallel", "reverse", "self_loop"), 3, 8),
    _ops(_KINDS, 1, 24),
).map(lambda parts: parts[0] + parts[1])


def _pick(items, index):
    items = sorted(items, key=repr)
    return items[index % len(items)] if items else None


def _resolve(model: GraphModel, kind: str, i: int, j: int, k: int) -> Tuple[str, tuple]:
    """One concrete ``Graph`` call ``(method, args)`` for a drawn operation."""
    entity = ENTITIES[i % len(ENTITIES)]
    other = ENTITIES[j % len(ENTITIES)]
    pred = PREDICATES[k % len(PREDICATES)]
    literal = LITERALS[j % len(LITERALS)]
    if kind == "add_entity":
        return "add_entity", (entity, TYPES[j % len(TYPES)])
    if kind == "retype_entity":
        return "retype_entity", (entity, TYPES[j % len(TYPES)])
    if kind in ("add_edge", "remove_edge"):
        return kind, (entity, pred, other)
    if kind in ("add_value", "remove_value", "set_value"):
        return kind, (entity, pred, literal.value)
    held = _pick(model.triples, i)
    if held is None:
        return "add_entity", (entity, TYPES[0])
    s, p, o = held
    if kind == "parallel":  # a second predicate between one pair
        other_pred = PREDICATES[(PREDICATES.index(p) + 1) % len(PREDICATES)]
        return ("add_edge" if isinstance(o, str) else "add_value"), (
            s, other_pred, o if isinstance(o, str) else o.value
        )
    if kind == "reverse" and isinstance(o, str):
        return "add_edge", (o, p, s)
    if kind == "self_loop":
        return "add_edge", (s, p, s)
    if kind == "remove_last":
        # the last triple of a predicate, else the last of a literal, else any
        lonely = [t for t in model.triples if sum(u[1] == t[1] for u in model.triples) == 1]
        lonely = lonely or [
            t for t in model.triples
            if isinstance(t[2], Literal) and sum(u[2] == t[2] for u in model.triples) == 1
        ]
        s, p, o = _pick(lonely, j) if lonely else held
    if isinstance(o, str):
        return "remove_edge", (s, p, o)
    return "remove_value", (s, p, o.value)


def _apply(graph: Graph, model: GraphModel, method: str, args: tuple) -> None:
    """Apply to both; an operation the model refuses must be refused alike
    and change neither."""
    mirror = {
        "add_entity": model.add_entity,
        "retype_entity": model.retype,
        "add_edge": model.add,
        "add_value": lambda s, p, v: model.add(s, p, Literal(v)),
        "remove_edge": model.remove,
        "remove_value": lambda s, p, v: model.remove(s, p, Literal(v)),
        "set_value": lambda s, p, v: model.set_value(s, p, Literal(v)),
    }[method]
    try:
        mirror(*args)
    except (DuplicateEntityError, UnknownEntityError) as refused:
        before = graph.version
        with pytest.raises(type(refused)):
            getattr(graph, method)(*args)
        assert graph.version == before
        return
    getattr(graph, method)(*args)


# --------------------------------------------------------------------------- #
# the checks
# --------------------------------------------------------------------------- #


def _connected(model: GraphModel) -> bool:
    nodes = set(model.types) | {o for _, _, o in model.triples}
    if not nodes:
        return True
    start = min(nodes, key=repr)
    seen, frontier = {start}, [start]
    while frontier:
        for nbr in model.neighbors(frontier.pop()) - seen:
            seen.add(nbr)
            frontier.append(nbr)
    return seen == nodes


def _check_reads(graph: Graph, model: GraphModel) -> None:
    triples = {Triple(*t) for t in model.triples}
    assert set(graph.triples()) == triples
    assert graph.num_triples == len(graph) == len(triples)
    assert {e.eid: e.etype for e in graph.entities()} == model.types
    assert graph.predicates() == {p for _, p, _ in model.triples}
    assert graph.value_nodes() == {o for _, _, o in model.triples if isinstance(o, Literal)}
    assert graph.num_nodes == len(model.types) + len(graph.value_nodes())
    for s in ENTITIES:
        for p in PREDICATES:
            assert graph.objects(s, p) == {o for t, q, o in model.triples if (t, q) == (s, p)}
            for o in NODES:
                expected = (s, p, o) in model.triples
                assert graph.has_triple(s, p, o) is expected
                assert (Triple(s, p, o) in graph) is expected
    for node in NODES:
        assert graph.out_triples(node) == {t for t in triples if t.subject == node}
        assert graph.in_triples(node) == {t for t in triples if t.obj == node}
        for p in PREDICATES:
            assert graph.subjects(p, node) == {s for s, q, o in model.triples if (q, o) == (p, node)}
        neighbours = model.neighbors(node)
        assert graph.neighbors(node) == neighbours
        assert graph.degree(node) == len(neighbours)
    assert graph.is_connected() is _connected(model)
    keep = set(NODES[::2])
    sub = graph.induced_subgraph(keep)
    assert set(sub.triples()) == {t for t in triples if t.subject in keep and t.obj in keep}
    assert {e.eid for e in sub.entities()} == keep & set(model.types)
    assert graph == Graph.from_triples(model.types, triples)


def _check_copy_and_fingerprint(graph: Graph) -> None:
    assert graph.content_fingerprint() == graph_fingerprint(graph)
    clone = graph.copy()
    assert clone == graph
    assert clone.version >= graph.version and clone.touched_since(clone.version) == set()
    assert clone.content_fingerprint() == graph.content_fingerprint()


def _check_journal(graph: Graph, model: GraphModel, history: List[Tuple[int, dict]]) -> None:
    now = {node: model.state(node) for node in NODES}
    for version, states in history:
        changed = {node for node in NODES if states[node] != now[node]}
        touched = graph.touched_since(version)
        assert touched is not None and changed <= touched, (version, changed - touched)


@given(first=st.lists(st.sampled_from(TYPES), min_size=3, max_size=3), ops=operations)
@settings(max_examples=60, deadline=None)
def test_every_derived_read_follows_the_model(first, ops):
    graph, model = Graph(), GraphModel()
    for eid, etype in zip(FIRST, first):
        _apply(graph, model, "add_entity", (eid, etype))
    history = [(graph.version, {node: model.state(node) for node in NODES})]
    for kind, i, j, k in ops:
        method, args = _resolve(model, kind, i, j, k)
        _apply(graph, model, method, args)
        if kind != method:
            event(f"biased op: {kind}")
        _check_reads(graph, model)
        _check_copy_and_fingerprint(graph)
        _check_journal(graph, model, history)
        history.append((graph.version, {node: model.state(node) for node in NODES}))


def test_a_removal_drops_the_rows_it_empties():
    """The example the fuzzer leans toward, spelled out: a parallel and a
    reverse triple keep the pair adjacent; the last triple of a predicate
    and of a literal takes the predicate and the literal with it."""
    graph = Graph()
    graph.add_entity("a", "t0")
    graph.add_entity("b", "t1")
    graph.add_edge("a", "p", "b")
    graph.add_edge("a", "q", "b")
    graph.add_edge("b", "p", "a")
    graph.add_value("a", "r", "x")
    graph.remove_edge("a", "p", "b")
    assert graph.neighbors("a") == {"b", Literal("x")} and graph.degree("b") == 1
    graph.remove_edge("a", "q", "b")
    assert graph.neighbors("a") == {"b", Literal("x")}  # (b, p, a) still holds
    graph.remove_edge("b", "p", "a")
    assert graph.neighbors("b") == set() and graph.out_triples("b") == set()
    graph.remove_value("a", "r", "x")
    assert graph.predicates() == set() and graph.value_nodes() == set()
    assert graph == Graph.from_triples({"a": "t0", "b": "t1"}, ())
    assert graph.content_fingerprint() == graph_fingerprint(graph)
