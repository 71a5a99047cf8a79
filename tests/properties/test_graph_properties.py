"""A differential model for the ``Graph``.

``Graph`` holds its published snapshot plus the rows written since (the
forward and backward row of each node a write touched).  This suite runs
random mutation sequences, with publishes drawn among them, against it and
against a model that shares none of its code, ``eid -> type`` plus a set of
``(s, p, o)``.  After every operation it checks each node read against the
model — ``has_triple`` / ``in``, ``out_triples`` / ``in_triples``,
``objects`` / ``subjects``, ``neighbors`` / ``degree``, the entity reads
and the counts — and that those reads published nothing.  After every
publish it checks the whole-graph reads: the triple set, ``value_nodes``,
``num_nodes``, ``==``, ``is_connected`` and ``induced_subgraph``, plus the
running fingerprint, ``copy()`` and the journal (``touched_since(v)``
covers every node whose rows, type or existence changed after ``v``).

The naive oracle (``tests/naive_semantics.py``) reads the ``Graph`` too,
so this suite is what keeps that oracle independent of the graph's layout.
The operations lean toward the cases the layout can get wrong: parallel
triples (two predicates between one pair), reverse triples, self-loops,
removing the last triple of a predicate or of a literal, and writing a node
whose rows only the held snapshot has.
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

from tests.graphs import publish
from tests.reach import reach

ENTITIES = ("a", "b", "c", "d")
#: registered before the drawn operations run ("d" only by an operation)
FIRST = ENTITIES[:3]
TYPES = ("t0", "t1")
PREDICATES = ("p", "q")
LITERALS = (Literal("x"), Literal("y"), Literal(1))
NODES: Tuple[GraphNode, ...] = ENTITIES + LITERALS

#: the transitions this suite exists for
LITERAL_RETURNS = "a literal loses its last triple, then returns"
HELD_ROW_WRITE = "a write hits a node whose row only the held snapshot has"
MID_WINDOW_READ = "a node read happens mid-window and leaves the held snapshot as it was"
PUBLISH_COMPACTS = "a publish compacts"

class GraphModel:
    """``eid -> type`` and a set of ``(s, p, o)``: the graph as Section 2 says."""

    def __init__(self) -> None:
        self.types: Dict[str, str] = {}
        self.triples: Set[Tuple[str, str, GraphNode]] = set()
        #: literals whose last triple went (the reach tally watches them return)
        self.gone: Set[Literal] = set()

    def add_entity(self, eid: str, etype: str) -> None:
        if self.types.get(eid, etype) != etype:
            raise DuplicateEntityError(eid, self.types[eid], etype)
        self.types[eid] = etype

    def add(self, s: str, p: str, o: GraphNode) -> None:
        if s not in self.types or (isinstance(o, str) and o not in self.types):
            raise UnknownEntityError(s)
        self.triples.add((s, p, o))
        if o in self.gone:
            self.gone.discard(o)
            reach(LITERAL_RETURNS)

    def remove(self, s: str, p: str, o: GraphNode) -> None:
        self._drop({(s, p, o)})

    def set_value(self, s: str, p: str, o: Literal) -> None:
        if s not in self.types:
            raise UnknownEntityError(s)
        self._drop({t for t in self.triples if t[:2] == (s, p) and isinstance(t[2], Literal)})
        self.add(s, p, o)

    def _drop(self, triples) -> None:
        self.triples -= triples
        live = {o for _, _, o in self.triples}
        self.gone |= {o for _, _, o in triples if isinstance(o, Literal) and o not in live}

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
    # a literal whose last triple went comes back
    "revive",
    # a publish between writes (whole-graph reads are checked after it)
    "publish", "publish",
)


def _ops(kinds, min_size, max_size):
    draws = st.tuples(
        st.sampled_from(kinds), st.integers(0, 63), st.integers(0, 63), st.integers(0, 63)
    )
    return st.lists(draws, min_size=min_size, max_size=max_size)


#: a few additions first, published, so that the mixed tail has triples to
#: work on and a held snapshot to write over
operations = st.tuples(
    _ops(("add_edge", "add_value", "parallel", "reverse", "self_loop"), 3, 8),
    _ops(_KINDS, 1, 24),
).map(lambda parts: parts[0] + [("publish", 0, 0, 0)] + parts[1])


def _pick(items, index):
    items = sorted(items, key=repr)
    return items[index % len(items)] if items else None


def _resolve(model: GraphModel, kind: str, i: int, j: int, k: int) -> Tuple[str, tuple]:
    """One concrete ``Graph`` call ``(method, args)`` for a drawn operation."""
    if kind == "publish":
        return "snapshot", ()
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
    if kind == "revive" and model.gone and model.types:
        return "add_value", (_pick(model.types, i), pred, _pick(model.gone, j).value)
    if kind in ("add_value", "remove_value", "set_value", "revive"):
        return ("add_value" if kind == "revive" else kind), (entity, pred, literal.value)
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
    if method == "snapshot":
        _publish(graph)
        return
    held = graph.held_snapshot
    if held is not None and method not in ("add_entity", "retype_entity"):
        endpoints = {args[0], args[2] if method.endswith("edge") else Literal(args[2])}
        if any(
            node not in graph.written_nodes() and (held.out_row(node) or held.in_row(node))
            for node in endpoints
        ):
            before = graph.version
            _mirror_and_apply(graph, model, method, args)
            if graph.version != before:
                reach(HELD_ROW_WRITE)
            return
    _mirror_and_apply(graph, model, method, args)


def _publish(graph: Graph) -> None:
    snapshot, how = publish(graph)
    assert graph.held_snapshot is snapshot and graph.written_nodes() == set()
    assert snapshot.version == graph.version
    if how == "compaction":
        assert snapshot.lineage is snapshot
        reach(PUBLISH_COMPACTS)


def _mirror_and_apply(graph: Graph, model: GraphModel, method: str, args: tuple) -> None:
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


def _check_node_reads(graph: Graph, model: GraphModel) -> None:
    """The reads that never publish: the held snapshot stays as it was."""
    held, written = graph.held_snapshot, graph.written_nodes()
    version = None if held is None else held.version
    triples = {Triple(*t) for t in model.triples}
    assert graph.num_triples == len(graph) == len(triples)
    assert {e.eid: e.etype for e in graph.entities()} == model.types
    assert graph.num_entities == len(model.types)
    for eid in ENTITIES:
        assert graph.has_entity(eid) is (eid in model.types)
        if eid in model.types:
            assert graph.entity_type(eid) == model.types[eid]
    assert graph.predicates() == {p for _, p, _ in model.triples}
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
    assert graph.held_snapshot is held and graph.written_nodes() == written
    if held is not None:
        assert held.version == version
        if written:
            reach(MID_WINDOW_READ)


def _check_whole_reads(graph: Graph, model: GraphModel) -> None:
    """The reads that publish, on a published graph."""
    triples = {Triple(*t) for t in model.triples}
    assert set(graph.triples()) == triples
    assert graph.value_nodes() == {o for _, _, o in model.triples if isinstance(o, Literal)}
    assert graph.num_nodes == len(model.types) + len(graph.value_nodes())
    assert graph.is_connected() is _connected(model)
    keep = set(NODES[::2])
    sub = graph.induced_subgraph(keep)
    assert set(sub.triples()) == {t for t in triples if t.subject in keep and t.obj in keep}
    assert {e.eid for e in sub.entities()} == keep & set(model.types)
    assert graph == Graph.from_triples(model.types, triples)


def _check_copy_and_fingerprint(graph: Graph, model: GraphModel) -> None:
    """A copy shares the held snapshot and reads as the graph does; it is
    published here, and the graph is not."""
    clone = graph.copy()
    assert clone.held_snapshot is graph.held_snapshot
    assert clone.written_nodes() == graph.written_nodes()
    _check_node_reads(clone, model)
    assert clone.content_fingerprint() == graph.content_fingerprint() == graph_fingerprint(clone)
    assert clone == Graph.from_triples(model.types, {Triple(*t) for t in model.triples})
    assert clone.version >= graph.version and clone.touched_since(clone.version) == set()


def _check_journal(graph: Graph, model: GraphModel, history: List[Tuple[int, dict]]) -> None:
    now = {node: model.state(node) for node in NODES}
    for version, states in history:
        changed = {node for node in NODES if states[node] != now[node]}
        touched = graph.touched_since(version)
        assert touched is not None and changed <= touched, (version, changed - touched)


@pytest.mark.reaches(LITERAL_RETURNS, 10)
@pytest.mark.reaches(HELD_ROW_WRITE, 40)
@pytest.mark.reaches(MID_WINDOW_READ, 200)
@pytest.mark.reaches(PUBLISH_COMPACTS, 20)
@given(first=st.lists(st.sampled_from(TYPES), min_size=3, max_size=3), ops=operations)
@settings(max_examples=60, deadline=None)
def test_every_derived_read_follows_the_model(first, ops):
    graph, model = Graph(), GraphModel()
    for eid, etype in zip(FIRST, first):
        _apply(graph, model, "add_entity", (eid, etype))
    history = [(graph.version, {node: model.state(node) for node in NODES})]
    for kind, i, j, k in ops + [("publish", 0, 0, 0)]:
        method, args = _resolve(model, kind, i, j, k)
        _apply(graph, model, method, args)
        if kind != method:
            event(f"biased op: {kind}")
        _check_node_reads(graph, model)
        if method == "snapshot":
            _check_whole_reads(graph, model)
        _check_copy_and_fingerprint(graph, model)
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
