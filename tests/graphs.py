"""Graph helpers shared by the test modules."""

from __future__ import annotations

from typing import Iterator, List, Set, Tuple

from repro.core.graph import Graph
from repro.core.triples import Triple
from repro.storage import GraphSnapshot


def triples_of(graph: Graph) -> Iterator[Triple]:
    """*graph*'s triples, read without publishing it (``Graph.triples()``
    publishes): node reads only."""
    for subject in graph.entity_ids():
        for predicate, objects in graph.out_row(subject).items():
            for obj in objects:
                yield Triple(subject, predicate, obj)


def types_of(graph: Graph) -> Set[str]:
    """*graph*'s entity types, read without publishing it."""
    return {entity.etype for entity in graph.entities()}


def unpublished(graph: Graph) -> Graph:
    """A graph with *graph*'s content that holds no snapshot yet, as a
    process that has just parsed it does: a session over it builds (or
    store-loads) its own.  Reads *graph* without publishing it."""
    return Graph.from_triples({e.eid: e.etype for e in graph.entities()}, triples_of(graph))


def publish(graph: Graph) -> Tuple[GraphSnapshot, str]:
    """Publish *graph*: its snapshot, and how :meth:`Graph.snapshot` made it
    (``"held"`` when the held snapshot was current, else ``"build"``,
    ``"patch"`` or ``"compaction"``)."""
    hows: List[str] = []

    def record(how, compile):
        hows.append(how)
        return compile()

    return graph.snapshot(record), hows[0]
