"""Deterministic inputs: graphs, mutation streams and request schedules.

Everything here is a pure function of ``--seed``.  The program under test
receives only what these functions return.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.datasets.music import music_dataset
from repro.datasets.synthetic import SyntheticDataset, synthetic_dataset

Op = Dict[str, object]

#: backend sweep order of ``batch_warm_backends`` (fixed, interleaved)
BACKENDS = ("chase", "EMMR", "EMOptMR", "EMVF2MR", "EMVC", "EMOptVC")
MR_BACKENDS = ("EMMR", "EMOptMR", "EMVF2MR")
VC_BACKENDS = ("EMVC", "EMOptVC")

#: ops per ingest window: count-triggered, so batch boundaries repeat exactly
STREAM_WINDOW_OPS = 32
#: ops per ``POST /graphs/hot/ingest`` window in ``serve_mixed``
HOT_WINDOW_OPS = 8
#: client 0 sends an ingest window as every n-th request.  At every 10th,
#: reads that pay for a refresh after a write were ~5 % of all reads, so
#: the p95 sat on the edge of that population and jumped between runs.
INGEST_EVERY = 5


def cold_dataset(seed: int, smoke: bool = False) -> SyntheticDataset:
    """Wide, shallow keys on ~6.9k entities: artifact builds dominate."""
    return synthetic_dataset(
        num_keys=8, chain_length=2, radius=2, entities_per_type=8,
        scale=2 if smoke else 48, seed=seed,
    )


def warm_dataset(seed: int, smoke: bool = False) -> SyntheticDataset:
    """Deep recursive keys (chains of 5) on ~2.9k entities: solves dominate."""
    return synthetic_dataset(
        num_keys=10, chain_length=5, radius=2, entities_per_type=8,
        scale=1 if smoke else 16, seed=seed,
    )


def hot_dataset(seed: int, smoke: bool = False) -> SyntheticDataset:
    """The mutated graph of ``serve_mixed`` and ``ingest_recover`` (scale 4)."""
    return synthetic_dataset(
        num_keys=8, chain_length=2, radius=2, entities_per_type=8,
        scale=1 if smoke else 4, seed=seed,
    )


def small_dataset():
    """The paper's music example: six entities, two identified pairs."""
    return music_dataset()


class _Mutator:
    """Emits wire-format mutations that only name ids existing by then:
    base entities, or entities an earlier op of the same stream added."""

    def __init__(self, graph, rng: random.Random) -> None:
        self.rng = rng
        self.entities = sorted(graph.entity_ids())
        self.types = sorted(graph.types())
        self.editable = sorted(
            ((triple.subject, triple.predicate, triple.obj.value)
             for triple in graph.triples() if triple.object_is_value()),
            key=repr,
        )
        self.donors: Dict[str, list] = {}
        for _, predicate, value in self.editable:
            self.donors.setdefault(predicate, []).append(value)
        self.streamed: List[Tuple[str, str, str]] = []
        self.index = 0

    def emit(self, kind: str) -> List[Op]:
        rng = self.rng
        self.index += 1
        if kind == "remove_value" and self.streamed:
            subject, predicate, value = self.streamed.pop(rng.randrange(len(self.streamed)))
            return [{"op": "remove_value", "subject": subject,
                     "predicate": predicate, "value": value}]
        if kind == "set_value":
            # edits a value the base graph holds, to a value some entity
            # holds under the same predicate: matches appear and vanish
            subject, predicate, _ = rng.choice(self.editable)
            return [{"op": "set_value", "subject": subject, "predicate": predicate,
                     "value": rng.choice(self.donors[predicate])}]
        if kind == "add_entity":
            eid = f"stream_{self.index}"
            target = rng.choice(self.entities)
            self.entities.append(eid)
            return [{"op": "add_entity", "id": eid, "type": rng.choice(self.types)},
                    {"op": "add_edge", "subject": eid,
                     "predicate": "stream_ref", "object": target}]
        if kind == "retype_entity":
            return [{"op": "retype_entity", "id": rng.choice(self.entities),
                     "type": rng.choice(self.types)}]
        # add_value (also: a remove_value with nothing streamed yet)
        subject = rng.choice(self.entities)
        predicate = f"stream_tag_{rng.randrange(3)}"
        value = f"s{self.index}"
        self.streamed.append((subject, predicate, value))
        return [{"op": "add_value", "subject": subject,
                 "predicate": predicate, "value": value}]


#: the stream's mix, exact per block of 100 mutations (an ``add_entity``
#: brings its ``add_edge`` along, so a block is 110 ops).  Drawing kinds
#: independently instead made the share of expensive, key-relevant edits
#: drift with the seed, and the staleness percentiles with it.
_STREAM_BLOCK = (
    ("add_value",) * 80 + ("set_value",) * 5 + ("add_entity",) * 10
    + ("remove_value",) * 3 + ("retype_entity",) * 2
)
#: one ``serve_mixed`` ingest window: 8 ops, always one key-relevant edit.
#: With a random mix 44 % of windows held such an edit and the write median
#: sat on the boundary between cheap and expensive windows.
_HOT_WINDOW = ("add_value",) * 5 + ("set_value", "add_entity")


def op_stream(graph, seed: int) -> Iterator[Op]:
    """An endless mutation stream over *graph* in the ingest wire vocabulary:
    80 % ``add_value``, 5 % ``set_value``, 10 % ``add_entity`` + ``add_edge``,
    3 % ``remove_value`` of a value streamed earlier, 2 % ``retype_entity``,
    shuffled within each block of 100."""
    rng = random.Random(seed)
    mutator = _Mutator(graph, rng)
    while True:
        block = list(_STREAM_BLOCK)
        rng.shuffle(block)
        for kind in block:
            yield from mutator.emit(kind)


def take(stream: Iterator[Op], count: int) -> List[Op]:
    return [next(stream) for _ in range(count)]


def hot_windows(graph, seed: int, count: int) -> List[List[Op]]:
    """*count* ingest windows of :data:`HOT_WINDOW_OPS` ops for ``hot``."""
    rng = random.Random(seed)
    mutator = _Mutator(graph, rng)
    windows: List[List[Op]] = []
    for _ in range(count):
        kinds = list(_HOT_WINDOW)
        rng.shuffle(kinds)
        windows.append([op for kind in kinds for op in mutator.emit(kind)])
    return windows


def ops_jsonl(ops: Sequence[Op]) -> bytes:
    """The JSONL wire form ``repro ingest`` reads, one op per line."""
    return "".join(json.dumps(op, sort_keys=True) + "\n" for op in ops).encode()


def request_schedule(seed: int, clients: int, length: int) -> List[List[Dict[str, object]]]:
    """Per client, about *length* request descriptors in send order.

    Every client reads in cycles of ``INGEST_EVERY - 1`` requests, half
    ``EMOptMR`` and half ``EMOptVC`` in seeded order.  Client 0 reads
    ``hot`` and ends each cycle with the next ingest window (named by its
    index: windows go out once, in order); the others read ``small``.
    """
    rng = random.Random(seed)
    schedule: List[List[Dict[str, object]]] = []
    for client in range(clients):
        graph = "hot" if client == 0 else "small"
        requests: List[Dict[str, object]] = []
        for cycle in range(length // INGEST_EVERY):
            algorithms = ["EMOptMR", "EMOptVC"] * ((INGEST_EVERY - 1) // 2)
            rng.shuffle(algorithms)
            requests.extend(
                {"kind": "match", "graph": graph, "algorithm": algorithm}
                for algorithm in algorithms
            )
            if client == 0:
                requests.append({"kind": "ingest", "window": cycle})
        schedule.append(requests)
    return schedule
