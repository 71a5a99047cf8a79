"""A salt differential over the incremental path: set order must not leak.

One scripted ingest stream runs in three interpreters with different
``PYTHONHASHSEED`` values.  After every window each observable below is
written out as bytes, and the three transcripts must be identical:

* the wire-encoded ``EMResult`` (``EMResult.to_dict``, keys sorted) of each
  of the six backends on the serial path, and of ``EMOptVC`` on the thread
  and the process executors — all but ``wall_seconds``, a clock reading;
* the run's ``DeltaProvenance``;
* the shared cache's ``SessionCacheInfo``;
* after every window, the phases ``phase_timings()`` has charged (their
  names, not their clocks), and after the first window the cache's
  counters as its cold builds left them.

The first window runs every shape in full over the quadratic universe;
later windows alternate between it and the blocked one.  Every run shape
reruns on one session, so each window is planned once,
by the shape that leads it (each shape leads one), against the frozen
seed, and the other shapes run on the fixpoint the leader left: the fork's
base-plus-log classes, the planner's dropped classes and the rebased
artifacts all feed the bytes.  Any byte
that differs is a bug, with no list of suites to maintain.

A second, session-less leg runs every backend at ``processors=4`` on the
three workload factories of ``benchmarks/conftest.py`` and diffs the full
``EMStatistics`` of each run.  The salts are chosen to split the ``google``
VC message counters this leg was written for (80 under salts 0-5, 78 under
6, 8, 9 and 11, before their sets were walked in id order); salts 1-3 alone
never did.

A third leg streams windows through a store-backed session on a graph
small enough that the overlay passes its bound: after every window the
name, kind and SHA-256 of every file in the snapshot store — the canonical
file, each window's delta file and the compacted canonical files — then the
session's counters.

Run ``python tests/test_salt_differential.py`` to print one salt's three
transcripts, each after a ``# factories`` line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

#: (algorithm, executor) run shapes, in the order each window reruns them
SHAPES = (
    ("chase", None),
    ("EMMR", None),
    ("EMOptMR", None),
    ("EMVF2MR", None),
    ("EMVC", None),
    ("EMOptVC", None),
    ("EMOptVC", "thread"),
    ("EMOptVC", "process"),
)
#: the quadratic universe on even windows (the first one runs every shape
#: in full over it), the blocked one on odd windows
BLOCKING = ("off", "auto")
#: one window per shape: each shape leads one window, planning it against
#: the frozen seed, while the shapes after it reuse or extend its fixpoint
WINDOWS = len(SHAPES)
#: windows of the store leg: its graph compacts at least twice in them
STORE_WINDOWS = 12
SALTS = ("1", "6", "9")
#: the line between the stream's transcript and the factory leg's
SPLIT = b"# factories\n"
ROOT = Path(__file__).resolve().parents[1]


def _windows(graph, count: int):
    """*count* windows of key-relevant and key-free ops, drawn from sorted
    lists so the stream itself is salt-free."""
    rng = random.Random(11)
    # node and entity reads only: the graph stays unpublished, so the
    # session's first run builds its snapshot
    entities = sorted(graph.entity_ids())
    names = sorted({value.value for e in entities for value in graph.objects(e, "name_of")})
    types = sorted({entity.etype for entity in graph.entities()})
    windows = []
    for window in range(count):
        new = f"salt_new_{window}"
        ops = [
            {"op": "add_value", "subject": rng.choice(entities),
             "predicate": "salt_tag", "value": f"t{window}"},
            {"op": "set_value", "subject": rng.choice(entities),
             "predicate": "name_of", "value": rng.choice(names)},
            {"op": "set_value", "subject": rng.choice(entities),
             "predicate": "name_of", "value": rng.choice(names)},
            {"op": "add_entity", "id": new, "type": rng.choice(types)},
            {"op": "add_value", "subject": new, "predicate": "name_of",
             "value": rng.choice(names)},
            {"op": "add_edge", "subject": rng.choice(entities),
             "predicate": "salt_ref", "object": new},
            {"op": "retype_entity", "id": rng.choice(entities), "type": rng.choice(types)},
        ]
        windows.append(ops)
    return windows


def transcript() -> str:
    """The scripted stream's observables, one JSON line per run."""
    from repro.api.session import MatchSession
    from repro.datasets.synthetic import synthetic_dataset
    from repro.service.ingest import apply_mutation

    dataset = synthetic_dataset(
        num_keys=8, chain_length=2, radius=2, entities_per_type=8, seed=1
    )
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph).with_keys(keys)
    lines = []
    for window, ops in enumerate([[]] + _windows(graph, WINDOWS)):
        for op in ops:
            apply_mutation(graph, op)
        lead = window % len(SHAPES)
        for algorithm, executor in SHAPES[lead:] + SHAPES[:lead]:
            result = session.run(
                algorithm,
                incremental=window > 0,
                executor=executor,
                workers=None if executor is None else 2,
                blocking=BLOCKING[window % 2],
            )
            encoded = result.to_dict()
            encoded["wall_seconds"] = 0.0
            delta = session.last_delta()
            lines.append(json.dumps(
                {
                    "window": window,
                    "shape": [algorithm, executor],
                    "result": encoded,
                    "delta": None if delta is None else dataclasses.asdict(delta),
                    "cache": dataclasses.asdict(session.cache_info()),
                },
                sort_keys=True,
            ))
        summary = {"window": window, "phases": sorted(session.phase_timings())}
        if window == 0:
            summary["cold_cache"] = dataclasses.asdict(session.cache_info())
        lines.append(json.dumps(summary, sort_keys=True))
    return "\n".join(lines) + "\n"


def factory_transcript() -> str:
    """Every backend, session-less at ``processors=4``, on each workload of
    ``benchmarks/conftest.py``: one JSON line of ``EMStatistics`` per run."""
    from repro.api.registry import get_algorithm
    from repro.matching import ALGORITHMS

    path = ROOT / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    lines = []
    for name, factory in sorted(workloads.FACTORIES.items()):
        graph, keys = factory()
        for algorithm in ALGORITHMS:
            result = get_algorithm(algorithm).run(graph, keys, processors=4)
            lines.append(json.dumps(
                {"workload": name, "algorithm": algorithm, "stats": result.stats.as_dict()},
                sort_keys=True,
            ))
    return "\n".join(lines) + "\n"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def store_transcript() -> str:
    """The snapshot store's files after every window of a stream that
    compacts, one JSON line each, then the session's counters."""
    from repro.api.session import MatchSession
    from repro.datasets.synthetic import synthetic_dataset
    from repro.service.ingest import apply_mutation
    from repro.storage.store import SnapshotStore, snapshot_info

    dataset = synthetic_dataset(
        num_keys=4, chain_length=2, radius=2, entities_per_type=3, seed=1
    )
    graph, keys = dataset.graph, dataset.keys
    lines = []
    with tempfile.TemporaryDirectory() as root:
        session = MatchSession(graph, snapshot_store=SnapshotStore(root)).with_keys(keys)
        for window, ops in enumerate([[]] + _windows(graph, STORE_WINDOWS)):
            for op in ops:
                apply_mutation(graph, op)
            session.run("EMOptVC", incremental=window > 0)
            session.write_owed_snapshot()
            files = [
                [path.name, snapshot_info(path)["kind"], _sha256(path)]
                for path in sorted(Path(root).iterdir())
            ]
            lines.append(json.dumps({"window": window, "files": files}, sort_keys=True))
        cache = dataclasses.asdict(session.cache_info())
        lines.append(json.dumps({"cache": cache}, sort_keys=True))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def transcripts():
    """Salt -> this file's three transcripts, ``(stream, factories,
    store)``; the three interpreters run side by side."""
    running = {}
    for salt in SALTS:
        env = {**os.environ, "PYTHONHASHSEED": salt}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        running[salt] = subprocess.Popen(
            [sys.executable, __file__], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
    outputs = {}
    try:
        for salt, child in running.items():
            stdout, stderr = child.communicate(timeout=120)
            assert child.returncode == 0, stderr.decode()
            outputs[salt] = tuple(stdout.split(SPLIT))
    finally:
        for child in running.values():
            child.kill()  # a no-op on a child that exited
            child.wait(timeout=10)
    return outputs


def _assert_one_transcript(outputs) -> None:
    (first_salt, reference), *_ = outputs.items()
    for salt, output in outputs.items():
        if output != reference:
            first = next(
                (a, b) for a, b in zip(reference.splitlines(), output.splitlines()) if a != b
            )
            raise AssertionError(
                f"PYTHONHASHSEED={salt} wrote other bytes than {first_salt}:\n"
                f"{first[0][:600]!r}\n{first[1][:600]!r}"
            )


def test_three_salts_write_the_same_bytes_after_every_window(transcripts):
    outputs = {salt: stream for salt, (stream, _, _) in transcripts.items()}
    reference = outputs[SALTS[0]]
    assert reference.count(b"\n") == (WINDOWS + 1) * (len(SHAPES) + 1)
    assert b'"cold_cache"' in reference and b'"product_graph_build"' in reference
    assert b'"mode": "incremental"' in reference
    _assert_one_transcript(outputs)


def test_session_less_runs_on_the_benchmark_workloads_count_the_same_under_three_salts(
    transcripts,
):
    outputs = {salt: factories for salt, (_, factories, _) in transcripts.items()}
    reference = outputs[SALTS[0]]
    assert reference.count(b"\n") == 3 * 6
    assert b'"workload": "google"' in reference and b'"messages_sent": 0' in reference
    _assert_one_transcript(outputs)


def test_three_salts_write_the_same_store_files_through_compactions(transcripts):
    outputs = {salt: store for salt, (_, _, store) in transcripts.items()}
    lines = outputs[SALTS[0]].splitlines()
    assert len(lines) == STORE_WINDOWS + 2
    kinds = [kind for line in lines[:-1] for _, kind, _ in json.loads(line)["files"]]
    assert "canonical" in kinds and "delta" in kinds
    assert json.loads(lines[-1])["cache"]["snapshot_compactions"] >= 2
    _assert_one_transcript(outputs)


if __name__ == "__main__":
    sys.stdout.write(
        transcript() + SPLIT.decode() + factory_transcript() + SPLIT.decode() + store_transcript()
    )
