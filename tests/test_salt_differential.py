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

Run ``python tests/test_salt_differential.py`` to print one transcript.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

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
SALTS = ("1", "2", "3")


def _windows(graph, count: int):
    """*count* windows of key-relevant and key-free ops, drawn from sorted
    lists so the stream itself is salt-free."""
    rng = random.Random(11)
    entities = sorted(graph.entity_ids())
    names = sorted({t.obj.value for t in graph.triples() if t.predicate == "name_of"})
    types = sorted(graph.types())
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


def test_three_salts_write_the_same_bytes_after_every_window():
    root = Path(__file__).resolve().parents[1]
    outputs = {}
    for salt in SALTS:
        env = {**os.environ, "PYTHONHASHSEED": salt}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, __file__], env=env, capture_output=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr.decode()
        outputs[salt] = done.stdout
    reference = outputs[SALTS[0]]
    assert reference.count(b"\n") == (WINDOWS + 1) * (len(SHAPES) + 1)
    assert b'"cold_cache"' in reference and b'"product_graph_build"' in reference
    assert b'"mode": "incremental"' in reference
    for salt, output in outputs.items():
        if output != reference:
            first = next(
                (a, b) for a, b in zip(reference.splitlines(), output.splitlines()) if a != b
            )
            raise AssertionError(
                f"PYTHONHASHSEED={salt} wrote other bytes than {SALTS[0]}:\n"
                f"{first[0][:600]!r}\n{first[1][:600]!r}"
            )


if __name__ == "__main__":
    sys.stdout.write(transcript())
