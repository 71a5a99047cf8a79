"""The served read path: reads are delta re-runs on shared per-shape sessions.

A seeded differential test.  One registered graph, two run shapes
(``EMOptVC``, ``EMOptMR``), reads interleaved with ingest windows.  After
every step the served classes must equal ``chase(twin, keys)`` on a twin
graph mutated by the same ops, and the read's ``delta.mode`` must be the one
its position dictates:

* ``reused`` at an unchanged graph version, and under the shape the last
  window ran under (straight off the window's own result);
* ``full`` with the *artifact cache out of step* reason for the shape whose
  seed fell behind the shared cache — never a stale answer;
* ``full`` again for a shape the bounded session table evicted.

The windows are biased to the family of edits that bit twice (PR 8, PR 14):
``set_value`` / ``remove_value`` / ``retype_entity`` within key radius of
entities that never collided, so have no cached d-neighbourhood to go stale.
"""

from __future__ import annotations

import random

import pytest

from repro.api.config import MatchConfig
from repro.core.chase import chase
from repro.datasets.synthetic import synthetic_dataset
from repro.service import registry as registry_module
from repro.service.ingest import apply_mutation
from repro.service.registry import GraphRegistry

VC = MatchConfig(algorithm="EMOptVC")
MR = MatchConfig(algorithm="EMOptMR")
OUT_OF_STEP = "artifact cache out of step with the previous result"
NO_SEED = "no previous result to seed from"
WINDOWS = 10


def dataset():
    return synthetic_dataset(
        num_keys=4, chain_length=2, radius=2, entities_per_type=4, seed=3
    )


def classes(eq):
    return sorted(sorted(members) for members in eq.nontrivial_classes())


class Harness:
    """The registered graph, its twin, and the model of which shapes hold a
    fixpoint for the current graph version."""

    def __init__(self, entry, keys):
        self.entry = entry
        self.keys = keys
        self.twin = entry.graph.copy()
        #: run shape -> does its session hold the answer for this version?
        self.in_step = {}

    def expected(self):
        return classes(chase(self.twin, self.keys).eq)

    def read(self, config):
        shape = config.run_shape()
        read = self.entry.match(config)
        assert classes(read.result.eq) == self.expected(), (config, read.delta)
        if self.in_step.get(shape):
            assert read.delta.mode == "reused", read.delta
        else:
            reason = OUT_OF_STEP if shape in self.in_step else NO_SEED
            assert (read.delta.mode, read.delta.reason) == ("full", reason)
        self.in_step[shape] = True
        return read

    def window(self, config, ops):
        shape = config.run_shape()
        for op in ops:
            apply_mutation(self.twin, op)
        report, result = self.entry.ingest(ops, config=config, latency_budget=60.0)
        assert classes(result.eq) == self.expected(), (config, report)
        assert report.batches == 1
        seeded = self.in_step.get(shape)
        assert set(report.delta_modes) <= (
            {"incremental", "reused"} if seeded else {"full"}
        ), report.delta_modes
        # the window moved the shared cache on: every other shape lags
        self.in_step = {other: other == shape for other in self.in_step}
        self.in_step[shape] = True
        return result


def quiet_entities(entry):
    """Entities that never collided: no cached d-neighbourhood to go stale."""
    return set(entry.graph.entity_ids()) - set(
        entry.artifacts.neighborhood_index().cached_entities()
    )


def radius_local_ops(rng, twin, quiet, serial):
    """Three edits within key radius of *quiet* entities (they never
    collided), then one fresh ``add_value`` so the window always moves the
    graph version."""
    ops = []
    scratch = twin.copy()
    types = sorted(scratch.types())
    for _ in range(3):
        values = sorted(
            (
                (t.subject, t.predicate, t.obj.value)
                for t in scratch.triples()
                if t.object_is_value() and t.subject in quiet
            ),
            key=repr,
        )
        kind = rng.choice(("set_value", "set_value", "remove_value", "retype_entity"))
        if kind == "retype_entity" or not values:
            op = {"op": "retype_entity", "id": rng.choice(sorted(quiet)),
                  "type": rng.choice(types)}
        else:
            subject, predicate, value = rng.choice(values)
            if kind == "remove_value":
                op = {"op": "remove_value", "subject": subject,
                      "predicate": predicate, "value": value}
            else:
                # repoint at a value another entity holds under the same
                # predicate: pairs enter and leave the blocked universe
                donors = sorted(
                    {t.obj.value for t in scratch.triples()
                     if t.object_is_value() and t.predicate == predicate}
                )
                op = {"op": "set_value", "subject": subject,
                      "predicate": predicate, "value": rng.choice(donors)}
        apply_mutation(scratch, op)
        ops.append(op)
    ops.append({"op": "add_value", "subject": rng.choice(sorted(quiet)),
                "predicate": "tag", "value": f"w{serial}"})
    return ops


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_interleaved_reads_and_windows_are_served_from_the_right_fixpoint(seed, tmp_path):
    rng = random.Random(seed)
    data = dataset()
    registry = GraphRegistry(wal_root=tmp_path / "wal")
    entry = registry.register("g", data.graph, data.keys)
    harness = Harness(entry, data.keys)

    # first reads solve; second reads of either shape are the held result
    for config in (VC, MR, MR, VC):
        harness.read(config)
    quiet = quiet_entities(entry)
    assert len(quiet) >= 20  # most entities never collided

    for serial in range(WINDOWS):
        writer, other = (VC, MR) if rng.random() < 0.5 else (MR, VC)
        result = harness.window(
            writer, radius_local_ops(rng, harness.twin, quiet, serial)
        )
        # under the window's own shape: the window's result object itself
        assert harness.read(writer).result is result
        if rng.random() < 0.7:
            # the lagging shape: a full run (never the stale answer), after
            # which it is in step again; sometimes skipped, so the next
            # window may find its own shape's seed behind the cache
            harness.read(other)
            harness.read(other)
        harness.read(writer)

    described = entry.describe()
    reads = described["reads_by_mode"]
    # no read planned a delta: every mutation arrived through a window,
    # whose own flush moved the writer's session on
    assert reads["incremental"] == 0
    assert reads["reused"] > reads["full"] >= 2
    assert sum(reads.values()) == described["runs"]
    assert sorted(described["sessions"]["shapes"]) == sorted(
        [VC.describe(), MR.describe()]
    )
    assert described["sessions"]["evictions"] == 0
    registry.close()


def test_one_shape_past_the_bound_evicts_the_least_recently_used():
    data = dataset()
    entry = GraphRegistry().register("g", data.graph, data.keys)
    harness = Harness(entry, data.keys)
    harness.read(VC)
    harness.read(MR)  # VC is now the least recently used
    extra = [
        MatchConfig(algorithm="EMOptVC", processors=5 + n)
        for n in range(registry_module.MAX_SESSIONS - 1)
    ]
    for config in extra:
        harness.read(config)
    sessions = entry.describe()["sessions"]
    assert sessions["evictions"] == 1
    assert len(sessions["shapes"]) == registry_module.MAX_SESSIONS
    assert VC.describe() not in sessions["shapes"]
    assert sessions["shapes"][0] == MR.describe()

    # the evicted shape lost its fixpoint: its next read solves, correctly
    del harness.in_step[VC.run_shape()]
    read = harness.read(VC)
    assert (read.delta.mode, read.delta.reason) == ("full", NO_SEED)
    # ... and the survivors still answer from theirs
    harness.read(extra[-1])
    assert entry.describe()["sessions"]["evictions"] == 2  # MR went next


def test_wal_recovery_leaves_the_recovered_session_in_the_table(tmp_path):
    rng = random.Random(5)
    data = dataset()
    registry = GraphRegistry(wal_root=tmp_path / "wal")
    entry = registry.register("g", data.graph, data.keys)
    harness = Harness(entry, data.keys)
    harness.read(VC)
    quiet = quiet_entities(entry)
    for serial in range(3):
        harness.window(VC, radius_local_ops(rng, harness.twin, quiet, serial))
    registry.close()

    rebuilt = dataset()
    registry2 = GraphRegistry(wal_root=tmp_path / "wal")
    recovered = registry2.register("g", rebuilt.graph, rebuilt.keys)
    assert recovered.last_recovery["ops_replayed"] == 12
    assert recovered.describe()["sessions"]["shapes"] == [VC.describe()]
    session = recovered.session_for(VC)

    after = Harness(recovered, rebuilt.keys)
    assert after.expected() == harness.expected()
    after.in_step[VC.run_shape()] = True  # the replay's fixpoint answers
    assert after.read(VC).result is session.history[-1][1]
    after.read(MR)  # a shape recovery never ran: solves, then is held
    after.read(MR)
    assert recovered.session_for(VC) is session
    registry2.close()


def test_a_read_after_a_failed_flush_plans_the_delta_itself(monkeypatch):
    """Ops a failed flush left on the graph are covered by the next read:
    the shape's session is still in step with the cache, so the read is a
    delta re-run (``incremental``), not a stale ``reused``."""
    from repro.service.ingest import IngestFlushError

    data = dataset()
    entry = GraphRegistry().register("g", data.graph, data.keys)
    harness = Harness(entry, data.keys)
    harness.read(VC)
    harness.read(MR)
    # two radius-local edits make e0_2_1 a duplicate of e0_2_2 under K0_2
    ops = [
        {"op": "set_value", "subject": "e0_2_1", "predicate": "name_of",
         "value": "name_0_2_2"},
        {"op": "set_value", "subject": "aux_0_2_1_1", "predicate": "locator_of",
         "value": "loc_0_2_2"},
    ]
    session = entry.session_for(VC)
    monkeypatch.setattr(session, "rerun", lambda **_: 1 / 0)
    with pytest.raises(IngestFlushError):
        entry.ingest(ops, config=VC, latency_budget=60.0)
    monkeypatch.undo()
    for op in ops:
        apply_mutation(harness.twin, op)

    read = entry.match(VC)
    assert read.delta.mode == "incremental"
    assert classes(read.result.eq) == harness.expected()
    assert ["e0_2_1", "e0_2_2"] in harness.expected()
    harness.in_step = {VC.run_shape(): True, MR.run_shape(): False}
    harness.read(MR)  # behind the cache the VC read just refreshed: full
    assert entry.describe()["reads_by_mode"]["incremental"] == 1
