"""The served read path: every run seeds from the one fixpoint the graph's
cache holds.

A seeded differential test.  One registered graph, several run shapes —
``EMOptVC`` / ``EMOptMR`` / ``chase`` / ``EMMR`` / ``EMVC``, blocked and
unblocked — reads interleaved with ingest windows.  After every step the
served classes must equal the naive fixpoint of a twin graph mutated by the
same ops (``tests/naive_semantics.reference_fixpoint``, Section 2 read
literally, sharing no code with the matchers), and the step's
``delta.mode`` must be the one the model dictates.  Reads go either
straight to the graph's entry or through ``MatchingService.submit``, where a
held shape is answered at admission and every other read is queued.  The
oracle bounds the graphs to ~40 entities (the 36-entity synthetic graph,
the 8-node locator graph); there the whole suite runs in under 4 s on one
CPU.  The model is two facts: *does the cache hold a fixpoint* (it does
after the graph's very first run, whichever shape ran it), and *which shapes
hold a result for the current graph version* (the cache's bounded
held-result table):

* ``reused`` when the shape already answered at this version — a second
  read, or a read under the shape the last window ran under (straight off
  the window's own result);
* ``incremental`` for everything else the cache can seed: the shape that
  lags the window another shape flushed, a shape the held table evicted,
  a shape never seen before, a window under another shape than the last,
  the read after a failed flush;
* ``full`` for the first run the graph ever sees, and for nothing after it.

The windows are biased to the family of edits that bit twice (PR 8, PR 14):
``set_value`` / ``remove_value`` / ``retype_entity`` within key radius of
entities that never collided, so have no cached d-neighbourhood to go stale.
The last three tests aim at what a shared seed took away — an unblocked
shape no longer starts from a full run of its own that cached every
neighbourhood — on a key whose only value sits one wildcard hop from the
entity it identifies.
"""

from __future__ import annotations

import random
from collections import OrderedDict

import pytest

from repro.api.config import MatchConfig
from repro.api.session import MatchSession
from repro.datasets.synthetic import synthetic_dataset
from repro.matching.artifacts import SessionArtifacts
from repro.service.ingest import apply_mutation
from repro.service.registry import GraphRegistry
from repro.service.server import MatchingService
from tests.naive_semantics import reference_fixpoint

VC = MatchConfig(algorithm="EMOptVC")
MR = MatchConfig(algorithm="EMOptMR")
#: both blocking flavours, every backend family
SHAPES = (
    VC,
    MR,
    MatchConfig(algorithm="EMOptVC", blocking="off"),
    MatchConfig(algorithm="chase"),
    MatchConfig(algorithm="chase", blocking="off"),
    MatchConfig(algorithm="EMMR", blocking="off"),
    MatchConfig(algorithm="EMVC"),
)
NO_SEED = "no previous result to seed from"
WINDOWS = 10


def dataset():
    return synthetic_dataset(
        num_keys=4, chain_length=2, radius=2, entities_per_type=4, seed=3
    )


def classes(eq):
    return sorted(sorted(members) for members in eq.nontrivial_classes())


def pair_classes(pairs):
    """The non-trivial classes of an equivalence given as all its
    ``(smaller, larger)`` pairs: each class hangs off its smallest member."""
    larger = {b for _a, b in pairs}
    groups = {}
    for a, b in pairs:
        if a not in larger:
            groups.setdefault(a, [a]).append(b)
    return sorted(sorted(group) for group in groups.values())


class Harness:
    """The registered graph, its twin, and the model: whether the cache
    holds a fixpoint, and which shapes it holds a result of for the
    current graph version."""

    def __init__(self, entry, keys, *, seeded=False):
        self.entry = entry
        self.keys = keys
        self.twin = entry.graph.copy()
        #: has any run finished on this graph (the cache holds its fixpoint)?
        self.seeded = seeded
        #: the held-result table, least recently used first: run shape ->
        #: does the cache hold its answer for this version?
        self.in_step = OrderedDict()

    def expected(self):
        return pair_classes(reference_fixpoint(self.twin, self.keys))

    def _use(self, shape):
        """The shape's row of the model's held-result table (bounded, LRU)."""
        answered = self.in_step.pop(shape, False)
        self.in_step[shape] = answered
        if len(self.in_step) > SessionArtifacts.MAX_HELD_SHAPES:
            self.in_step.popitem(last=False)
        return answered

    def read(self, config):
        answered = self._use(config.run_shape())
        read = self.entry.match(config)
        self._check(config, answered, read.result, read.delta.mode, read.delta.reason)
        return read

    def served_read(self, service, config):
        """A read through ``MatchingService.submit``: a held shape is
        answered at admission, on this thread; every other read queues."""
        answered = self._use(config.run_shape())
        at_admission = service.controller.answered_at_admission
        request = service.submit(self.entry.name, config)
        hit = service.controller.answered_at_admission - at_admission
        assert hit == (1 if answered else 0), (config, request.status)
        if answered:
            assert request.status == "done" and request.queue_wait == 0.0
        assert request.wait(60.0) and request.status == "done", request.error
        delta = request.provenance["delta"]
        self._check(config, answered, request.result, delta["mode"], delta["reason"])
        return request

    def _check(self, config, answered, result, mode, reason):
        """The step's classes against the oracle, its mode against the model."""
        assert classes(result.eq) == self.expected(), (config, mode)
        assert result.algorithm == config.algorithm
        if answered:
            assert mode == "reused", (config, mode)
        elif self.seeded:
            assert mode == "incremental", (config, mode)
        else:
            assert (mode, reason) == ("full", NO_SEED)
        self.seeded = self.in_step[config.run_shape()] = True

    def window(self, config, ops):
        shape = config.run_shape()
        answered = self._use(shape)
        for op in ops:
            apply_mutation(self.twin, op)
        report, result = self.entry.ingest(ops, config=config, latency_budget=60.0)
        assert classes(result.eq) == self.expected(), (config, report)
        assert result.algorithm == config.algorithm
        assert report.batches == 1
        if not self.seeded:
            allowed = {"full"}
        elif answered:
            # a delta that implicates nothing returns the held result
            allowed = {"incremental", "reused"}
        else:
            allowed = {"incremental"}
        assert set(report.delta_modes) <= allowed, (config, report.delta_modes)
        # the window moved the graph on: every other shape's result lags
        for other in self.in_step:
            self.in_step[other] = other == shape
        self.seeded = True
        return result

    def check_session_table(self):
        sessions = self.entry.describe()["sessions"]
        assert sessions["shapes"] == [
            config.describe()
            for shape in self.in_step
            for config in SHAPES
            if config.run_shape() == shape
        ]
        assert sessions["seed_version"] == self.entry.graph.version


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

    # the graph's first read solves; the other shape's first read is seeded
    # from it; second reads of either shape are the held result
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
            # the lagging shape: an empty window against the writer's
            # fixpoint, after which it holds the answer; sometimes skipped,
            # so the next window may run under a shape that never saw this one
            harness.read(other)
            harness.read(other)
        harness.read(writer)

    described = entry.describe()
    reads = described["reads_by_mode"]
    # one full run in the graph's life: its very first
    assert reads["full"] == 1
    assert reads["reused"] > reads["incremental"] >= 2
    assert sum(reads.values()) == described["runs"]
    harness.check_session_table()
    assert described["sessions"]["evictions"] == 0
    registry.close()


@pytest.mark.parametrize("seed", [2, 5, 11, 17])
def test_any_shape_reads_and_writes_from_the_fixpoint_any_other_left(seed):
    """The whole shape matrix, steps drawn at random: whichever shape ran
    last, the next read or window — under any shape, held, lagging, evicted
    or never seen — is seeded from it, and exact."""
    rng = random.Random(seed)
    data = dataset()
    service = MatchingService(max_inflight=2)
    entry = service.register_graph("g", data.graph, data.keys)
    harness = Harness(entry, data.keys)
    harness.read(rng.choice((VC, MR)))  # the one full run
    quiet = quiet_entities(entry)  # before an unblocked shape caches them all
    assert len(quiet) >= 20

    modes = {"reused": 0, "incremental": 0, "full": 0}
    for serial in range(40):
        config = rng.choice(SHAPES)
        draw = rng.random()
        if draw < 0.35:
            harness.window(config, radius_local_ops(rng, harness.twin, quiet, serial))
        elif draw < 0.65:
            request = harness.served_read(service, config)
            modes[request.provenance["delta"]["mode"]] += 1
        else:
            modes[harness.read(config).delta.mode] += 1
        harness.check_session_table()
    assert modes["full"] == 0 and modes["incremental"] and modes["reused"]
    admission = service.controller.metrics()
    assert admission["answered_at_admission"] > 0
    assert admission["completed"] > admission["answered_at_admission"]
    service.close()
    assert entry.describe()["sessions"]["evictions"] > 0
    # the blocked flavours shared one collision pass per graph version
    assert entry.artifacts.timings["blocking_collision"] > 0.0


def test_one_shape_past_the_bound_evicts_a_result_not_the_fixpoint():
    data = dataset()
    entry = GraphRegistry().register("g", data.graph, data.keys)
    harness = Harness(entry, data.keys)
    harness.read(VC)
    harness.read(MR)  # VC is now the least recently used
    extra = [
        MatchConfig(algorithm="EMOptVC", processors=5 + n)
        for n in range(SessionArtifacts.MAX_HELD_SHAPES - 1)
    ]
    for config in extra:
        harness.read(config)  # never seen, seeded all the same
    sessions = entry.describe()["sessions"]
    assert sessions["evictions"] == 1
    assert len(sessions["shapes"]) == SessionArtifacts.MAX_HELD_SHAPES
    assert VC.describe() not in sessions["shapes"]
    assert sessions["shapes"][0] == MR.describe()

    # the evicted shape lost its result object, not the fixpoint
    assert VC.run_shape() not in harness.in_step
    assert harness.read(VC).delta.mode == "incremental"
    # ... and the survivors still answer from theirs
    assert harness.read(extra[-1]).delta.mode == "reused"
    assert entry.describe()["sessions"]["evictions"] == 2  # MR went next
    assert entry.describe()["reads_by_mode"]["full"] == 1


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
    assert recovered.last_recovery["checkpoints_verified"] == 3
    assert recovered.last_recovery["batches"] == 1  # solves, not windows
    assert recovered.describe()["sessions"]["shapes"] == [VC.describe()]
    replayed = recovered.artifacts.held(VC)
    assert replayed is not None  # the replay's result, at this version

    after = Harness(recovered, rebuilt.keys, seeded=True)
    assert after.expected() == harness.expected()
    after.in_step[VC.run_shape()] = True  # the replay's fixpoint answers
    assert after.read(VC).result is replayed
    after.read(MR)  # a shape recovery never ran: seeded from the replay's
    after.read(MR)
    after.check_session_table()
    assert recovered.describe()["reads_by_mode"]["full"] == 0
    registry2.close()


def test_a_read_after_a_failed_flush_plans_the_delta_itself(monkeypatch):
    """Ops a failed flush left on the graph are covered by the next read:
    the failed run left the cache's seed alone, so the read is a delta
    re-run (``incremental``), not a stale ``reused``."""
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
    monkeypatch.setattr(MatchSession, "rerun", lambda self, **_: 1 / 0)
    with pytest.raises(IngestFlushError):
        entry.ingest(ops, config=VC, latency_budget=60.0)
    monkeypatch.undo()
    for op in ops:
        apply_mutation(harness.twin, op)

    read = entry.match(VC)
    assert read.delta.mode == "incremental" and read.delta.touched_nodes > 0
    assert classes(read.result.eq) == harness.expected()
    assert ["e0_2_1", "e0_2_2"] in harness.expected()
    for shape in harness.in_step:
        harness.in_step[shape] = shape == VC.run_shape()
    # the other shape plans nothing of its own: the VC read's fixpoint
    assert harness.read(MR).delta.touched_nodes == 0
    assert entry.describe()["reads_by_mode"] == {
        "reused": 0, "incremental": 3, "full": 1,
    }


# --------------------------------------------------------------------------- #
# an unblocked window seeded by a blocked sibling: nothing it needs is cached
# --------------------------------------------------------------------------- #

UNBLOCKED = MatchConfig(algorithm="EMOptVC", blocking="off")


def locator_dataset():
    """Four persons, each one wildcard hop (``lives``) from an address that
    holds the key's only value: ``x -lives-> _w -zip-> z*``.  No two zips
    agree, so under blocking no person ever collides — none gets a cached
    d-neighbourhood — and an edit to an address touches the address and the
    value only, never the person the key is about."""
    from repro.core.graph import Graph
    from repro.core.key import Key, KeySet
    from repro.core.pattern import PatternTriple, designated, value_var, wildcard

    graph = Graph()
    for n in range(4):
        graph.add_entity(f"p{n}", "person")
        graph.add_entity(f"w{n}", "addr")
        graph.add_edge(f"p{n}", "lives", f"w{n}")
        graph.add_value(f"w{n}", "zip", f"z{n}")
    x, hop = designated("x", "person"), wildcard("w", "addr")
    key = Key.from_triples(
        [PatternTriple(x, "lives", hop), PatternTriple(hop, "zip", value_var("z"))],
        name="K",
    )
    return graph, KeySet([key])


def test_an_unblocked_window_after_a_blocked_read_checks_never_cached_entities():
    graph, keys = locator_dataset()
    entry = GraphRegistry().register("g", graph, keys)
    harness = Harness(entry, keys)
    harness.read(VC)  # blocked: the graph's one full run
    assert not entry.artifacts.neighborhood_index().cached_entities()

    # a shape never seen before, unblocked, writes one hop from p1
    harness.window(
        UNBLOCKED,
        [{"op": "set_value", "subject": "w1", "predicate": "zip", "value": "z0"}],
    )
    assert harness.expected() == [["p0", "p1"]]
    harness.read(VC)


def test_an_unblocked_window_checks_entities_a_blocked_window_evicted():
    graph, keys = locator_dataset()
    entry = GraphRegistry().register("g", graph, keys)
    harness = Harness(entry, keys)
    harness.read(UNBLOCKED)  # caches every person's d-neighbourhood

    def cached():  # a window rebases the index into a new object
        return entry.artifacts.neighborhood_index().cached_entities()

    assert "p1" in cached()

    # a blocked window one hop from p0 and p1 evicts their balls; they still
    # collide with nobody, so the blocked run has no reason to walk them again
    harness.window(
        VC,
        [
            {"op": "set_value", "subject": "w0", "predicate": "zip", "value": "q0"},
            {"op": "set_value", "subject": "w1", "predicate": "zip", "value": "q1"},
        ],
    )
    assert not {"p0", "p1"} & cached()
    assert harness.expected() == []

    harness.window(
        UNBLOCKED,
        [{"op": "set_value", "subject": "w1", "predicate": "zip", "value": "q0"}],
    )
    assert harness.expected() == [["p0", "p1"]]


@pytest.mark.parametrize("seed", [3, 13, 29])
def test_windows_one_hop_from_the_keyed_entity_under_any_shape(seed):
    """Mostly windows, few reads, every edit one wildcard hop from the
    entities the key is about: identifications come and go with every
    window, and which neighbourhoods are cached depends on which shapes
    happened to run — the plan must not."""
    rng = random.Random(seed)
    graph, keys = locator_dataset()
    entry = GraphRegistry().register("g", graph, keys)
    harness = Harness(entry, keys)
    harness.read(rng.choice((VC, MR)))
    pool = ["z0", "z1", "q"]
    for serial in range(30):
        config = rng.choice(SHAPES)
        if rng.random() < 0.2:
            harness.read(config)
            continue
        ops = [
            {"op": "set_value", "subject": f"w{rng.randrange(4)}",
             "predicate": "zip", "value": rng.choice(pool + [f"u{serial}"])}
            for _ in range(rng.randint(1, 2))
        ]
        # a fresh value, so the window moves the version whatever it re-set
        ops.append({"op": "add_value", "subject": f"w{rng.randrange(4)}",
                    "predicate": "tag", "value": f"t{serial}"})
        harness.window(config, ops)
    assert entry.describe()["reads_by_mode"]["full"] == 1
