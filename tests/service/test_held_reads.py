"""A read the held fixpoint answers is answered at admission.

``MatchingService.submit`` asks the graph's entry for the held answer under
one non-blocking hold of its ingest lock (``RegisteredGraph.held_read``).
When the reuse rule holds (``repro.api.session.held_result``), the request
is answered on the submitting thread and never reaches the admission queue;
everything else — a busy ingest lock, a non-empty journal window, a shape
holding no result — queues as before.  The answers are checked against the
naive fixpoint of a twin graph (``tests/naive_semantics``) on the 36-entity
synthetic graph.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.api.session import MatchSession
from repro.exceptions import ServiceUnavailableError
from repro.service import MatchingService, make_http_server
from repro.service.ingest import apply_mutation
from repro.service.queue import AdmissionController
from tests.naive_semantics import reference_fixpoint
from tests.service.test_served_reads import (
    MR,
    VC,
    classes,
    dataset,
    locator_dataset,
    pair_classes,
    quiet_entities,
    radius_local_ops,
)
from tests.service.test_server import ServiceClient


@pytest.fixture
def service():
    service = MatchingService(max_inflight=2, max_queued=64)
    yield service
    service.close()


@pytest.fixture
def queued(monkeypatch):
    """Every request that reaches ``AdmissionController.submit``."""
    seen = []
    original = AdmissionController.submit

    def submit(self, request, work):
        seen.append(request.id)
        return original(self, request, work)

    monkeypatch.setattr(AdmissionController, "submit", submit)
    return seen


def finished(request):
    assert request.wait(60.0), request
    assert request.status == "done", request.error
    return request


def test_held_reads_never_reach_the_queue(service, queued):
    data = dataset()
    entry = service.register_graph("g", data.graph, data.keys)
    first = {config: finished(service.submit("g", config)) for config in (VC, MR)}
    assert len(queued) == 2

    reads = 12
    for n in range(reads):
        config = (VC, MR)[n % 2]
        request = service.submit("g", config)
        # answered on this thread: done before submit returned
        assert request.status == "done" and request.queue_wait == 0.0
        assert request.started_at == request.submitted_at <= request.finished_at
        assert request.result is first[config].result
        assert request.provenance.keys() == first[config].provenance.keys()
        assert request.provenance["delta"] == {"mode": "reused", "reason": None}
        assert request.provenance["queue_wait_seconds"] == 0.0
        assert request.events_after(0) == ([], 0)  # observer on, no events
        # the worker's answer at this version is the same object
        assert entry.match(config).result.to_dict() == request.result.to_dict()
    assert len(queued) == 2

    admission = service.metrics()["admission"]
    assert admission["answered_at_admission"] == reads
    assert admission["accepted"] == admission["completed"] == reads + 2
    assert admission["inflight"] == 0 and admission["queue_depth"] == 0
    # queue wait averages the two queued requests only
    waits = sum(first[config].queue_wait for config in (VC, MR))
    assert admission["mean_queue_wait_seconds"] == pytest.approx(waits / 2)
    assert admission["mean_run_seconds"] == service.controller.mean_run_seconds()
    assert service.controller.runs_measured == 2

    described = entry.describe()
    # every read counted by mode, and the cache counters moved as on a worker
    assert described["reads_by_mode"] == {
        "reused": 2 * reads, "incremental": 1, "full": 1,
    }
    info = entry.artifacts.cache_info()
    assert info.incremental_runs == 1 + 2 * reads
    assert info.pairs_skipped > 0


class RecordingLock:
    """A graph's ingest lock that logs each acquire and release."""

    def __init__(self, lock, log):
        self._lock = lock
        self._log = log

    def acquire(self, blocking=True, timeout=-1):
        got = self._lock.acquire(blocking, timeout)
        self._log.append(("acquire", blocking, got))
        return got

    def release(self):
        self._log.append(("release",))
        self._lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc):
        self.release()


def test_the_check_and_the_answer_share_one_non_blocking_hold(service, monkeypatch):
    data = dataset()
    entry = service.register_graph("g", data.graph, data.keys)
    finished(service.submit("g", VC))
    log = []
    monkeypatch.setattr(entry, "_ingest_lock", RecordingLock(entry._ingest_lock, log))
    original = MatchSession.rerun

    def logged_rerun(self, **options):
        log.append(("rerun",))
        return original(self, **options)

    monkeypatch.setattr(MatchSession, "rerun", logged_rerun)
    assert service.submit("g", VC).status == "done"
    assert log == [("acquire", False, True), ("rerun",), ("release",)]


def test_a_window_holding_the_ingest_lock_queues_the_read(service, queued, monkeypatch):
    data = dataset()
    entry = service.register_graph("g", data.graph, data.keys)
    finished(service.submit("g", VC))
    twin = data.graph.copy()
    ops = radius_local_ops(random.Random(4), twin, quiet_entities(entry), 0)
    for op in ops:
        apply_mutation(twin, op)

    # a window that has applied its ops and is blocked in its flush
    flushing, release = threading.Event(), threading.Event()
    original = MatchSession.rerun

    def blocked_rerun(self, **options):
        if threading.current_thread().name == "window":
            flushing.set()
            assert release.wait(30.0)
        return original(self, **options)

    monkeypatch.setattr(MatchSession, "rerun", blocked_rerun)
    outcome = {}
    window = threading.Thread(
        target=lambda: outcome.update(
            result=entry.ingest(ops, config=VC, latency_budget=60.0)[1]
        ),
        name="window",
    )
    window.start()
    try:
        assert flushing.wait(30.0)
        request = service.submit("g", VC)
        assert len(queued) == 2 and request.status in ("queued", "running")
        assert service.controller.answered_at_admission == 0
    finally:
        release.set()
        window.join(30.0)
    assert not window.is_alive()

    # answered once the window let go, at the post-window version
    finished(request)
    assert classes(request.result.eq) == pair_classes(reference_fixpoint(twin, data.keys))
    assert request.result is outcome["result"]
    assert request.provenance["delta"]["mode"] == "reused"
    # and the next read of the shape is answered at admission again
    assert service.submit("g", VC).status == "done"
    assert service.controller.answered_at_admission == 1


def test_a_held_lock_queues_the_read_and_ops_behind_the_seed_are_re_planned(
    service, queued
):
    """Ops on the graph that no flush covered leave the journal window
    behind the seed non-empty: the held result must not answer them."""
    data = dataset()
    entry = service.register_graph("g", data.graph, data.keys)
    finished(service.submit("g", VC))
    twin = data.graph.copy()
    ops = radius_local_ops(random.Random(9), twin, quiet_entities(entry), 0)

    with entry._ingest_lock:
        request = service.submit("g", VC)
        assert request.status in ("queued", "running")
        for op in ops:  # a window mid-apply, as the read sees it
            apply_mutation(entry.graph, op)
            apply_mutation(twin, op)
    finished(request)
    assert len(queued) == 2
    assert request.provenance["delta"]["mode"] == "incremental"
    assert classes(request.result.eq) == pair_classes(reference_fixpoint(twin, data.keys))

    # ops straight onto the graph with the lock free: not a held read either
    more = radius_local_ops(random.Random(10), twin, quiet_entities(entry), 1)
    for op in more:
        apply_mutation(entry.graph, op)
        apply_mutation(twin, op)
    later = finished(service.submit("g", VC))
    assert len(queued) == 3 and later.result is not request.result
    assert later.provenance["delta"]["mode"] == "incremental"
    assert classes(later.result.eq) == pair_classes(reference_fixpoint(twin, data.keys))
    assert service.controller.answered_at_admission == 0


def test_reads_on_many_threads_beside_a_window_stream(service):
    """Readers on three threads, one thread ingesting windows that
    identify ``p0`` and ``p1`` and split them again, in turn: every answer
    is the twin's fixpoint at some window boundary between send and reply,
    and the admission counters add up once the run is over."""
    graph, keys = locator_dataset()
    entry = service.register_graph("g", graph, keys)
    finished(service.submit("g", VC))
    twin = graph.copy()
    windows, expected = [], [pair_classes(reference_fixpoint(twin, keys))]
    for serial in range(12):
        zip_code = "z0" if serial % 2 == 0 else f"u{serial}"
        ops = [
            {"op": "set_value", "subject": "w1", "predicate": "zip", "value": zip_code},
            {"op": "add_value", "subject": "w2", "predicate": "tag", "value": f"t{serial}"},
        ]
        for op in ops:
            apply_mutation(twin, op)
        windows.append(ops)
        expected.append(pair_classes(reference_fixpoint(twin, keys)))
    assert expected[1] == [["p0", "p1"]] and expected[2] == []

    progress = {"started": 0, "acked": 0}
    failures, replies = [], []
    stop = threading.Event()

    def writer():
        try:
            for serial, ops in enumerate(windows):
                progress["started"] = serial + 1
                entry.ingest(ops, config=(VC, MR)[serial % 2], latency_budget=60.0)
                progress["acked"] = serial + 1
                time.sleep(0.01)
        finally:
            stop.set()

    def read(config):
        acked = progress["acked"]
        request = service.submit("g", config)
        if not request.wait(60.0) or request.status != "done":
            failures.append((config, request.status, request.error))
            return
        started = progress["started"]
        got = classes(request.result.eq)
        if not any(got == expected[k] for k in range(acked, started + 1)):
            failures.append((config, acked, started, got))
        replies.append(request.provenance["delta"]["mode"])

    def reader(config):
        while not stop.is_set():
            read(config)
        read(config)  # the stream is over: a held answer, at the latest
        read(config)  # on this second read

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(config,)) for config in (VC, MR, VC)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        stop.set()

    assert not failures, failures[:3]
    assert "reused" in replies and "incremental" in replies
    assert service.submit("g", VC).status == "done"  # nothing else in flight
    admission = service.metrics()["admission"]
    terminal = sum(
        admission[counter] for counter in ("completed", "failed", "cancelled", "timed_out")
    )
    assert admission["accepted"] == terminal == len(replies) + 2
    assert admission["inflight"] == 0 and admission["queue_depth"] == 0
    assert 0 < admission["answered_at_admission"] < admission["accepted"]


def test_a_held_read_after_a_drain_starts_gets_a_503(service):
    data = dataset()
    service.register_graph("g", data.graph, data.keys)
    finished(service.submit("g", VC))
    server = make_http_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(*server.server_address)
    try:
        body = {"graph": "g", "algorithm": "EMOptVC", "wait": True}
        status, reply, _ = client.post("/match", body)
        assert status == 200 and reply["provenance"]["delta"]["mode"] == "reused"
        service.drain()
        status, refused, headers = client.post("/match", body)
        assert status == 503 and "drained" in refused["error"]
        assert int(headers["Retry-After"]) >= 1
        with pytest.raises(ServiceUnavailableError):
            service.submit("g", VC)
        assert service.controller.answered_at_admission == 1
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10.0)
