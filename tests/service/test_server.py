"""End-to-end tests of the ``repro serve`` HTTP front end.

The acceptance contract: a live server handles many concurrent match
requests across several named graphs, every result is bit-identical to a
synchronous :meth:`MatchSession.run` for the same backend, each graph's
snapshot is built exactly once (the shared-store multiplexing contract),
and over-limit load is rejected cleanly with a 429.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import ALGORITHMS, MatchSession
from repro.core.parser import serialize_graph, serialize_keys
from repro.datasets.business import business_dataset
from repro.datasets.music import music_dataset
from repro.matching.result import EMResult
from repro.service import MatchingService, make_http_server
from tests.test_cli import PINNED_ALGORITHM_CATALOG


class ServiceClient:
    """A tiny JSON-over-HTTP client bound to one test server."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port

    def request(self, method: str, path: str, body=None, timeout: float = 120.0):
        connection = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = json.loads(response.read().decode("utf-8"))
            return response.status, data, dict(response.getheaders())
        finally:
            connection.close()

    def get(self, path, **kw):
        return self.request("GET", path, **kw)

    def post(self, path, body, **kw):
        return self.request("POST", path, body=body, **kw)

    def delete(self, path, **kw):
        return self.request("DELETE", path, **kw)


def start_server(service):
    server = make_http_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, ServiceClient(*server.server_address)


@pytest.fixture
def live():
    """A live server over a fresh service with a tmp shared store."""
    service = MatchingService(max_inflight=4, max_queued=32)
    server, client = start_server(service)
    yield service, client
    server.shutdown()
    server.server_close()
    service.close()


def register_music(client, name="music"):
    status, data, _ = client.post("/graphs", {"name": name, "dataset": "music"})
    assert status == 201, data
    return data["registered"]


def register_business(client, name="business"):
    graph, keys = business_dataset()
    status, data, _ = client.post(
        "/graphs",
        {
            "name": name,
            "graph_text": serialize_graph(graph),
            "keys_text": serialize_keys(keys),
        },
    )
    assert status == 201, data
    return data["registered"]


def result_key(result: EMResult):
    return (
        result.algorithm,
        result.stats.identified_pairs,
        tuple(sorted(tuple(sorted(c)) for c in result.eq.nontrivial_classes())),
    )


class TestBasicEndpoints:
    def test_healthz(self, live):
        _service, client = live
        status, data, _ = client.get("/healthz")
        assert status == 200 and data["ok"] is True

    def test_algorithms_catalog(self, live):
        _service, client = live
        status, data, _ = client.get("/algorithms")
        assert status == 200
        assert data == {"algorithms": PINNED_ALGORITHM_CATALOG}

    def test_register_list_and_unregister(self, live):
        _service, client = live
        registered = register_music(client)
        assert registered["name"] == "music" and registered["entities"] > 0
        status, data, _ = client.get("/graphs")
        assert status == 200
        assert [g["name"] for g in data["graphs"]] == ["music"]
        # duplicate names conflict unless replace=true
        status, data, _ = client.post("/graphs", {"name": "music", "dataset": "music"})
        assert status == 409
        status, _, _ = client.post(
            "/graphs", {"name": "music", "dataset": "music", "replace": True}
        )
        assert status == 201
        status, _, _ = client.delete("/graphs/music")
        assert status == 200
        status, data, _ = client.get("/graphs")
        assert data["graphs"] == []

    def test_inline_dsl_registration_round_trips(self, live):
        _service, client = live
        graph, _keys = business_dataset()
        registered = register_business(client)
        assert registered["entities"] == graph.num_entities
        assert registered["source"] == "inline-dsl"


class TestMatchLifecycle:
    def test_synchronous_match_returns_the_result(self, live, music):
        _service, client = live
        _graph, _keys, expected = music
        register_music(client)
        status, data, _ = client.post(
            "/match", {"graph": "music", "algorithm": "EMOptVC", "wait": True}
        )
        assert status == 200 and data["status"] == "done", data
        result = EMResult.from_dict(data["result"])
        assert result.pairs() == expected
        assert data["provenance"]["graph"] == "music"

    def test_async_match_poll_events_then_result(self, live, music):
        _service, client = live
        _graph, _keys, expected = music
        register_music(client)
        status, data, _ = client.post(
            "/match", {"graph": "music", "algorithm": "EMMR"}
        )
        assert status == 202 and data["status"] in ("queued", "running", "done")
        request_id = data["id"]
        deadline = time.time() + 60.0
        while time.time() < deadline:
            status, data, _ = client.get(f"/requests/{request_id}")
            if data["status"] == "done":
                break
            time.sleep(0.02)
        assert data["status"] == "done"
        # the event stream saw the run through to its final "done" stage
        status, events, _ = client.get(f"/requests/{request_id}/events")
        assert status == 200
        stages = [e["stage"] for e in events["events"]]
        assert stages and stages[-1] == "done"
        # cursor-based polling is exactly-once
        status, again, _ = client.get(
            f"/requests/{request_id}/events?cursor={events['next_cursor']}"
        )
        assert again["events"] == []
        status, data, _ = client.get(f"/requests/{request_id}/result")
        assert status == 200
        assert EMResult.from_dict(data["result"]).pairs() == expected

    def test_concurrent_requests_across_graphs_match_sync_runs(self, live):
        """The acceptance criterion: ≥8 concurrent requests, ≥2 graphs,
        every backend, results bit-identical to MatchSession.run, and
        exactly one snapshot build per graph."""
        _service, client = live
        register_music(client)
        register_business(client)
        datasets = {"music": music_dataset(), "business": business_dataset()}
        baselines = {}
        for name, (graph, keys) in datasets.items():
            session = MatchSession(graph).with_keys(keys)
            for algorithm in ALGORITHMS:
                baselines[(name, algorithm)] = result_key(session.run(algorithm))

        jobs = [(name, algorithm) for name in datasets for algorithm in sorted(ALGORITHMS)]
        assert len(jobs) >= 8  # 2 graphs x 6 backends

        def submit(job):
            name, algorithm = job
            status, data, _ = client.post(
                "/match",
                {"graph": name, "algorithm": algorithm, "wait": True},
            )
            assert status == 200 and data["status"] == "done", data
            return job, EMResult.from_dict(data["result"])

        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            outcomes = list(pool.map(submit, jobs))

        for job, result in outcomes:
            assert result_key(result) == baselines[job], job

        status, metrics, _ = client.get("/metrics")
        assert status == 200
        per_graph = metrics["registry"]["per_graph"]
        for name in datasets:
            assert per_graph[name]["cache"]["snapshot_builds"] == 1, name
            assert per_graph[name]["runs"] == len(ALGORITHMS)
        assert metrics["admission"]["completed"] == len(jobs)
        assert metrics["admission"]["rejected"] == 0

    def test_match_request_provenance_records_sharing(self, live):
        _service, client = live
        register_music(client)
        for _ in range(2):
            status, data, _ = client.post(
                "/match", {"graph": "music", "algorithm": "chase", "wait": True}
            )
            assert status == 200
        provenance = data["provenance"]
        assert provenance["graph_cache"]["snapshot_builds"] == 1
        assert provenance["builds_during_request"]["snapshot"] == 0


class TestServedFromTheHeldFixpoint:
    def test_reused_read_has_no_events_and_the_computing_runs_statistics(self, live):
        """The second read of one shape at an unchanged graph version is
        answered from the held result: ``delta.mode == "reused"``, no
        progress events (no backend ran), and the statistics of the run
        that computed it.  ``/metrics`` counts both reads by mode."""
        _service, client = live
        register_music(client)
        body = {"graph": "music", "algorithm": "EMOptMR", "wait": True}
        status, first, _ = client.post("/match", body)
        assert status == 200 and first["status"] == "done", first
        assert first["provenance"]["delta"]["mode"] == "full"
        assert first["provenance"]["delta"]["reason"] == "no previous result to seed from"
        _, events, _ = client.get(f"/requests/{first['id']}/events")
        assert events["events"] and events["events"][-1]["stage"] == "done"

        status, second, _ = client.post("/match", body)
        assert status == 200 and second["status"] == "done", second
        assert second["provenance"]["delta"] == {"mode": "reused", "reason": None}
        assert second["result"] == first["result"]  # wall clock and all
        _, events, _ = client.get(f"/requests/{second['id']}/events")
        assert events["events"] == [] and events["dropped"] == 0

        # another shape is another session, seeded from the fixpoint the
        # graph's cache already holds: its own backend runs (events, its
        # own statistics) on an empty delta
        status, other, _ = client.post(
            "/match", {"graph": "music", "algorithm": "EMOptMR", "processors": 2, "wait": True}
        )
        assert other["provenance"]["delta"]["mode"] == "incremental"
        assert other["result"]["processors"] == 2
        assert other["result"]["classes"] == first["result"]["classes"]
        _, events, _ = client.get(f"/requests/{other['id']}/events")
        assert events["events"] and events["events"][-1]["stage"] == "done"

        _, metrics, _ = client.get("/metrics")
        entry = metrics["registry"]["per_graph"]["music"]
        assert entry["reads_by_mode"] == {"reused": 1, "incremental": 1, "full": 1}
        assert entry["sessions"]["evictions"] == 0
        assert entry["sessions"]["seed_version"] == _service.registry.get("music").graph.version
        assert entry["sessions"]["shapes"] == [
            "EMOptMR(p=4, blocking=auto)", "EMOptMR(p=2, blocking=auto)",
        ]


class TestAdmissionOverHttp:
    def test_burst_of_fresh_connections_all_get_an_http_status(self, music):
        """64 simultaneous fresh connections: each is answered 200 or 429 by
        admission control; the kernel's listen queue resets none of them."""
        service = MatchingService(max_inflight=1, max_queued=4)
        graph, keys, _expected = music
        service.register_graph("music", graph, keys)
        server, client = start_server(service)
        burst = 64
        assert server.request_queue_size >= 128 > burst
        barrier = threading.Barrier(burst)

        def fire(_index):
            barrier.wait(timeout=30.0)
            status, _data, _headers = client.post(
                "/match", {"graph": "music", "algorithm": "chase", "wait": True},
                timeout=60.0,
            )
            return status

        try:
            with ThreadPoolExecutor(max_workers=burst) as pool:
                statuses = list(pool.map(fire, range(burst)))
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        assert set(statuses) <= {200, 429}, statuses
        assert 200 in statuses

    def test_over_limit_load_gets_429(self, music):
        service = MatchingService(max_inflight=1, max_queued=1)
        graph, keys, _expected = music
        service.register_graph("music", graph, keys)
        release = threading.Event()
        original = MatchingService._execute

        def slow_execute(self, entry, config, request):
            assert release.wait(timeout=30.0)
            return original(self, entry, config, request)

        MatchingService._execute = slow_execute
        server, client = start_server(service)
        try:
            body = {"graph": "music", "algorithm": "chase"}
            status, first, _ = client.post("/match", body)
            assert status == 202
            # wait until the single worker has picked the first request up
            deadline = time.time() + 10.0
            while time.time() < deadline:
                _, data, _ = client.get(f"/requests/{first['id']}")
                if data["status"] == "running":
                    break
                time.sleep(0.01)
            status, second, _ = client.post("/match", body)
            assert status == 202  # fills the queue
            status, rejected, headers = client.post("/match", body)
            assert status == 429
            assert "queue full" in rejected["error"]
            # derived from measured queue depth × mean run time (whole
            # seconds, floor 1) — not the old hardcoded "1"
            assert int(headers.get("Retry-After")) >= 1
            release.set()
            for data in (first, second):
                deadline = time.time() + 30.0
                while time.time() < deadline:
                    _, polled, _ = client.get(f"/requests/{data['id']}")
                    if polled["status"] == "done":
                        break
                    time.sleep(0.02)
                assert polled["status"] == "done"
        finally:
            MatchingService._execute = original
            release.set()
            server.shutdown()
            server.server_close()
            service.close()

    def test_cancel_a_queued_request(self, music):
        service = MatchingService(max_inflight=1, max_queued=2)
        graph, keys, _expected = music
        service.register_graph("music", graph, keys)
        release = threading.Event()
        original = MatchingService._execute

        def slow_execute(self, entry, config, request):
            assert release.wait(timeout=30.0)
            return original(self, entry, config, request)

        MatchingService._execute = slow_execute
        server, client = start_server(service)
        try:
            body = {"graph": "music", "algorithm": "chase"}
            _, first, _ = client.post("/match", body)
            deadline = time.time() + 10.0
            while time.time() < deadline:
                _, data, _ = client.get(f"/requests/{first['id']}")
                if data["status"] == "running":
                    break
                time.sleep(0.01)
            _, queued, _ = client.post("/match", body)
            status, data, _ = client.delete(f"/requests/{queued['id']}")
            assert status == 200 and data["cancelled"] is True
            # cancelling again (already terminal) conflicts
            status, data, _ = client.delete(f"/requests/{queued['id']}")
            assert status == 409 and data["status"] == "cancelled"
            # fetching the result of an unfinished request conflicts too
            status, data, _ = client.get(f"/requests/{first['id']}/result")
            assert status == 409
        finally:
            MatchingService._execute = original
            release.set()
            server.shutdown()
            server.server_close()
            service.close()


class TestKeepAlive:
    """HTTP/1.1 keep-alive: early error responses must drain the request
    body, or the next request on the persistent connection parses body
    bytes as a request line."""

    def _roundtrip(self, connection, method, path, body=None):
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        data = json.loads(response.read().decode("utf-8"))
        return response.status, data

    def test_connection_survives_error_responses_with_bodies(self, live):
        service, client = live
        register_music(client)
        ops_body = {
            "ops": [
                {"op": "add_value", "subject": "x", "predicate": "p", "value": f"v{i}"}
                for i in range(50)
            ]
        }
        connection = http.client.HTTPConnection(client.host, client.port, timeout=30.0)
        try:
            # 404 with an unread body: the ingest route 404s on the graph
            # name while the body is still in rfile
            status, data = self._roundtrip(
                connection, "POST", "/graphs/nope/ingest", ops_body
            )
            assert status == 404, data
            # the next request on the SAME connection must parse cleanly
            status, data = self._roundtrip(connection, "GET", "/healthz")
            assert status == 200 and data["ok"] is True
            # 400 with an unread remainder (unknown field short-circuits)
            status, data = self._roundtrip(
                connection, "POST", "/match", {"graph": "music", "wat": "x" * 4096}
            )
            assert status == 400
            status, data = self._roundtrip(connection, "GET", "/healthz")
            assert status == 200
            # and a real request still works afterwards
            status, data = self._roundtrip(
                connection,
                "POST",
                "/match",
                {"graph": "music", "algorithm": "chase", "wait": True},
            )
            assert status == 200 and data["status"] == "done"
        finally:
            connection.close()


class RecordingSocket:
    """An accepted socket that logs every ``sendall`` (everything else is
    the real socket's)."""

    def __init__(self, sock, sends):
        self._sock = sock
        self._sends = sends

    def sendall(self, data):
        self._sends.append(bytes(data))
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestTransport:
    """A response is one TCP segment's worth of ``sendall`` on a no-delay
    socket: a keep-alive exchange costs a round trip, never Nagle waiting
    out the client's delayed ACK between headers and body."""

    def test_every_response_is_one_send_on_a_nodelay_socket(self, music, monkeypatch):
        service = MatchingService(max_inflight=1, max_queued=1)
        graph, keys, _expected = music
        service.register_graph("music", graph, keys)
        release = threading.Event()
        original = MatchingService._execute

        def slow_execute(self, entry, config, request):
            assert release.wait(timeout=30.0)
            return original(self, entry, config, request)

        monkeypatch.setattr(MatchingService, "_execute", slow_execute)
        server, client = start_server(service)
        sends, accepted = [], []
        accept = server.get_request

        def get_request():
            sock, address = accept()
            accepted.append(sock)
            return RecordingSocket(sock, sends), address

        server.get_request = get_request
        connection = http.client.HTTPConnection(client.host, client.port, timeout=30.0)

        def exchange(method, path, body=None):
            """One keep-alive round trip and the sends that answered it."""
            before = len(sends)
            payload = None if body is None else json.dumps(body)
            connection.request(method, path, body=payload)
            response = connection.getresponse()
            data = response.read()
            segments = sends[before:]
            assert len(segments) == 1, (method, path, [len(s) for s in segments])
            head, _, sent_body = segments[0].partition(b"\r\n\r\n")
            assert head.startswith(f"HTTP/1.1 {response.status} ".encode())
            assert sent_body == data and data
            return response.status, json.loads(data)

        try:
            assert exchange("GET", "/healthz")[0] == 200
            assert len(accepted) == 1
            assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            assert exchange("GET", "/requests/nope")[0] == 404
            assert exchange("POST", "/match", {"graph": "music", "wat": 1})[0] == 400
            body = {"graph": "music", "algorithm": "chase"}
            status, first = exchange("POST", "/match", body)
            assert status == 202
            deadline = time.time() + 10.0
            while time.time() < deadline:
                if exchange("GET", f"/requests/{first['id']}")[1]["status"] == "running":
                    break
                time.sleep(0.01)
            assert exchange("POST", "/match", body)[0] == 202  # fills the queue
            assert exchange("POST", "/match", body)[0] == 429
            assert len(accepted) == 1  # all of it on one connection
        finally:
            release.set()
            connection.close()
            server.shutdown()
            server.server_close()
            service.close()

    def test_keep_alive_exchanges_do_not_wait_out_a_delayed_ack(self, live):
        # coarse guard only (two sends per response cost ~44 ms each here:
        # ~880 ms for this loop; one send costs ~1 ms) — the deterministic
        # check is the one above
        _service, client = live
        connection = http.client.HTTPConnection(client.host, client.port, timeout=30.0)
        try:
            started = time.perf_counter()
            for _ in range(20):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200 and response.read()
            assert time.perf_counter() - started < 0.4
        finally:
            connection.close()

    @pytest.mark.parametrize("length", ["abc", "-4", ""])
    def test_malformed_content_length_is_a_400_and_closes(self, live, length):
        _service, client = live
        with socket.create_connection((client.host, client.port), timeout=10.0) as raw:
            raw.sendall(
                b"POST /match HTTP/1.1\r\nHost: t\r\nContent-Length: "
                + length.encode()
                + b"\r\n\r\n{}"
            )
            reply = b""
            while chunk := raw.recv(65536):  # until the server closes
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert "malformed Content-Length" in json.loads(body)["error"]


class TestDrain:
    def test_drain_finishes_queued_work_and_refuses_new(self, music):
        """Graceful drain: zero queued requests dropped, new submissions
        503 with a derived Retry-After, state lands on 'drained'."""
        service = MatchingService(max_inflight=1, max_queued=4)
        graph, keys, _expected = music
        service.register_graph("music", graph, keys)
        release = threading.Event()
        original = MatchingService._execute

        def slow_execute(self, entry, config, request):
            assert release.wait(timeout=30.0)
            return original(self, entry, config, request)

        MatchingService._execute = slow_execute
        server, client = start_server(service)
        try:
            body = {"graph": "music", "algorithm": "chase"}
            submitted = []
            status, first, _ = client.post("/match", body)
            assert status == 202
            submitted.append(first["id"])
            deadline = time.time() + 10.0
            while time.time() < deadline:
                _, data, _ = client.get(f"/requests/{first['id']}")
                if data["status"] == "running":
                    break
                time.sleep(0.01)
            for _ in range(2):
                status, data, _ = client.post("/match", body)
                assert status == 202
                submitted.append(data["id"])

            drainer = threading.Thread(target=service.drain, daemon=True)
            drainer.start()
            deadline = time.time() + 10.0
            while service.state != "draining" and time.time() < deadline:
                time.sleep(0.01)
            assert service.state == "draining"

            # new work is refused while queued work keeps going
            status, refused, headers = client.post("/match", body)
            assert status == 503, refused
            assert "draining" in refused["error"]
            assert int(headers.get("Retry-After")) >= 1
            status, refused, headers = client.post(
                "/graphs/music/ingest", {"ops": []}
            )
            assert status == 503
            assert int(headers.get("Retry-After")) >= 1

            release.set()
            drainer.join(timeout=30.0)
            assert not drainer.is_alive()

            # zero dropped: every admitted request finished
            for request_id in submitted:
                status, polled, _ = client.get(f"/requests/{request_id}")
                assert status == 200
                assert polled["status"] == "done", polled
            status, metrics, _ = client.get("/metrics")
            assert metrics["state"]["state"] == "drained"
            assert metrics["state"]["drained_clean"] is True
            assert metrics["admission"]["completed"] == len(submitted)
        finally:
            MatchingService._execute = original
            release.set()
            server.shutdown()
            server.server_close()
            service.close()

    def test_drain_is_idempotent_and_close_still_works(self, music):
        service = MatchingService(max_inflight=1, max_queued=2)
        graph, keys, _expected = music
        service.register_graph("music", graph, keys)
        summary = service.drain()
        assert summary["state"] == "drained" and summary["drained_clean"] is True
        again = service.drain()
        assert again["state"] == "drained"
        with pytest.raises(Exception):
            service.submit("music")
        service.close()


class TestIngestBackpressureOverHttp:
    def test_failed_flush_then_429_then_recovery(self, live, monkeypatch):
        """A failed flush 500s with the partial report, leaves the backlog
        counted, and the next over-limit window is refused with 429 + a
        measured Retry-After; a healthy flush clears the backlog."""
        service, client = live
        from repro.datasets.synthetic import synthetic_dataset

        dataset = synthetic_dataset(
            num_keys=4, chain_length=2, radius=2, entities_per_type=4, seed=3
        )
        service.register_graph("g", dataset.graph, dataset.keys)
        entity = sorted(dataset.graph.entity_ids())[0]

        def window(n, tag):
            return [
                {"op": "add_value", "subject": entity, "predicate": "bp", "value": f"{tag}{i}"}
                for i in range(n)
            ]

        status, payload, _ = client.post(
            "/graphs/g/ingest", {"ops": window(2, "a")}
        )
        assert status == 200, payload

        def broken_rerun(self, **options):
            raise RuntimeError("induced flush failure")

        monkeypatch.setattr(MatchSession, "rerun", broken_rerun)
        try:
            status, payload, _ = client.post(
                "/graphs/g/ingest", {"ops": window(2, "b")}
            )
            assert status == 500
            assert payload["recoverable"] is True
            assert payload["report"]["ops_unflushed"] == 2
        finally:
            monkeypatch.undo()

        # the uncovered backlog (2 ops) + this window (3) exceeds the bound
        status, payload, headers = client.post(
            "/graphs/g/ingest", {"ops": window(3, "c"), "max_pending_ops": 4}
        )
        assert status == 429, payload
        assert int(headers.get("Retry-After")) >= 1

        # a healthy window flushes: rerun covers the whole graph state, so
        # the previously uncovered ops are covered too and the backlog clears
        status, payload, _ = client.post(
            "/graphs/g/ingest", {"ops": window(1, "d"), "max_pending_ops": 4}
        )
        assert status == 200, payload
        assert payload["report"]["ops_unflushed"] == 0
        assert service.registry.get("g").ingest_status()["pending_ops"] == 0


class TestErrorMapping:
    def test_an_unknown_graph_lists_the_known_names_under_the_registry_lock(
        self, music
    ):
        from repro.exceptions import UnknownGraphError
        from repro.service.registry import GraphRegistry

        registry = GraphRegistry()

        class LockedNames(dict):
            """A name table that may be iterated only under the lock: a
            concurrent register would otherwise resize it mid-iteration."""

            def __iter__(self):
                assert registry._lock.locked()
                return super().__iter__()

        registry._graphs = LockedNames()
        graph, keys, _expected = music
        registry.register("music", graph, keys)
        with pytest.raises(UnknownGraphError, match=r"\(known: music\)"):
            registry.get("nope")

    def test_unknown_graph_is_404(self, live):
        _service, client = live
        status, data, _ = client.post(
            "/match", {"graph": "nope", "algorithm": "chase"}
        )
        assert status == 404 and "nope" in data["error"]

    def test_unknown_request_is_404(self, live):
        _service, client = live
        status, data, _ = client.get("/requests/req-999999")
        assert status == 404

    def test_unknown_field_is_400(self, live):
        _service, client = live
        register_music(client)
        status, data, _ = client.post(
            "/match", {"graph": "music", "algorithmm": "chase"}
        )
        assert status == 400 and "unknown field" in data["error"]

    def test_bad_algorithm_is_400(self, live):
        _service, client = live
        register_music(client)
        status, data, _ = client.post(
            "/match", {"graph": "music", "algorithm": "EMNoSuch"}
        )
        assert status == 400

    def test_out_of_range_option_is_400_on_match_and_ingest(self, live):
        """A backend option below its declared bound is refused at parse
        time on both endpoints: nothing is admitted, nothing fails."""
        _service, client = live
        register_music(client)
        _, before, _ = client.get("/metrics")
        bad = {"algorithm": "EMOptVC", "options": {"fanout": 0}}
        status, data, _ = client.post("/match", {"graph": "music", "wait": True, **bad})
        assert status == 400 and "'fanout' must be >= 1" in data["error"]
        status, data, _ = client.post("/graphs/music/ingest", {"ops": [], **bad})
        assert status == 400 and "'fanout' must be >= 1" in data["error"]
        _, after, _ = client.get("/metrics")
        for counter in ("accepted", "failed"):
            assert after["admission"][counter] == before["admission"][counter]

    def test_service_owned_fields_are_rejected(self, live):
        _service, client = live
        register_music(client)
        for field in ("snapshot_store", "incremental"):
            status, data, _ = client.post(
                "/match", {"graph": "music", "algorithm": "chase", field: True}
            )
            assert status == 400, field

    def test_unparseable_body_is_400(self, live):
        _service, client = live
        connection = http.client.HTTPConnection(client.host, client.port, timeout=30.0)
        try:
            connection.request(
                "POST", "/match", body="{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert "unparseable JSON" in json.loads(response.read())["error"]
        finally:
            connection.close()

    def test_unrouted_path_is_404(self, live):
        _service, client = live
        status, data, _ = client.get("/no/such/route")
        assert status == 404 and "no route" in data["error"]

    def test_non_finite_and_huge_timeouts_on_one_keep_alive_connection(self, live):
        """``NaN`` and ``±Infinity`` are not JSON: refused with a 400 on
        every endpoint.  A finite huge ``timeout`` parks the waiter for at
        most 600 s, and is answered.  Every reply is strict JSON, and the
        connection survives all four."""
        _service, client = live
        register_music(client)

        def strict(raw):
            def refuse(name):
                raise AssertionError(f"reply carries {name}")

            return json.loads(raw, parse_constant=refuse)

        bodies = [
            ("/match", '{"graph": "music", "wait": true, "timeout": Infinity}', 400),
            ("/match", '{"graph": "music", "wait": true, "timeout": NaN}', 400),
            ("/graphs/music/ingest", '{"ops": [], "latency_budget": NaN}', 400),
            ("/match", '{"graph": "music", "wait": true, "timeout": 1e300}', 200),
        ]
        connection = http.client.HTTPConnection(client.host, client.port, timeout=60.0)
        try:
            for path, body, expected in bodies:
                connection.request(
                    "POST", path, body=body, headers={"Content-Type": "application/json"}
                )
                response = connection.getresponse()
                data = strict(response.read())
                assert response.status == expected, (body, data)
                if expected == 400:
                    assert "non-standard JSON constant" in data["error"], data
            assert data["status"] == "done" and data["timeout"] == 1e300
            connection.request("GET", "/healthz")
            assert connection.getresponse().status == 200
        finally:
            connection.close()


class TestMetrics:
    def test_tracked_and_by_status_come_from_one_snapshot(self, music):
        """A submit landing between the request-table snapshot and the
        ``tracked`` count must not make the two disagree."""
        service = MatchingService(max_inflight=1, max_queued=4)
        graph, keys, _expected = music
        service.register_graph("music", graph, keys)
        snapshot = service.requests

        def requests_then_one_more():
            taken = snapshot()
            service.submit("music").wait(30.0)
            return taken

        try:
            service.submit("music").wait(30.0)
            service.requests = requests_then_one_more
            counted = service.metrics()["requests"]
            assert counted["tracked"] == sum(counted["by_status"].values()) == 1
        finally:
            service.close()
