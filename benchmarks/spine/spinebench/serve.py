"""``serve_mixed``: two closed-loop clients against a real ``repro serve``.

The server is a subprocess started from the CLI, exactly as a user would
start it.  Each client owns one keep-alive ``http.client`` connection and
sends its next request only when the previous reply has arrived (closed
loop, two clients = ``nproc``).  Client 0 reads and writes ``hot``, so
every write is followed by reads that pay for the refresh; client 1 reads
``small`` throughout.

The two clients do not share a graph because the service does not isolate
a ``/match`` from an ingest window being applied to the same graph: with
both clients on ``hot``, about one read in 300 returned a result matching
the graph neither before nor after the window in flight, and one window in
400 answered 500.  A benchmark workload may hold no failing operation.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from repro.api.session import MatchSession
from repro.core.chase import chase
from repro.core.parser import serialize_graph, serialize_keys
from repro.matching.result import EMResult
from repro.service import wire
from repro.service.ingest import apply_mutation
from repro.service.queue import MatchRequest

from . import SRC_DIR, gen
from .harness import Params, finish, repeated_setup
from .schema import Outcome
from .stats import Estimate, median, tail
from .trace import Tracer

CLIENTS = 2
#: requests generated per client: far more than any run length consumes
SCHEDULE_LENGTH = 5_000
HEALTHZ_PROBES = 50
SMOKE_HEALTHZ_PROBES = 5
_JSON = {"Content-Type": "application/json"}


def _classes(eq) -> List[List[str]]:
    """An equivalence relation in the wire form of ``EMResult.to_dict``."""
    return sorted(sorted(members) for members in eq.nontrivial_classes())


class Server:
    """A ``python -m repro.cli serve`` child and the port it listens on."""

    def __init__(self, workdir: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        self.process = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.cli", "serve",
                "--port", "0", "--max-inflight", "2",
                "--snapshot-store", str(workdir / "store"),
                "--wal", str(workdir / "wal"),
            ],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
        )
        self.port = 0
        for line in self.process.stdout:
            if "listening on http://" in line:
                self.port = int(line.rsplit(":", 1)[1])
                break
        if not self.port:
            self.stop()
            raise RuntimeError("repro serve did not start")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it will not go."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def _call(conn, method: str, path: str, payload=None) -> Tuple[int, Dict[str, object], int]:
    body = None if payload is None else json.dumps(payload).encode()
    conn.request(method, path, body=body, headers=_JSON if body else {})
    response = conn.getresponse()
    raw = response.read()
    return response.status, json.loads(raw), len(raw)


@dataclass
class ServeState:
    server: Server
    hot_graph: object
    hot_keys: object
    #: expected ``classes`` of every ``small`` response
    small_classes: List[List[str]]
    windows: List[List[gen.Op]]
    schedule: List[List[Dict[str, object]]]
    register_ms: float = 0.0
    progress: "_Progress" = None


@dataclass
class Sample:
    kind: str
    graph: str
    sent: float
    received: float
    status: int
    reply: Dict[str, object]
    reply_bytes: int
    body: Dict[str, object]
    #: ingest windows acknowledged when this was sent / started by its reply
    acked_at_send: int = 0
    started_at_reply: int = 0
    window: int = -1

    @property
    def ms(self) -> float:
        return 1000.0 * (self.received - self.sent)

    @property
    def done_match(self) -> bool:
        return (self.kind == "match" and self.status == 200
                and self.reply.get("status") == "done")


def _setup(params: Params, repeat: int) -> ServeState:
    workdir = params.workdir / f"serve-{repeat}"
    workdir.mkdir(parents=True)
    hot = gen.hot_dataset(params.seed, params.smoke)
    small_graph, small_keys = gen.small_dataset()
    server = Server(workdir)
    try:
        conn = server.connect()
        register_ms = 0.0
        for name, graph, keys in (
            ("small", small_graph, small_keys), ("hot", hot.graph, hot.keys)
        ):
            started = time.perf_counter()
            status, reply, _ = _call(conn, "POST", "/graphs", {
                "name": name, "graph_text": serialize_graph(graph),
                "keys_text": serialize_keys(keys), "warm": True,
            })
            register_ms = 1000.0 * (time.perf_counter() - started)
            if status != 201:
                raise RuntimeError(f"registering {name!r} failed: {status} {reply}")
        # warm-up: every (graph, backend) pair builds its artifacts once
        for graph in ("small", "hot"):
            for algorithm in ("EMOptMR", "EMOptVC"):
                _call(conn, "POST", "/match",
                      {"graph": graph, "algorithm": algorithm, "wait": True})
        conn.close()
    except BaseException:
        server.stop()
        raise
    schedule = gen.request_schedule(params.seed, CLIENTS, SCHEDULE_LENGTH)
    return ServeState(
        server=server, hot_graph=hot.graph, hot_keys=hot.keys,
        small_classes=_classes(MatchSession(small_graph, small_keys).run().eq),
        windows=gen.hot_windows(hot.graph, params.seed, SCHEDULE_LENGTH // gen.INGEST_EVERY),
        schedule=schedule, register_ms=register_ms, progress=_Progress(),
    )


class _Progress:
    """Ingest windows started / acknowledged so far (shared by the clients)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.started = 0
        self.acked = 0


def _client(state: ServeState, requests, deadline: float, progress: _Progress,
            samples: List[Sample], errors: List[BaseException]) -> None:
    try:
        conn = state.server.connect()
        for request in requests:
            if time.time() >= deadline:
                break
            if request["kind"] == "ingest":
                window = request["window"]
                path = "/graphs/hot/ingest"
                body = {"ops": state.windows[window], "algorithm": "EMOptVC",
                        "blocking": "auto"}
                graph = "hot"
            else:
                window = -1
                path = "/match"
                graph = request["graph"]
                body = {"graph": graph, "algorithm": request["algorithm"], "wait": True}
            with progress.lock:
                if window >= 0:
                    progress.started = window + 1
                acked = progress.acked
            sent = time.time()
            status, reply, size = _call(conn, "POST", path, body)
            received = time.time()
            with progress.lock:
                if window >= 0 and status == 200:
                    progress.acked = window + 1
                started = progress.started
            samples.append(Sample(
                kind=request["kind"], graph=graph, sent=sent, received=received,
                status=status, reply=reply, reply_bytes=size, body=body,
                acked_at_send=acked, started_at_reply=started, window=window,
            ))
        conn.close()
    except BaseException as error:  # re-raised by the caller after join
        errors.append(error)


def _drive(state: ServeState, seconds: float) -> Tuple[List[Sample], float]:
    """Both clients follow their schedules for *seconds*; returns the
    samples in completion order and the wall time they took."""
    per_client: List[List[Sample]] = [[] for _ in range(CLIENTS)]
    errors: List[BaseException] = []
    started = time.time()
    threads = [
        threading.Thread(
            target=_client,
            args=(state, state.schedule[i], started + seconds, state.progress,
                  per_client[i], errors),
        )
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.time() - started
    if errors:
        raise errors[0]
    # later drives continue where this one stopped
    for i in range(CLIENTS):
        state.schedule[i] = state.schedule[i][len(per_client[i]):]
    samples = sorted((s for one in per_client for s in one), key=lambda s: s.received)
    return samples, wall


class _Twin:
    """``hot`` as the sequential chase sees it after *k* ingest windows."""

    def __init__(self, state: ServeState) -> None:
        self.state = state
        self.graph = state.hot_graph.copy()
        self.applied = 0
        self.classes: Dict[int, List[List[str]]] = {}

    def after(self, windows: int) -> List[List[str]]:
        while self.applied <= windows:
            if self.applied not in self.classes:
                self.classes[self.applied] = _classes(
                    chase(self.graph, self.state.hot_keys, blocking="auto").eq
                )
            if self.applied == windows:
                break
            for op in self.state.windows[self.applied]:
                apply_mutation(self.graph, op)
            self.applied += 1
        return self.classes[windows]


def _verify(state: ServeState, samples: List[Sample], twin: _Twin, outcome: Outcome) -> None:
    for sample in samples:
        what = f"{sample.kind} on {sample.graph}"
        if sample.status != 200:
            outcome.check(False, f"{what}: HTTP {sample.status}")
            continue
        if sample.kind == "ingest":
            got = sample.reply["result"]["classes"]
            outcome.check(got == twin.after(sample.window + 1),
                          f"ingest window {sample.window} != twin chase")
            continue
        if sample.reply.get("status") != "done":
            outcome.check(False, f"{what}: status {sample.reply.get('status')!r}")
            continue
        got = sample.reply["result"]["classes"]
        if sample.graph == "small":
            outcome.check(got == state.small_classes, "small != synchronous run")
        else:
            outcome.check(
                any(got == twin.after(k)
                    for k in range(sample.acked_at_send, sample.started_at_reply + 1)),
                f"hot read matches no twin state in windows "
                f"[{sample.acked_at_send}, {sample.started_at_reply}]",
            )


def _layers(state: ServeState, samples: List[Sample], tracer: Tracer,
            outcome: Outcome, probes: int) -> None:
    layer = outcome.per_layer
    matches = [s for s in samples if s.done_match]
    queue_ms, run_ms, overhead_ms = [], [], []
    for index, sample in enumerate(samples):
        root = tracer.add("client.request", sample.sent, sample.received, iteration=index)
        if not sample.done_match:
            continue
        reply = sample.reply
        submitted, began, finished = (
            reply["submitted_at"], reply["started_at"], reply["finished_at"]
        )
        tracer.add("service.queue.wait", submitted, began, parent=root, iteration=index)
        tracer.add("service.server.run", began, finished, parent=root, iteration=index)
        queue_ms.append(1000.0 * reply["queue_wait_seconds"])
        run_ms.append(1000.0 * (finished - began))
        overhead_ms.append(sample.ms - 1000.0 * (finished - submitted))
    layer["service.queue.wait_ms"] = median(queue_ms).value
    layer["service.server.run_ms"] = median(run_ms).value
    layer["service.server.http_overhead_ms"] = median(overhead_ms).value
    layer["service.wire.response_bytes"] = median([s.reply_bytes for s in matches]).value
    layer["service.server.refused_share"] = (
        sum(1 for s in samples if s.status in (429, 503)) / max(1, len(samples))
    )

    # the wire layer, called directly on the bodies this run sent and got
    for sample in matches:
        with tracer.span("service.wire.parse"):
            wire.parse_match_request(sample.body)
        request = MatchRequest(graph=sample.graph, describe=sample.reply["config"])
        request.result = EMResult.from_dict(sample.reply["result"])
        request.provenance = sample.reply["provenance"]
        with tracer.span("service.wire.encode"):
            json.dumps(wire.request_payload(request, include_result=True), sort_keys=True)
    layer["service.wire.parse_us"] = 1000.0 * median(tracer.durations_ms("service.wire.parse")).value
    layer["service.wire.encode_ms"] = median(tracer.durations_ms("service.wire.encode")).value

    conn = state.server.connect()
    for _ in range(probes):
        with tracer.span("service.server.healthz"):
            _call(conn, "GET", "/healthz")
    _, metrics, _ = _call(conn, "GET", "/metrics")
    conn.close()
    layer["service.server.healthz_ms"] = median(tracer.durations_ms("service.server.healthz")).value
    layer["service.queue.max_depth"] = metrics["admission"]["max_queue_depth_seen"]
    layer["service.registry.register_ms"] = state.register_ms


def run_serve(params: Params, tracer: Tracer) -> Outcome:
    outcome = Outcome("serve_mixed")
    state, setup_s = repeated_setup(
        params, lambda repeat: _setup(params, repeat), lambda old: old.server.stop(),
        in_process=False,
    )
    try:
        twin = _Twin(state)
        if tracer.enabled:
            plain, _ = _drive(state, params.seconds / 2)
            _verify(state, plain, twin, outcome)
            samples, wall = _drive(state, params.seconds / 2)
        else:
            samples, wall = _drive(state, params.seconds)
        _verify(state, samples, twin, outcome)
        reads = [s.ms for s in samples if s.kind == "match"]
        writes = [s.ms for s in samples if s.kind == "ingest"]
        p50 = median(reads)
        p95, used = tail(reads, 0.95)
        outcome.end_to_end["primary_ms"] = p50
        outcome.end_to_end["secondary_ms"] = Estimate(
            p95.value, p95.n, "" if used == 0.95 else f"p{used * 100:.0f}: too few samples for p95"
        )
        write = median(writes or reads)
        outcome.end_to_end["tertiary_ms"] = Estimate(
            write.value, len(writes), "" if writes else "no ingest window sent: read median"
        )
        outcome.end_to_end["throughput_per_s"] = Estimate(len(samples) / wall, len(samples))
        if tracer.enabled:
            _layers(state, samples, tracer, outcome,
                    SMOKE_HEALTHZ_PROBES if params.smoke else HEALTHZ_PROBES)
            outcome.per_layer["trace.overhead_ratio"] = (
                p50.value / median([s.ms for s in plain if s.kind == "match"]).value
            )
    finally:
        state.server.stop()
    return finish(outcome, setup_s, children=True)
