"""The ``repro serve`` front end: JSON-over-HTTP on a threading server.

:class:`MatchingService` is the transport-free orchestrator — register
graphs, submit requests through the admission controller, poll status,
scrape metrics — and the HTTP layer is a thin stdlib
``ThreadingHTTPServer`` handler on top (no third-party dependencies).

Endpoints::

    GET    /healthz                      liveness + uptime
    GET    /algorithms                   machine-readable backend catalog
    GET    /metrics                      admission + store + per-graph counters
    GET    /graphs                       registered graphs
    POST   /graphs                       register a named graph
    DELETE /graphs/<name>                unregister
    POST   /graphs/<name>/ingest         apply a mutation window, re-match in
                                         latency-budgeted incremental batches
    POST   /match                        submit a run (202, or wait=true)
    GET    /requests/<id>                poll one request's status
    GET    /requests/<id>/result         fetch the EMResult (409 until done)
    GET    /requests/<id>/events?cursor=N   poll the progress-event stream
    DELETE /requests/<id>                cancel (pre-start only)

Error mapping: :class:`~repro.exceptions.WireError` (including a body with
``NaN`` or ``±Infinity``) → 400, unknown graph /
request → 404, result-not-ready → 409, admission rejection → 429.  Every
429 carries a ``Retry-After`` header.

Threading model: one HTTP thread per connection (stdlib).  A read at a
graph version the service has already answered under its run shape is
answered on that thread at admission, with the held result
(:meth:`RegisteredGraph.held_read`: one non-blocking hold of the graph's
ingest lock, so the thread never waits on a window and never solves).
Every other submission hops onto the admission controller's fixed worker
pool, and each worker re-runs a request-private
:class:`~repro.api.session.MatchSession` over the named graph's
:class:`~repro.matching.artifacts.SessionArtifacts`
(:meth:`RegisteredGraph.match`) — the cache that holds the graph's one
fixpoint and its run shapes' last results: solves are bounded by
``max_inflight`` regardless of connection count, no graph's artifacts are
ever built twice, and every read after the graph's first is seeded from
the cache's fixpoint.
"""

from __future__ import annotations

import collections
import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple, Union

import os

from ..api.config import MatchConfig
from ..core.graph import Graph
from ..core.key import KeySet
from ..exceptions import (
    AdmissionError,
    ReproError,
    ServiceError,
    ServiceUnavailableError,
    UnknownGraphError,
    UnknownRequestError,
    WireError,
)
from ..storage.store import SnapshotStore
from .ingest import IngestError, IngestFlushError
from .queue import AdmissionController, MatchRequest
from .registry import GraphRegistry, RegisteredGraph, ServedRead
from . import wire


class MatchingService:
    """The service orchestrator: registry + admission control + requests."""

    def __init__(
        self,
        *,
        store: Union[None, str, "os.PathLike", SnapshotStore] = None,
        max_inflight: int = 4,
        max_queued: int = 16,
        default_timeout: Optional[float] = None,
        max_requests: int = 1024,
        wal_root: Union[None, str, "os.PathLike"] = None,
        wal_fsync: str = "batch",
        max_pending_ops: Optional[int] = None,
        drain_timeout: Optional[float] = None,
    ) -> None:
        self.registry = GraphRegistry(
            store=store,
            wal_root=wal_root,
            wal_fsync=wal_fsync,
            max_pending_ops=max_pending_ops,
        )
        self.controller = AdmissionController(
            max_inflight=max_inflight, max_queued=max_queued
        )
        #: queue-wait deadline applied when a request names none
        self.default_timeout = default_timeout
        #: how many finished requests the table remembers (oldest evicted)
        self.max_requests = max_requests
        #: seconds :meth:`drain` waits for queued work (``None``: 30s/worker)
        self.drain_timeout = drain_timeout
        self.started_at = time.time()
        self._requests: "collections.OrderedDict[str, MatchRequest]" = (
            collections.OrderedDict()
        )
        self._requests_lock = threading.Lock()
        self._closed = False
        # lifecycle: "serving" → "draining" → "drained" (close() from
        # "serving" goes straight to "closed")
        self._state = "serving"
        self._state_lock = threading.Lock()
        self.drain_started_at: Optional[float] = None
        self.drain_finished_at: Optional[float] = None
        self._drained_clean: Optional[bool] = None

    # -- graphs ------------------------------------------------------------- #

    def register_graph(
        self,
        name: str,
        graph: Graph,
        keys: KeySet,
        *,
        source: str = "api",
        replace: bool = False,
        warm: bool = False,
    ) -> RegisteredGraph:
        return self.registry.register(
            name, graph, keys, source=source, replace=replace, warm=warm
        )

    # -- requests ----------------------------------------------------------- #

    def submit(
        self,
        graph_name: str,
        config: Optional[MatchConfig] = None,
        *,
        timeout: Optional[float] = None,
    ) -> MatchRequest:
        """Admit one match request — answered before returning when the held
        fixpoint answers it, else queued; raises
        :class:`~repro.exceptions.AdmissionError` when the queue is full and
        :class:`~repro.exceptions.UnknownGraphError` for unknown names."""
        self._check_admitting()
        entry = self.registry.get(graph_name)
        config = config or MatchConfig()
        request = MatchRequest(
            graph=graph_name,
            describe=config.describe(),
            timeout=self.default_timeout if timeout is None else timeout,
        )
        read = entry.held_read(config, observer=request.record_event)
        self._remember(request)
        if read is None:
            return self.controller.submit(
                request, lambda req: self._execute(entry, config, req)
            )
        request.started_at, request.queue_wait = request.submitted_at, 0.0
        self._record(entry, request, read)
        return self.controller.answered(request)

    def _check_admitting(self) -> None:
        """Refuse new work while shut down or draining."""
        if self._closed:
            raise ServiceError("service is shut down")
        state = self._state
        if state != "serving":
            raise ServiceUnavailableError(
                f"service is {state}: queued work is finishing but new "
                f"requests are refused",
                retry_after=float(self.controller.retry_after_seconds()),
            )

    def ingest(
        self,
        graph_name: str,
        ops,
        *,
        config: Optional[MatchConfig] = None,
        latency_budget: float = 0.25,
        max_batch_ops: Optional[int] = None,
        max_pending_ops: Optional[int] = None,
    ):
        """Apply a mutation window against a registered graph.

        The service-level entry point the HTTP ingest endpoint uses: it
        enforces the lifecycle state (503 while draining) before delegating
        to :meth:`RegisteredGraph.ingest`, whose pending-window bound and
        WAL contract apply."""
        self._check_admitting()
        entry = self.registry.get(graph_name)
        return entry.ingest(
            ops,
            config=config,
            latency_budget=latency_budget,
            max_batch_ops=max_batch_ops,
            max_pending_ops=max_pending_ops,
        )

    def _execute(
        self,
        entry: RegisteredGraph,
        config: MatchConfig,
        request: MatchRequest,
    ) -> None:
        """Run one admitted request on a worker thread."""
        self._record(entry, request, entry.match(config, observer=request.record_event))

    def _record(
        self, entry: RegisteredGraph, request: MatchRequest, read: ServedRead
    ) -> None:
        """Attach *read*'s result and the request's provenance."""
        request.result = read.result
        before, after = read.cache_before, read.cache_after
        store = self.registry.store
        request.provenance = {
            "request_id": request.id,
            "graph": entry.name,
            "queue_wait_seconds": request.queue_wait,
            "deadline_exceeded": (
                request.deadline is not None and time.time() > request.deadline
            ),
            "phase_timings": read.phase_timings,
            # per-request build deltas: the builds charged while this
            # request's run held the graph's ingest lock
            "builds_during_request": {
                "snapshot": after.snapshot_builds - before.snapshot_builds,
                "neighborhood_index": (
                    after.neighborhood_index_builds
                    - before.neighborhood_index_builds
                ),
                "candidates": after.candidate_builds - before.candidate_builds,
                "product_graph": (
                    after.product_graph_builds - before.product_graph_builds
                ),
            },
            "graph_cache": {
                "snapshot_builds": after.snapshot_builds,
                "store_hits": after.store_hits,
                "store_misses": after.store_misses,
            },
            "store": None if store is None else store.metrics(),
            "delta": {"mode": read.delta.mode, "reason": read.delta.reason},
        }

    def _remember(self, request: MatchRequest) -> None:
        with self._requests_lock:
            self._requests[request.id] = request
            while len(self._requests) > self.max_requests:
                # evict the oldest *finished* request; never drop live ones
                for rid, candidate in self._requests.items():
                    if candidate.finished:
                        del self._requests[rid]
                        break
                else:
                    break

    def request(self, request_id: str) -> MatchRequest:
        with self._requests_lock:
            request = self._requests.get(request_id)
        if request is None:
            raise UnknownRequestError(
                f"unknown request {request_id!r} (finished requests are "
                f"evicted after {self.max_requests} newer submissions)"
            )
        return request

    def cancel(self, request_id: str) -> bool:
        return self.request(request_id).cancel()

    def requests(self) -> List[MatchRequest]:
        with self._requests_lock:
            return list(self._requests.values())

    # -- observability / lifecycle ------------------------------------------ #

    def metrics(self) -> Dict[str, object]:
        # one snapshot of the table: tracked always equals sum(by_status)
        requests = self.requests()
        by_status: Dict[str, int] = {}
        for request in requests:
            by_status[request.status] = by_status.get(request.status, 0) + 1
        with self._state_lock:
            lifecycle = {
                "state": self._state,
                "drain_started_at": self.drain_started_at,
                "drain_finished_at": self.drain_finished_at,
                "drained_clean": self._drained_clean,
            }
        return {
            "uptime_seconds": time.time() - self.started_at,
            "state": lifecycle,
            "admission": self.controller.metrics(),
            "registry": self.registry.metrics(),
            "requests": {
                "tracked": len(requests),
                "by_status": by_status,
            },
        }

    @property
    def state(self) -> str:
        return self._state

    def drain(self, timeout: Optional[float] = None) -> Dict[str, object]:
        """Graceful shutdown: refuse new work, finish everything admitted.

        Flips the service to ``draining`` (submissions and ingest windows
        get 503 + a measured ``Retry-After``), waits for the admission
        queue to empty and every worker to finish, lets in-flight ingest
        windows complete (closing a graph's journal takes its ingest lock),
        then closes every WAL and marks the service ``drained``.  Returns a
        summary dict; idempotent — a second call reports the first drain.
        """
        with self._state_lock:
            if self._state in ("draining", "drained"):
                return {
                    "state": self._state,
                    "drained_clean": self._drained_clean,
                    "elapsed_seconds": (
                        (self.drain_finished_at or time.time())
                        - (self.drain_started_at or time.time())
                    ),
                }
            self._state = "draining"
            self.drain_started_at = time.time()
        budget = self.drain_timeout if timeout is None else timeout
        drained = self.controller.drain(budget)
        # in-flight ingest windows run on HTTP threads, not the worker
        # pool: close_ingest() serializes on each graph's ingest lock, so
        # this both waits out live windows and closes their journals
        self.registry.close()
        with self._state_lock:
            self._state = "drained"
            self._drained_clean = drained
            self.drain_finished_at = time.time()
            return {
                "state": self._state,
                "drained_clean": drained,
                "elapsed_seconds": self.drain_finished_at - self.drain_started_at,
            }

    def close(self) -> None:
        self._closed = True
        with self._state_lock:
            if self._state == "serving":
                self._state = "closed"
        self.controller.shutdown(wait=True)
        self.registry.close()


# --------------------------------------------------------------------------- #
# HTTP layer
# --------------------------------------------------------------------------- #

#: Largest accepted request body (a graph DSL upload), in bytes.
MAX_BODY_BYTES = 64 * 1024 * 1024


class ServiceHTTPHandler(BaseHTTPRequestHandler):
    """Routes HTTP verbs + paths onto a :class:`MatchingService`."""

    #: injected by :func:`make_http_server`
    service: MatchingService

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted connection: a response leaves as one
    #: send (see :meth:`_send`), so Nagle has nothing to coalesce and could
    #: only hold the tail of a multi-segment body back for an ACK
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # quiet by default; /metrics is the observability surface

    # -- plumbing ----------------------------------------------------------- #

    def _discard_body(self) -> None:
        """Consume any unread request body before responding.

        HTTP/1.1 keep-alive reuses the connection for the next request: an
        early response (404 graph lookup, 429, 400) that leaves the body in
        ``rfile`` makes the next request line parse body bytes.  Bodies over
        the accepted cap are not slurped — the connection is closed instead.
        """
        remaining = self._body_remaining
        self._body_remaining = 0
        if remaining <= 0:
            return
        if remaining > MAX_BODY_BYTES:
            self.close_connection = True
            return
        while remaining > 0:
            chunk = self.rfile.read(min(65536, remaining))
            if not chunk:
                self.close_connection = True
                return
            remaining -= len(chunk)

    def _content_length(self) -> int:
        raw = self.headers.get("Content-Length", "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            # the body length is unknown, so the body cannot be drained
            self.close_connection = True
            raise WireError(f"malformed Content-Length {raw!r}")
        return int(raw)

    def _send(self, code: int, payload: Dict[str, object], **headers: str) -> None:
        """Write one response as ONE send: status line, headers and body.

        Two sends (stdlib ``end_headers()`` then ``wfile.write(body)``) make
        the second wait for the ACK of the first on a keep-alive connection
        — Nagle against the client's ~40 ms delayed ACK — on every response
        after the first.
        """
        self._discard_body()
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        fields = {
            "Server": self.version_string(),
            "Date": self.date_time_string(),
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
        }
        for name, value in headers.items():
            fields[name.replace("_", "-")] = value
        if self.close_connection:
            fields["Connection"] = "close"
        head = f"{self.protocol_version} {code} {self.responses[code][0]}\r\n"
        head += "".join(f"{name}: {value}\r\n" for name, value in fields.items())
        self.wfile.write(head.encode("latin-1") + b"\r\n" + body)

    def _read_json(self) -> Dict[str, object]:
        length = self._body_remaining
        if length <= 0:
            raise WireError("request body required")
        if length > MAX_BODY_BYTES:
            raise WireError(f"request body too large ({length} bytes)")
        raw = self.rfile.read(length)
        self._body_remaining = 0
        try:
            payload = json.loads(raw, parse_constant=_refuse_constant)
        except ValueError as error:
            raise WireError(f"unparseable JSON body: {error}") from error
        if not isinstance(payload, dict):
            raise WireError("request body must be a JSON object")
        return payload

    def _retry_after(self, error) -> str:
        """The ``Retry-After`` header value for a refusal: the exception's
        own measured estimate when it carries one, else the admission
        controller's queue-state derivation."""
        seconds = getattr(error, "retry_after", None)
        if seconds is None:
            seconds = self.service.controller.retry_after_seconds()
        return str(max(1, math.ceil(seconds)))

    def _route(self, method: str) -> None:
        path, _, query = self.path.partition("?")
        parts = [part for part in path.split("/") if part]
        self._body_remaining = 0
        try:
            self._body_remaining = self._content_length()
            handled = self._dispatch(method, parts, query)
        except WireError as error:
            self._send(400, {"error": str(error)})
        except (UnknownGraphError, UnknownRequestError) as error:
            self._send(404, {"error": str(error)})
        except ServiceUnavailableError as error:
            self._send(503, {"error": str(error)}, Retry_After=self._retry_after(error))
        except AdmissionError as error:
            self._send(429, {"error": str(error)}, Retry_After=self._retry_after(error))
        except IngestFlushError as error:
            report = error.report.as_dict() if error.report is not None else None
            self._send(
                500,
                {"error": str(error), "report": report, "recoverable": True},
            )
        except ReproError as error:
            self._send(500, {"error": str(error)})
        else:
            if not handled:
                self._send(404, {"error": f"no route for {method} {path}"})

    def _dispatch(self, method: str, parts: List[str], query: str) -> bool:
        service = self.service
        if method == "GET":
            if parts == ["healthz"]:
                self._send(
                    200,
                    {
                        "ok": True,
                        "state": service.state,
                        "uptime_seconds": time.time() - service.started_at,
                    },
                )
                return True
            if parts == ["algorithms"]:
                self._send(200, {"algorithms": wire.algorithm_catalog()})
                return True
            if parts == ["metrics"]:
                self._send(200, service.metrics())
                return True
            if parts == ["graphs"]:
                self._send(
                    200,
                    {"graphs": [e.describe() for e in service.registry.entries()]},
                )
                return True
            if len(parts) == 2 and parts[0] == "requests":
                request = service.request(parts[1])
                self._send(
                    200, wire.request_payload(request, include_result=True)
                )
                return True
            if len(parts) == 3 and parts[0] == "requests" and parts[2] == "result":
                request = service.request(parts[1])
                if request.status != "done":
                    self._send(
                        409,
                        {
                            "error": f"request {request.id} is {request.status}",
                            "status": request.status,
                        },
                    )
                    return True
                self._send(
                    200,
                    {
                        "id": request.id,
                        "result": request.result.to_dict(),
                        "provenance": dict(request.provenance),
                    },
                )
                return True
            if len(parts) == 3 and parts[0] == "requests" and parts[2] == "events":
                request = service.request(parts[1])
                cursor = _query_int(query, "cursor", 0)
                events, next_cursor = request.events_after(cursor)
                self._send(
                    200,
                    {
                        "id": request.id,
                        "status": request.status,
                        "events": events,
                        "next_cursor": next_cursor,
                        "dropped": request.events_dropped,
                    },
                )
                return True
            return False
        if method == "POST":
            if parts == ["graphs"]:
                payload = self._read_json()
                name, graph, keys, source, replace, warm = (
                    wire.parse_register_request(payload)
                )
                try:
                    entry = service.register_graph(
                        name, graph, keys,
                        source=source, replace=replace, warm=warm,
                    )
                except ServiceError as error:
                    self._send(409, {"error": str(error)})
                    return True
                self._send(201, {"registered": entry.describe()})
                return True
            if len(parts) == 3 and parts[0] == "graphs" and parts[2] == "ingest":
                # body first: resolving the graph before reading would leave
                # the body in rfile on a 404, corrupting the next request on
                # this keep-alive connection
                payload = self._read_json()
                ops, config, latency_budget, max_batch_ops, max_pending_ops = (
                    wire.parse_ingest_request(payload)
                )
                # runs on this HTTP thread: mutation windows of one graph
                # are serialized by the entry's ingest lock, and the
                # response must carry the window's own exact result
                try:
                    report, result = service.ingest(
                        parts[1],
                        ops,
                        config=config,
                        latency_budget=latency_budget,
                        max_batch_ops=max_batch_ops,
                        max_pending_ops=max_pending_ops,
                    )
                except IngestFlushError:
                    raise  # _route maps it to a 500 with the partial report
                except IngestError as error:
                    self._send(400, {"error": str(error)})
                    return True
                self._send(
                    200,
                    {
                        "graph": parts[1],
                        "report": report.as_dict(),
                        "result": result.to_dict(),
                    },
                )
                return True
            if parts == ["match"]:
                payload = self._read_json()
                graph_name, config, wait, timeout = wire.parse_match_request(
                    payload
                )
                request = service.submit(graph_name, config, timeout=timeout)
                if wait:
                    # a synchronous waiter parks an HTTP thread for at most
                    # 600 s: on expiry the 200 carries the live status
                    request.wait(min(timeout or 600.0, 600.0))
                    self._send(
                        200, wire.request_payload(request, include_result=True)
                    )
                else:
                    self._send(202, wire.request_payload(request))
                return True
            return False
        if method == "DELETE":
            if len(parts) == 2 and parts[0] == "graphs":
                service.registry.unregister(parts[1])
                self._send(200, {"unregistered": parts[1]})
                return True
            if len(parts) == 2 and parts[0] == "requests":
                request = service.request(parts[1])
                cancelled = request.cancel()
                self._send(
                    200 if cancelled else 409,
                    {
                        "id": request.id,
                        "cancelled": cancelled,
                        "status": request.status,
                    },
                )
                return True
            return False
        return False

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._route("DELETE")


def _refuse_constant(name: str) -> float:
    """``json.loads`` hook: ``NaN`` and ``±Infinity`` are not JSON."""
    raise ValueError(f"non-standard JSON constant {name}")


def _query_int(query: str, name: str, default: int) -> int:
    for pair in query.split("&"):
        key, _, raw = pair.partition("=")
        if key == name and raw:
            try:
                return int(raw)
            except ValueError:
                raise WireError(f"query parameter {name!r} expects an int, got {raw!r}")
    return default


#: Smallest listen backlog ``repro serve`` asks the kernel for.
MIN_LISTEN_BACKLOG = 128


def make_http_server(
    service: MatchingService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ThreadingHTTPServer:
    """An HTTP server bound to *service* (``port=0``: ephemeral port).

    The listen backlog is sized from what admission control can hold
    (``max_queued + max_inflight``, at least :data:`MIN_LISTEN_BACKLOG`):
    ``socketserver``'s default of 5 lets the kernel reset or stall a burst
    of simultaneous connects before the service can answer any of them
    with a 429.
    """
    handler = type(
        "BoundServiceHTTPHandler", (ServiceHTTPHandler,), {"service": service}
    )
    controller = service.controller
    backlog = max(MIN_LISTEN_BACKLOG, controller.max_queued + controller.max_inflight)
    bound = type(
        "BoundThreadingHTTPServer",
        (ThreadingHTTPServer,),
        {"request_queue_size": backlog, "daemon_threads": True},
    )
    return bound((host, port), handler)


def _drain_and_stop(
    service: MatchingService,
    server: ThreadingHTTPServer,
    timeout: Optional[float],
) -> None:
    try:
        service.drain(timeout)
    finally:
        server.shutdown()


def install_drain_handlers(
    service: MatchingService,
    server: ThreadingHTTPServer,
    timeout: Optional[float] = None,
) -> bool:
    """SIGTERM → graceful drain, then stop the accept loop.

    Only installable from the main thread (the signal module's rule); the
    handler must not call ``server.shutdown()`` synchronously — that
    deadlocks against the ``serve_forever`` loop running in the very thread
    the signal interrupted — so it hands the drain to a helper thread and
    returns immediately, letting ``serve_forever`` keep answering (503)
    until the drain finishes.
    """
    import signal

    if threading.current_thread() is not threading.main_thread():
        return False

    def handle(signum, frame):  # pragma: no cover - exercised via subprocess
        thread = threading.Thread(
            target=_drain_and_stop,
            args=(service, server, timeout),
            name="repro-serve-drain",
            daemon=True,
        )
        thread.start()

    signal.signal(signal.SIGTERM, handle)
    return True


def serve(
    service: MatchingService,
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    drain_timeout: Optional[float] = None,
) -> Dict[str, object]:
    """Serve *service* until SIGTERM / Ctrl-C (the ``repro serve`` entry).

    Both stop paths drain gracefully: in-flight and queued requests finish,
    new ones get 503 + a measured ``Retry-After``, ingest journals are
    checkpointed and closed.  Returns the final metrics scrape (printed by
    ``repro serve --profile``).
    """
    server = make_http_server(service, host, port)
    install_drain_handlers(service, server, drain_timeout)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        service.drain(drain_timeout)
    finally:
        server.server_close()
        service.drain(drain_timeout)
        final = service.metrics()
        service.close()
    return final
