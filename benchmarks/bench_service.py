#!/usr/bin/env python3
"""Matching-service benchmark: a live ``repro serve`` under concurrent load.

Boots the real HTTP front end (``repro.service``) on an ephemeral port,
registers several named graphs multiplexing one shared snapshot store, and
drives a closed-loop pool of HTTP clients through every registered backend.
Reports:

* **throughput** — completed requests per second over the whole burst;
* **latency** — per-request wall clock (submit → result), p50 / p95 / max;
* **queue depth** — admission-queue occupancy sampled from ``/metrics``
  while the burst is in flight;
* **sharing** — snapshot builds per graph (must be exactly 1) and the
  shared-store hit ratio across all sessions.

Correctness is a hard requirement: every HTTP result must be bit-identical
(pairs, statistics, simulated seconds) to a synchronous ``MatchSession`` run
of the same backend on the same graph — the *full* run when the service
answered with one, and the run *seeded* from the fixpoint a sibling shape
left in the cache when it answered ``incremental`` (a ``reused`` answer is
one of the two, held) — each graph must see exactly one full run (its
first), and each graph's snapshot must have been built exactly once, or the
script exits non-zero.  Timings are written to ``BENCH_service.json``; CI
uploads the artifact on every run.

Run with:  python benchmarks/bench_service.py --out BENCH_service.json
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import statistics
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Tuple

from repro.api.registry import ALGORITHMS
from repro.api.session import MatchSession
from repro.core.parser import parse_graph, serialize_graph
from repro.datasets.music import music_dataset
from repro.datasets.synthetic import synthetic_dataset
from repro.matching.result import EMResult
from repro.service import MatchingService, make_http_server
from repro.service.ingest import _percentile


def _result_key(result) -> tuple:
    """Everything an EMResult pins down besides measured wall clock."""
    return (
        sorted(result.pairs()),
        result.stats.as_dict(),
        round(result.simulated_seconds, 9),
    )


def _http_json(
    host: str, port: int, method: str, path: str, body=None, timeout: float = 600.0
) -> Tuple[int, dict]:
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def run_bench(
    scale: float, rounds: int, max_inflight: int, store_dir: str
) -> Dict:
    synthetic = synthetic_dataset(
        num_keys=6, chain_length=2, radius=2, entities_per_type=8,
        scale=scale, seed=11,
    )
    graphs = {
        "music": music_dataset(),
        "synthetic": (synthetic.graph, synthetic.keys),
    }
    backends = sorted(ALGORITHMS)
    jobs = [
        (name, algorithm)
        for _ in range(rounds)
        for name in graphs
        for algorithm in backends
    ]

    report: Dict = {
        "graphs": {name: graph.stats() for name, (graph, _keys) in graphs.items()},
        "backends": backends,
        "rounds": rounds,
        "requests": len(jobs),
        "max_inflight": max_inflight,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "ok": True,
    }

    # ---- synchronous baselines per (graph, backend): the full run, and the
    # run seeded from the fixpoint another backend left in the cache
    full: Dict[Tuple[str, str], tuple] = {}
    seeded: Dict[Tuple[str, str], tuple] = {}
    for name, (graph, keys) in graphs.items():
        session = MatchSession(graph).with_keys(keys)
        for algorithm in backends:
            full[(name, algorithm)] = _result_key(session.run(algorithm))
        # chase(G, Σ) is a function of (G, Σ): whichever backend seeds, the
        # seeded run is the same, so two seeders cover every backend
        for seeder, algorithms in ((backends[0], backends[1:]), (backends[1], backends[:1])):
            session = MatchSession(graph).with_keys(keys)
            session.run(seeder)
            for algorithm in algorithms:
                seeded[(name, algorithm)] = _result_key(session.rerun(algorithm=algorithm))
                assert session.last_delta().mode == "incremental"

    # ---- the live server ------------------------------------------------ #
    service = MatchingService(
        store=store_dir, max_inflight=max_inflight, max_queued=len(jobs) + 8
    )
    for name, (graph, keys) in graphs.items():
        # as a restarted process parses it, holding no snapshot: the "built
        # exactly once" gate would pass vacuously over one ``graph`` holds
        restarted = parse_graph(serialize_graph(graph))
        service.register_graph(name, restarted, keys, source="bench")
    server = make_http_server(service, host="127.0.0.1", port=0)
    host, port = server.server_address
    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()

    depth_samples: List[int] = []
    sampling = threading.Event()

    def sample_queue_depth() -> None:
        while not sampling.wait(0.01):
            depth_samples.append(service.controller.queue_depth)

    latencies: List[float] = []
    latency_lock = threading.Lock()
    divergent: List[str] = []

    def drive(job: Tuple[str, str]) -> None:
        name, algorithm = job
        started = time.perf_counter()
        status, data = _http_json(
            host, port, "POST", "/match",
            {"graph": name, "algorithm": algorithm, "wait": True},
        )
        elapsed = time.perf_counter() - started
        with latency_lock:
            latencies.append(elapsed)
            if status != 200 or data.get("status") != "done":
                divergent.append(f"{name}/{algorithm}: HTTP {status} {data.get('status')}")
                return
            result = EMResult.from_dict(data["result"])
            mode = data["provenance"]["delta"]["mode"]
            expected = {
                "full": [full[job]],
                "incremental": [seeded[job]],
                "reused": [full[job], seeded[job]],  # held: whichever ran
            }[mode]
            if _result_key(result) not in expected or result.algorithm != algorithm:
                divergent.append(
                    f"{name}/{algorithm}: {mode} result diverged from sync run"
                )

    sampler = threading.Thread(target=sample_queue_depth, daemon=True)
    sampler.start()
    burst_started = time.perf_counter()
    try:
        with ThreadPoolExecutor(max_workers=min(len(jobs), 32)) as pool:
            list(pool.map(drive, jobs))
        burst_seconds = time.perf_counter() - burst_started
    finally:
        sampling.set()
        sampler.join(timeout=5.0)
        metrics = service.metrics()
        server.shutdown()
        server.server_close()
        service.close()

    report["throughput"] = {
        "burst_seconds": round(burst_seconds, 6),
        "requests_per_second": round(len(jobs) / burst_seconds, 3),
    }
    ordered = sorted(latencies)
    report["latency_seconds"] = {
        "p50": round(_percentile(ordered, 0.50), 6),
        "p95": round(_percentile(ordered, 0.95), 6),
        "max": round(max(latencies), 6) if latencies else 0.0,
        "mean": round(statistics.fmean(latencies), 6) if latencies else 0.0,
    }
    report["queue_depth"] = {
        "samples": len(depth_samples),
        "max": max(depth_samples) if depth_samples else 0,
        "mean": round(statistics.fmean(depth_samples), 3) if depth_samples else 0.0,
        "max_seen_by_controller": metrics["admission"]["max_queue_depth_seen"],
    }
    report["admission"] = metrics["admission"]

    # ---- the sharing contract ------------------------------------------- #
    store_metrics = metrics["registry"]["store"] or {}
    store_hits = store_metrics.get("hits", 0)
    store_lookups = store_hits + store_metrics.get("misses", 0)
    snapshot_builds = {
        name: entry["cache"]["snapshot_builds"]
        for name, entry in metrics["registry"]["per_graph"].items()
    }
    report["sharing"] = {
        "snapshot_builds_per_graph": snapshot_builds,
        "store_hit_ratio": (
            round(store_hits / store_lookups, 3) if store_lookups else 0.0
        ),
        "store": store_metrics,
    }
    build_once = all(builds == 1 for builds in snapshot_builds.values())
    if not build_once:
        divergent.append(f"snapshot built more than once: {snapshot_builds}")
    reads_by_mode = {
        name: entry["reads_by_mode"]
        for name, entry in metrics["registry"]["per_graph"].items()
    }
    report["sharing"]["reads_by_mode"] = reads_by_mode
    if any(modes["full"] != 1 for modes in reads_by_mode.values()):
        divergent.append(f"a graph solved in full more than once: {reads_by_mode}")

    # identity with the synchronous runs (and build-once sharing) is the
    # hard gate; throughput/latency live in the artifact trajectory
    report["identity"] = {
        "checked": len(jobs),
        "identical": not divergent,
        "divergent": divergent,
    }
    report["ok"] = not divergent
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--rounds", type=int, default=3,
        help="how many times each (graph, backend) pair is requested",
    )
    parser.add_argument("--max-inflight", type=int, default=4)
    parser.add_argument("--out", default="BENCH_service.json")
    parser.add_argument(
        "--store-dir", default=None,
        help="shared snapshot-store directory (default: a temporary directory)",
    )
    args = parser.parse_args(argv)

    if args.store_dir is not None:
        report = run_bench(args.scale, args.rounds, args.max_inflight, args.store_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as store_dir:
            report = run_bench(args.scale, args.rounds, args.max_inflight, store_dir)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwrote {args.out}")
    if not report["ok"]:
        print(
            "FAIL: served results diverged from synchronous runs "
            f"({report['identity']['divergent']})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
