"""Names: workloads, end-to-end slots and their per-workload meaning.

``BENCHMARK.json`` must print every end-to-end metric on every workload,
so the bounded metrics are four role-named slots plus set-up time and peak
memory.  What a slot measures depends on the workload; :data:`ALIASES`
gives each cell the name the issue, the README and later PRs use
(``match_s``, ``req_p95_ms``, ``recover_s`` ...).  ``run.py`` prints both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

from . import REPO_ROOT
from .stats import Estimate

WORKLOADS = ("batch_cold", "batch_warm_backends", "serve_mixed", "ingest_recover")


class Alias(NamedTuple):
    name: str
    unit: str
    #: multiply the slot's value by this to get the alias's unit
    scale: float
    meaning: str


ALIASES: Dict[str, Dict[str, Alias]] = {
    "batch_cold": {
        "primary_ms": Alias("match_s", "s", 0.001, "cold one-shot EMOptMR match on a fresh session"),
        "secondary_ms": Alias("match_chase_ms", "ms", 1.0, "cold one-shot sequential chase on a fresh session"),
        "tertiary_ms": Alias("rematch_ms", "ms", 1.0, "second run() on the session the cold match built"),
        "throughput_per_s": Alias("matches_per_s", "1/s", 1.0, "3 / (the three times above, summed)"),
    },
    "batch_warm_backends": {
        "primary_ms": Alias("solve_chase_ms", "ms", 1.0, "warm chase solve"),
        "secondary_ms": Alias("solve_mr_ms", "ms", 1.0, "sum of warm EMMR + EMOptMR + EMVF2MR medians"),
        "tertiary_ms": Alias("solve_vc_ms", "ms", 1.0, "sum of warm EMVC + EMOptVC medians"),
        "throughput_per_s": Alias("solves_per_s", "1/s", 1.0, "6 / (the six warm solve times, summed)"),
    },
    "serve_mixed": {
        "primary_ms": Alias("req_p50_ms", "ms", 1.0, "POST /match wait=true, client-side median"),
        "secondary_ms": Alias("req_p95_ms", "ms", 1.0, "POST /match wait=true, client-side p95"),
        "tertiary_ms": Alias("write_p50_ms", "ms", 1.0, "POST /graphs/hot/ingest window, client-side median"),
        "throughput_per_s": Alias("req_per_s", "1/s", 1.0, "all requests over the measured wall time"),
    },
    "ingest_recover": {
        "primary_ms": Alias("staleness_p50_ms", "ms", 1.0, "per op: applied to first published result covering it; median of a stream repeat"),
        "secondary_ms": Alias("staleness_p95_ms", "ms", 1.0, "same, p95 of a stream repeat"),
        "tertiary_ms": Alias("recover_s", "s", 0.001, "GraphRegistry.register replaying a 96-op crash journal"),
        "throughput_per_s": Alias("ingest_ops_per_s", "1/s", 1.0, "ops of one stream repeat over its time"),
    },
}


def load_benchmark_json() -> Dict[str, object]:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Outcome:
    """What one workload run measured."""

    workload: str
    attempted: int = 0
    failed: int = 0
    #: why operations failed (first few, for the human-readable report)
    failures: List[str] = field(default_factory=list)
    end_to_end: Dict[str, Estimate] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: peak resident memory after a fixed amount of work (``harness.mark_rss``)
    rss_mb: Optional[float] = None
    trace_file: Optional[str] = None

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; record *what* when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)
        return ok
