"""Results and statistics shared by all entity-matching algorithms.

Every algorithm — the sequential chase, the MapReduce family and the
vertex-centric family — returns an :class:`EMResult`, so callers (and the
cross-algorithm consistency tests) can treat them interchangeably, while the
benchmarks read the per-algorithm statistics (rounds, messages, candidate
counts, simulated seconds) that reproduce the paper's tables and figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set

from ..core.equivalence import EquivalenceRelation, Pair


@dataclass
class EMStatistics:
    """Counters describing one entity-matching run."""

    #: |L| before any filtering: all same-type pairs with a key defined on them.
    candidate_pairs: int = 0
    #: |L| actually processed (after the pairing filter for optimized variants).
    processed_pairs: int = 0
    #: number of pairs directly identified by a key (not only by transitivity).
    directly_identified: int = 0
    #: number of identified pairs in the final result (including transitivity).
    identified_pairs: int = 0
    #: MapReduce rounds (0 for vertex-centric runs).
    rounds: int = 0
    #: per-pair isomorphism checks performed.
    checks: int = 0
    #: abstract work units charged to the cost model.
    work_units: int = 0
    #: messages sent (vertex-centric runs only).
    messages_sent: int = 0
    #: messages processed (vertex-centric runs only).
    messages_processed: int = 0
    #: records moved in MapReduce shuffles.
    shuffled_records: int = 0
    #: product-graph nodes / edges (vertex-centric runs only).
    product_graph_nodes: int = 0
    product_graph_edges: int = 0
    #: total / maximum d-neighbourhood sizes (in nodes).
    neighborhood_total: int = 0
    neighborhood_max: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, payload: Mapping[str, int]) -> "EMStatistics":
        """Rebuild statistics from :meth:`as_dict` output.

        Unknown keys are ignored (a newer writer may know more counters than
        this reader); missing keys keep their zero defaults.
        """
        known = {field_name for field_name in cls().__dict__}
        return cls(**{k: v for k, v in payload.items() if k in known})


@dataclass
class EMResult:
    """The outcome of an entity-matching run: ``chase(G, Σ)`` plus accounting."""

    algorithm: str
    processors: int
    eq: EquivalenceRelation
    simulated_seconds: float = 0.0
    #: measured wall-clock seconds of the run on the real machine (0.0 when
    #: the backend does not measure); orthogonal to ``simulated_seconds``,
    #: which models a cluster of ``processors`` simulated workers.
    wall_seconds: float = 0.0
    stats: EMStatistics = field(default_factory=EMStatistics)
    cost_breakdown: Dict[str, float] = field(default_factory=dict)

    def pairs(self) -> Set[Pair]:
        """All identified (non-trivial) pairs."""
        return self.eq.pairs()

    def identified(self, e1: str, e2: str) -> bool:
        """``(G, Σ) |= (e1, e2)``?"""
        return self.eq.identified(e1, e2)

    @property
    def num_identified(self) -> int:
        return self.eq.pair_count()

    def to_dict(self) -> Dict[str, object]:
        """A stable, JSON-serializable wire form of this result.

        The equivalence relation travels as its sorted non-trivial classes
        (singletons carry no information for consumers), so the encoding is
        deterministic for a given result: two bit-identical runs produce
        byte-identical JSON.  Round-trips through :meth:`from_dict` preserve
        ``pairs()``, every statistic, both clocks and the cost breakdown —
        this is the payload the ``repro serve`` result endpoint returns.
        """
        classes: List[List[str]] = sorted(
            sorted(cls) for cls in self.eq.nontrivial_classes()
        )
        return {
            "algorithm": self.algorithm,
            "processors": self.processors,
            "identified_pairs": self.num_identified,
            "classes": classes,
            "simulated_seconds": self.simulated_seconds,
            "wall_seconds": self.wall_seconds,
            "stats": self.stats.as_dict(),
            "cost_breakdown": dict(self.cost_breakdown),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "EMResult":
        """Rebuild a result from :meth:`to_dict` output (e.g. service JSON)."""
        eq = EquivalenceRelation()
        for members in payload.get("classes", ()):  # type: ignore[union-attr]
            anchor = None
            for member in members:
                if anchor is None:
                    anchor = member
                    eq.add(member)
                else:
                    eq.merge(anchor, member)
        return cls(
            algorithm=str(payload["algorithm"]),
            processors=int(payload["processors"]),  # type: ignore[arg-type]
            eq=eq,
            simulated_seconds=float(payload.get("simulated_seconds", 0.0)),  # type: ignore[arg-type]
            wall_seconds=float(payload.get("wall_seconds", 0.0)),  # type: ignore[arg-type]
            stats=EMStatistics.from_dict(payload.get("stats", {})),  # type: ignore[arg-type]
            cost_breakdown=dict(payload.get("cost_breakdown", {})),  # type: ignore[arg-type]
        )

    def summary(self) -> Dict[str, object]:
        """A flat summary used by reports and the CLI."""
        summary: Dict[str, object] = {
            "algorithm": self.algorithm,
            "processors": self.processors,
            "identified_pairs": self.num_identified,
            "simulated_seconds": round(self.simulated_seconds, 3),
            "wall_seconds": round(self.wall_seconds, 4),
        }
        summary.update(self.stats.as_dict())
        return summary

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EMResult({self.algorithm!r}, p={self.processors}, "
            f"identified={self.num_identified}, "
            f"simulated_seconds={self.simulated_seconds:.2f})"
        )
