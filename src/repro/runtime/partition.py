"""Deterministic data partitioning shared by the execution substrates.

Two distinct needs, one module:

* **Stateless placement** (:func:`stable_hash`, :meth:`Partitioner.assign`) —
  the MapReduce shuffle and the vertex-centric cost model must map a key or a
  vertex to a worker *without seeing the other keys*, and the mapping must be
  identical in every process.  The builtin ``hash`` is salted per process
  (``PYTHONHASHSEED``), which silently breaks any multiprocess run — hence
  :func:`stable_hash`, a CRC-32 over a canonical repr.
* **Whole-set splitting** (:meth:`Partitioner.split`) — placing all vertices
  (or all input records) at once, where balance and locality matter.

Strategies:

* ``hash`` — stable hash placement; stateless, the shuffle-compatible default.
* ``chunk`` — contiguous, maximally balanced splits (Hadoop-style input
  splits); not stateless, best for one-shot record batches.
* ``fragment`` — locality-aware: items are grouped by an *affinity key* (for
  product-graph vertices: the first entity of the pair, so pairs touching the
  same entity — which exchange transitive-closure and dependency messages —
  land on one worker), and groups are packed onto workers by decreasing size,
  least-loaded first.

Every strategy is a total function of its inputs: each item is assigned to
exactly one partition and repeated calls yield identical results in any
process.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..core.triples import Literal
from ..exceptions import ExecutorError

#: The registered partitioner strategies, in documentation order.
PARTITIONER_KINDS: Tuple[str, ...] = ("hash", "chunk", "fragment")


def _canonical_repr(value: object) -> str:
    """A repr that is stable across processes for partitionable keys.

    ``repr`` alone is canonical for the identifiers the engines partition on
    (strings, numbers, tuples of those), but *unordered* collections render
    in hash-iteration order, which ``PYTHONHASHSEED`` salts per process —
    those are serialised in sorted element order here instead.  Containers
    recurse so a tuple wrapping a set is canonical too.
    """
    if isinstance(value, (set, frozenset)):
        inner = ", ".join(sorted(_canonical_repr(item) for item in value))
        return f"{type(value).__name__}({{{inner}}})"
    if isinstance(value, dict):
        items = sorted(
            (_canonical_repr(k), _canonical_repr(v)) for k, v in value.items()
        )
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if isinstance(value, tuple) and not isinstance(value, Literal):
        inner = ", ".join(_canonical_repr(item) for item in value)
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    if isinstance(value, list):
        return "[" + ", ".join(_canonical_repr(item) for item in value) + "]"
    return repr(value)


def stable_hash(value: object) -> int:
    """A process-stable, platform-stable hash of *value*.

    CRC-32 over a canonical repr — unlike the builtin ``hash`` it does not
    depend on ``PYTHONHASHSEED``, so two worker processes (or two runs)
    always agree on placement, including for keys containing unordered
    collections (see :func:`_canonical_repr`).
    """
    return zlib.crc32(_canonical_repr(value).encode("utf-8"))


class Partitioner:
    """Common surface of the partitioning strategies."""

    kind: str = "abstract"

    def __init__(self, num_partitions: int) -> None:
        if (
            not isinstance(num_partitions, int)
            or isinstance(num_partitions, bool)
            or num_partitions < 1
        ):
            raise ExecutorError(
                f"num_partitions must be an int >= 1, got {num_partitions!r}"
            )
        self.num_partitions = num_partitions

    def assign(self, item: Hashable) -> int:
        """The partition hosting *item* (stateless strategies only)."""
        raise ExecutorError(
            f"partitioner strategy {self.kind!r} has no stateless assignment; "
            f"use split() on the full item set"
        )

    def split(self, items: Sequence[Hashable]) -> List[List[Hashable]]:
        """Partition *items*: every item lands in exactly one part."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(num_partitions={self.num_partitions})"


class HashPartitioner(Partitioner):
    """Stable-hash placement: stateless, shuffle-compatible.

    ``key_fn`` optionally maps an item to the key actually hashed — the
    matching engines install
    :meth:`~repro.storage.snapshot.GraphSnapshot.placement_key` so vertex
    placement hashes interned integer ids instead of node reprs.
    """

    kind = "hash"

    def __init__(
        self,
        num_partitions: int,
        key_fn: Optional[Callable[[Hashable], Hashable]] = None,
    ) -> None:
        super().__init__(num_partitions)
        self._key_fn = key_fn

    def assign(self, item: Hashable) -> int:
        key = item if self._key_fn is None else self._key_fn(item)
        return stable_hash(key) % self.num_partitions

    def split(self, items: Sequence[Hashable]) -> List[List[Hashable]]:
        parts: List[List[Hashable]] = [[] for _ in range(self.num_partitions)]
        for item in items:
            parts[self.assign(item)].append(item)
        return parts


class ChunkPartitioner(Partitioner):
    """Contiguous, maximally balanced splits (part sizes differ by <= 1)."""

    kind = "chunk"

    def split(self, items: Sequence[Hashable]) -> List[List[Hashable]]:
        n, p = len(items), self.num_partitions
        base, extra = divmod(n, p)
        parts: List[List[Hashable]] = []
        start = 0
        for index in range(p):
            size = base + (1 if index < extra else 0)
            parts.append(list(items[start : start + size]))
            start += size
        return parts


class FragmentPartitioner(Partitioner):
    """Locality-aware splits: affinity groups packed least-loaded first.

    Items sharing an affinity key stay on one worker.  Groups are packed by
    decreasing size onto the currently least-loaded partition (LPT), so the
    imbalance is bounded by the largest affinity group: every partition load
    is < ideal + max_group_size.
    """

    kind = "fragment"

    def __init__(
        self,
        num_partitions: int,
        affinity: Optional[Callable[[Hashable], Hashable]] = None,
    ) -> None:
        super().__init__(num_partitions)
        self._affinity = affinity if affinity is not None else default_affinity

    def split(self, items: Sequence[Hashable]) -> List[List[Hashable]]:
        groups: Dict[Hashable, List[Hashable]] = {}
        for item in items:
            groups.setdefault(self._affinity(item), []).append(item)
        parts: List[List[Hashable]] = [[] for _ in range(self.num_partitions)]
        loads = [0] * self.num_partitions
        # decreasing size, stable-hash tiebreak: deterministic in any process
        ordered = sorted(
            groups.items(), key=lambda kv: (-len(kv[1]), stable_hash(kv[0]), repr(kv[0]))
        )
        for _, group in ordered:
            target = min(range(self.num_partitions), key=lambda i: (loads[i], i))
            parts[target].extend(group)
            loads[target] += len(group)
        return parts


def default_affinity(item: Hashable) -> Hashable:
    """Affinity of a product-graph vertex: co-locate pairs by first component."""
    if isinstance(item, tuple) and item and not isinstance(item, Literal):
        return item[0]
    return item


def create_partitioner(
    kind: Optional[str],
    num_partitions: int,
    *,
    affinity: Optional[Callable[[Hashable], Hashable]] = None,
    key_fn: Optional[Callable[[Hashable], Hashable]] = None,
) -> Partitioner:
    """Build a partitioner from configuration strings (``None`` -> hash).

    ``key_fn`` feeds :class:`HashPartitioner` (interned-id placement);
    ``affinity`` feeds :class:`FragmentPartitioner`.
    """
    if kind is None or kind == "hash":
        return HashPartitioner(num_partitions, key_fn=key_fn)
    if kind == "chunk":
        return ChunkPartitioner(num_partitions)
    if kind == "fragment":
        return FragmentPartitioner(num_partitions, affinity=affinity)
    raise ExecutorError(
        f"unknown partitioner strategy {kind!r}; "
        f"expected one of {', '.join(PARTITIONER_KINDS)}"
    )
