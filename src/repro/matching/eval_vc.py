"""``EvalVC``: the vertex program of the vertex-centric algorithms (Fig. 5).

Each candidate pair evaluates its keys by sending messages along the key's
traversal order ``P_Q`` through the product graph.  A message carries the
partial instantiation vector ``m`` (one slot per pattern node, holding the
product-graph node instantiating it or ``None``); the vertex hosting the
current cursor position extends ``m`` by forking copies to feasible neighbour
pairs, verifies already-instantiated edges when the tour revisits them, and —
when the tour returns to the origin fully instantiated — sets the origin's
flag, which triggers dependency notifications and transitive-closure
propagation.

Differences from the paper, noted for reviewers:

* feasibility of a fork target is checked before sending (at the sender)
  instead of after receiving; this only moves where the work is charged and
  reduces pointless messages for both variants equally;
* bounded messages (``max_fanout``) are implemented by deferring the targets
  beyond the budget into a single low-priority continuation message processed
  only if the evaluation is still unresolved — a form of distributed
  backtracking that preserves completeness while capping in-flight copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.equivalence import EquivalenceFork, EquivalenceRelation, Pair, Relation
from ..core.key import KeySet
from ..core.graph import Graph
from ..core.pattern import NodeKind, TourStep
from ..core.triples import GraphNode, Literal, is_entity_ref
from ..vertexcentric.engine import VertexContext
from .product_graph import ProductGraph, ProductNode


@dataclass
class PairState:
    """Mutable per-vertex state of the product graph."""

    flag: bool = False
    is_candidate: bool = False


@dataclass(frozen=True)
class Activate:
    """Start (or restart) key evaluation at a candidate pair.

    ``prerequisite`` is the newly identified pair that caused the restart, or
    ``None`` for the initial activation injected by the driver.
    """

    prerequisite: Optional[Pair] = None


#: The instantiation vector ``m``: one slot per pattern node of the key, in
#: ``pattern.nodes()`` order, ``None`` while the node is not instantiated.
Slots = Tuple[Optional[ProductNode], ...]

#: A key-evaluation message travelling along a traversal order, as a plain
#: tuple ``(origin, key name, step index, slots)``: extending ``m`` is two
#: slices and a concatenation, advancing the cursor a new 4-tuple.
EvalMessage = Tuple[Pair, str, int, Slots]


@dataclass(frozen=True)
class DeferredFork:
    """A continuation holding fork targets beyond the message budget."""

    message: EvalMessage
    far_slot: int
    targets: Tuple[ProductNode, ...]


@dataclass
class EvalVCCounters:
    """Counters of the vertex program (used by reports and benchmarks)."""

    activations: int = 0
    eval_messages: int = 0
    deferred_forks: int = 0
    early_cancelled: int = 0
    dead_branches: int = 0
    confirmations: int = 0
    tc_flags: int = 0
    dep_notifications: int = 0


class EvalVCProgram:
    """The vertex program executed at every product-graph node."""

    def __init__(
        self,
        graph: Graph,
        keys: KeySet,
        product_graph: ProductGraph,
        max_fanout: Optional[int] = None,
        prioritize: bool = False,
        seed: Optional[EquivalenceFork] = None,
    ) -> None:
        if max_fanout is not None and max_fanout < 1:
            raise ValueError(f"max_fanout must be >= 1 or None, got {max_fanout}")
        self._graph = graph
        self._product_graph = product_graph
        self._max_fanout = max_fanout
        self._prioritize = prioritize
        #: key name -> its tour, as its pattern compiled it
        self._tours: Dict[str, Tuple[TourStep, ...]] = {}
        #: entity type -> (key name, is recursive, blank slots before and
        #: after the designated node's) of each key defined on it
        self._starts: Dict[str, List[Tuple[str, bool, Slots, Slots]]] = {}
        for key in keys:
            names = [node.name for node in key.pattern.nodes()]
            self._tours[key.name] = key.pattern.tour
            x = names.index(key.pattern.designated.name)
            self._starts.setdefault(key.target_type, []).append(
                (key.name, key.is_recursive, (None,) * x, (None,) * (len(names) - x - 1))
            )
        #: incremental re-matching: the seed fork the run merges into.  It
        #: travels with the program, so a partitioned replica restarts from
        #: it (:meth:`replica_relation`) and the canonical merge history
        #: holds this run's merges only
        self._seed = seed
        self.live_eq = self.replica_relation()
        self.counters = EvalVCCounters()
        # Replica-mode bookkeeping (partitioned execution only, see
        # repro.vertexcentric.parallel): which vertices this replica believes
        # are flagged, the monotone deltas recorded since the last sync, and
        # how much of the canonical (epoch, flag list, merge list) history
        # this replica has already applied.  All stay None/0 in the classic
        # single-process drain.
        self._replica_flagged: Optional[Set[ProductNode]] = None
        self._flag_sink: Optional[List[ProductNode]] = None
        self._merge_sink: Optional[List[Pair]] = None
        self._replica_epoch: Optional[int] = None
        self._replica_flag_count = 0
        self._replica_merge_count = 0

    # ------------------------------------------------------------------ #
    # replica protocol (partitioned execution)
    # ------------------------------------------------------------------ #
    #
    # Under partitioned execution every worker holds a full replica of the
    # mutable run state: the per-vertex flags and the live equivalence
    # relation.  Both are *monotone* (flags only rise, Eq only merges), so a
    # replica can always be reset to the driver's canonical state and the
    # deltas it produced can always be merged back — the CRDT-style property
    # the superstep loop relies on.

    def replica_relation(self) -> Relation:
        """The relation before any merge of this run: the seed, or ``Eq0``."""
        return EquivalenceRelation() if self._seed is None else self._seed.restarted()

    def seeded(self, e1: str, e2: str) -> bool:
        """Whether the seed identifies *e1* and *e2* (whatever the run merged)."""
        return self._seed is not None and self._seed.inherited(e1, e2)

    def replica_canonical(
        self, vertices: Dict[ProductNode, object]
    ) -> Tuple[tuple, tuple, int]:
        """The initial canonical state: flagged vertices, no merges, epoch 0."""
        flagged = tuple(
            vertex for vertex, state in vertices.items() if getattr(state, "flag", False)
        )
        self._replica_flagged = set(flagged)
        self._replica_epoch = 0
        self._replica_flag_count = len(flagged)
        self._replica_merge_count = 0
        return (flagged, (), 0)

    def replica_sync(
        self, vertices: Dict[ProductNode, object], canonical: Tuple[tuple, tuple, int]
    ) -> None:
        """Reset this replica to exactly the canonical (flags, merges) state.

        The canonical flag and merge lists are append-only and every task
        delta is merged into them at the superstep barrier, so once the epoch
        has advanced past the replica's last sync, the replica's state is a
        *subset* of canonical and only the list tails need applying.  Within
        one epoch (a shared-address-space site running several tasks of the
        same superstep) the replica may hold sibling-task deltas that are not
        canonical yet, so it is rebuilt from scratch instead.
        """
        flagged, merges, epoch = canonical
        incremental = (
            self._replica_epoch is not None
            and epoch > self._replica_epoch
            and self._replica_flagged is not None
        )
        if incremental:
            for vertex in flagged[self._replica_flag_count :]:
                if vertex not in self._replica_flagged:  # type: ignore[operator]
                    vertices[vertex].flag = True  # type: ignore[attr-defined]
                    self._replica_flagged.add(vertex)  # type: ignore[union-attr]
            for e1, e2 in merges[self._replica_merge_count :]:
                self.live_eq.merge(e1, e2)
        else:
            flagged_set = set(flagged)
            if self._replica_flagged is None:
                # first sync in this worker process: learn the replica's flags
                self._replica_flagged = {
                    vertex
                    for vertex, state in vertices.items()
                    if getattr(state, "flag", False)
                }
            for vertex in self._replica_flagged - flagged_set:
                vertices[vertex].flag = False  # type: ignore[attr-defined]
            for vertex in flagged_set - self._replica_flagged:
                vertices[vertex].flag = True  # type: ignore[attr-defined]
            self._replica_flagged = flagged_set
            eq = self.replica_relation()
            for e1, e2 in merges:
                eq.merge(e1, e2)
            self.live_eq = eq
        self._replica_epoch = epoch
        self._replica_flag_count = len(flagged)
        self._replica_merge_count = len(merges)
        self.counters = EvalVCCounters()
        self._flag_sink = []
        self._merge_sink = []

    def replica_delta(self) -> Tuple[tuple, tuple, EvalVCCounters]:
        """The monotone deltas recorded since the last sync, plus counters."""
        if self._flag_sink is None or self._merge_sink is None:
            raise RuntimeError("replica_delta() requires a preceding replica_sync()")
        flags, merges = tuple(self._flag_sink), tuple(self._merge_sink)
        self._flag_sink = None
        self._merge_sink = None
        return flags, merges, self.counters

    def replica_finalize(
        self,
        vertices: Dict[ProductNode, object],
        canonical: Tuple[tuple, tuple, int],
        counter_totals: Dict[str, int],
    ) -> None:
        """Land the driver-side program on the canonical final state."""
        self.replica_sync(vertices, canonical)
        self._flag_sink = None
        self._merge_sink = None
        self._replica_flagged = None
        self._replica_epoch = None
        for name, value in counter_totals.items():
            setattr(self.counters, name, value)

    def _record_flag(self, vertex: ProductNode) -> None:
        if self._flag_sink is not None:
            self._flag_sink.append(vertex)
            self._replica_flagged.add(vertex)  # type: ignore[union-attr]

    def _record_merge(self, pair: Pair) -> None:
        if self._merge_sink is not None:
            self._merge_sink.append(pair)

    # ------------------------------------------------------------------ #
    # message dispatch
    # ------------------------------------------------------------------ #

    def on_message(
        self, vertex_id: ProductNode, state: PairState, payload: object, context: VertexContext
    ) -> None:
        if type(payload) is tuple:
            self._handle_eval(vertex_id, payload, context)
        elif isinstance(payload, Activate):
            self._handle_activate(vertex_id, state, payload, context)
        elif isinstance(payload, DeferredFork):
            self._handle_deferred(vertex_id, payload, context)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected message payload: {type(payload).__name__}")

    # ------------------------------------------------------------------ #
    # activation: start the evaluation of keys at a candidate pair
    # ------------------------------------------------------------------ #

    def _handle_activate(
        self, vertex_id: ProductNode, state: PairState, payload: Activate, context: VertexContext
    ) -> None:
        self.counters.activations += 1
        if state.flag or not state.is_candidate:
            return
        origin = (str(vertex_id[0]), str(vertex_id[1]))
        # a discharged dependency can only make recursively defined keys newly
        # succeed: value-based keys were fully evaluated already
        recursive_only = payload.prerequisite is not None
        starts = self._starts.get(self._graph.entity_type(origin[0]), ())
        for key_name, is_recursive, before, after in starts:
            if is_recursive or not recursive_only:
                context.send(vertex_id, (origin, key_name, 0, before + (vertex_id,) + after))

    # ------------------------------------------------------------------ #
    # the guided tour
    # ------------------------------------------------------------------ #

    def _handle_eval(
        self, vertex_id: ProductNode, message: EvalMessage, context: VertexContext
    ) -> None:
        counters = self.counters
        counters.eval_messages += 1
        origin, key_name, index, slots = message
        if context.state(origin).flag:
            counters.early_cancelled += 1
            return
        tour = self._tours[key_name]
        if index >= len(tour):
            if vertex_id == origin and None not in slots:  # fully instantiated
                self._confirm(origin, context)
            return

        near_slot, far_slot, predicate, forward, kind, etype, constant = tour[index]
        if slots[near_slot] != vertex_id:  # pragma: no cover - defensive routing check
            counters.dead_branches += 1
            return
        far = slots[far_slot]
        if far is not None:
            context.add_work(1)
            if self._edge_exists(predicate, forward, vertex_id, far):
                context.send(far, (origin, key_name, index + 1, slots))
            else:
                counters.dead_branches += 1
            return

        # far end not instantiated yet: fork over feasible product neighbours,
        # in EMOptVC's send order when propagation is prioritized
        targets = self._product_graph.neighbors(vertex_id, predicate, forward, self._prioritize)
        context.add_work(max(1, len(targets)))
        used1 = {pair[0] for pair in slots if pair is not None}
        used2 = {pair[1] for pair in slots if pair is not None}
        feasible = [t for t in targets if self._feasible(kind, etype, constant, t, used1, used2)]
        if not feasible:
            counters.dead_branches += 1
            return
        self._fork(vertex_id, message, far_slot, feasible, context)

    def _handle_deferred(
        self, vertex_id: ProductNode, payload: DeferredFork, context: VertexContext
    ) -> None:
        self.counters.deferred_forks += 1
        if context.state(payload.message[0]).flag:
            self.counters.early_cancelled += 1
            return
        self._fork(vertex_id, payload.message, payload.far_slot, list(payload.targets), context)

    def _fork(
        self, vertex_id: ProductNode, message: EvalMessage, far_slot: int,
        targets: List[ProductNode], context: VertexContext,
    ) -> None:
        origin, key_name, index, slots = message
        before, after, index = slots[:far_slot], slots[far_slot + 1 :], index + 1
        budget = self._max_fanout if self._max_fanout is not None else len(targets)
        send = context.send
        for target in targets[:budget]:
            send(target, (origin, key_name, index, before + (target,) + after))
        later = targets[budget:]
        if later:
            send(vertex_id, DeferredFork(message, far_slot, tuple(later)), priority=5)

    # ------------------------------------------------------------------ #
    # feasibility and edge verification
    # ------------------------------------------------------------------ #

    def _feasible(
        self, kind: NodeKind, etype: Optional[str], constant: Optional[Literal],
        target: ProductNode, used1: Set[GraphNode], used2: Set[GraphNode],
    ) -> bool:
        """Can *target* instantiate a far pattern node of this *kind* (with
        its *etype* or *constant*), given the graph nodes already used on each
        side of the assignment?"""
        t1, t2 = target
        if t1 in used1 or t2 in used2:
            return False
        if kind is NodeKind.CONSTANT:
            return t1 == constant and t2 == constant
        if kind is NodeKind.VALUE_VAR:
            return isinstance(t1, Literal) and isinstance(t2, Literal) and t1 == t2
        if not (is_entity_ref(t1) and is_entity_ref(t2)):
            return False
        if self._graph.entity_type(t1) != etype or self._graph.entity_type(t2) != etype:
            return False
        if kind is NodeKind.ENTITY_VAR:
            return self.live_eq.identified(t1, t2)
        return True  # WILDCARD

    def _edge_exists(
        self, predicate: str, forward: bool, near: ProductNode, far: ProductNode
    ) -> bool:
        (s1, s2), (o1, o2) = (near, far) if forward else (far, near)
        return (
            is_entity_ref(s1)
            and is_entity_ref(s2)
            and self._graph.has_triple(s1, predicate, o1)
            and self._graph.has_triple(s2, predicate, o2)
        )

    # ------------------------------------------------------------------ #
    # confirmation: flag, transitive closure and dependency notifications
    # ------------------------------------------------------------------ #

    def _confirm(self, origin: Pair, context: VertexContext) -> None:
        origin_state = context.state(origin)
        if origin_state.flag:
            return
        origin_state.flag = True
        self._record_flag(origin)
        if self.live_eq.merge(origin[0], origin[1]):
            self._record_merge(origin)
        self.counters.confirmations += 1
        newly_flagged: List[Pair] = [origin]

        # transitive closure: other candidate pairs implied by the merged class
        for entity in self.live_eq.class_of(origin[0]):
            for pair in self._product_graph.candidate_pairs_touching(entity):
                if not context.has_vertex(pair):
                    continue
                pair_state = context.state(pair)
                if not pair_state.flag and self.live_eq.identified(pair[0], pair[1]):
                    pair_state.flag = True
                    self._record_flag(pair)
                    newly_flagged.append(pair)
                    self.counters.tc_flags += 1
                    context.add_work(1)

        # dependency notifications: restart dependents of every newly flagged
        # pair, pairs and sets walked in id order (the sends' order is the schedule)
        newly_flagged[1:] = sorted(newly_flagged[1:])
        for flagged in newly_flagged:
            for dependent in sorted(self._product_graph.dependents_of(flagged)):
                if not context.has_vertex(dependent):
                    continue
                if not context.state(dependent).flag:
                    self.counters.dep_notifications += 1
                    context.send(dependent, Activate(prerequisite=flagged))
