"""``EvalVC``: the vertex program of the vertex-centric algorithms (Fig. 5).

Each candidate pair evaluates its keys by sending messages along the key's
traversal order ``P_Q`` through the product graph.  A message carries the
partial instantiation vector ``m`` (pattern-node name → product-graph node);
the vertex hosting the current cursor position extends ``m`` by forking copies
to feasible neighbour pairs, verifies already-instantiated edges when the tour
revisits them, and — when the tour returns to the origin fully instantiated —
sets the origin's flag, which triggers dependency notifications and
transitive-closure propagation.

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

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.equivalence import EquivalenceRelation, Pair
from ..core.key import Key, KeySet
from ..core.graph import Graph
from ..core.pattern import NodeKind, PatternNode
from ..core.triples import GraphNode, Literal, is_entity_ref
from ..vertexcentric.engine import VertexContext
from .product_graph import ProductGraph, ProductNode
from .traversal_order import TraversalStep


@dataclass
class PairState:
    """Mutable per-vertex state of the product graph."""

    flag: bool = False
    is_candidate: bool = False
    etype: Optional[str] = None


@dataclass(frozen=True)
class Activate:
    """Start (or restart) key evaluation at a candidate pair.

    ``prerequisite`` is the newly identified pair that caused the restart, or
    ``None`` for the initial activation injected by the driver.
    """

    prerequisite: Optional[Pair] = None


@dataclass(frozen=True)
class EvalMessage:
    """A key-evaluation message travelling along a traversal order."""

    origin: Pair
    key_name: str
    step_index: int
    assignment: Tuple[Tuple[str, ProductNode], ...]

    def assignment_dict(self) -> Dict[str, ProductNode]:
        return dict(self.assignment)

    def extended(self, name: str, node: ProductNode, step_index: int) -> "EvalMessage":
        items = dict(self.assignment)
        items[name] = node
        return EvalMessage(
            origin=self.origin,
            key_name=self.key_name,
            step_index=step_index,
            assignment=tuple(sorted(items.items())),
        )

    def advanced(self, step_index: int) -> "EvalMessage":
        return replace(self, step_index=step_index)


@dataclass(frozen=True)
class DeferredFork:
    """A continuation holding fork targets beyond the message budget."""

    message: EvalMessage
    far_name: str
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
        orders: Dict[str, List[TraversalStep]],
        max_fanout: Optional[int] = None,
        prioritize: bool = False,
        seed_pairs: Optional[Sequence[Pair]] = None,
    ) -> None:
        if max_fanout is not None and max_fanout < 1:
            raise ValueError(f"max_fanout must be >= 1 or None, got {max_fanout}")
        self._graph = graph
        self._product_graph = product_graph
        self._orders = orders
        self._max_fanout = max_fanout
        self._prioritize = prioritize
        self._keys_by_type: Dict[str, List[Key]] = {
            etype: keys.keys_for_type(etype) for etype in keys.target_types()
        }
        self._pattern_node_counts = {key.name: len(list(key.pattern.nodes())) for key in keys}
        self._patterns = {key.name: key.pattern for key in keys}
        self.live_eq = EquivalenceRelation(graph.entity_ids())
        #: incremental re-matching: a previous run's surviving merges, applied
        #: to ``live_eq`` up front and prepended to the canonical merge
        #: history so partitioned replicas reconstruct the same seeded state
        self._seed_merges: Tuple[Pair, ...] = tuple(seed_pairs or ())
        for e1, e2 in self._seed_merges:
            self.live_eq.merge(e1, e2)
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

    def replica_canonical(
        self, vertices: Dict[ProductNode, object]
    ) -> Tuple[tuple, tuple, int]:
        """The initial canonical state: flagged vertices, seed merges, epoch 0."""
        flagged = tuple(
            vertex for vertex, state in vertices.items() if getattr(state, "flag", False)
        )
        self._replica_flagged = set(flagged)
        self._replica_epoch = 0
        self._replica_flag_count = len(flagged)
        self._replica_merge_count = len(self._seed_merges)
        return (flagged, self._seed_merges, 0)

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
            eq = EquivalenceRelation(self._graph.entity_ids())
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
        self, vertex_id: ProductNode, state: object, payload: object, context: VertexContext
    ) -> None:
        assert isinstance(state, PairState)
        if isinstance(payload, Activate):
            self._handle_activate(vertex_id, state, payload, context)
        elif isinstance(payload, EvalMessage):
            self._handle_eval(vertex_id, state, payload, context)
        elif isinstance(payload, DeferredFork):
            self._handle_deferred(vertex_id, state, payload, context)
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
        etype = state.etype or self._graph.entity_type(str(vertex_id[0]))
        keys = self._keys_by_type.get(etype, [])
        if payload.prerequisite is not None:
            # a dependency was discharged: only recursively defined keys can
            # newly succeed, value-based keys were fully evaluated already
            keys = [key for key in keys if key.is_recursive]
        for key in keys:
            x_name = key.pattern.designated.name
            initial = EvalMessage(
                origin=(str(vertex_id[0]), str(vertex_id[1])),
                key_name=key.name,
                step_index=0,
                assignment=((x_name, vertex_id),),
            )
            context.send(vertex_id, initial)

    # ------------------------------------------------------------------ #
    # the guided tour
    # ------------------------------------------------------------------ #

    def _handle_eval(
        self, vertex_id: ProductNode, state: PairState, message: EvalMessage, context: VertexContext
    ) -> None:
        self.counters.eval_messages += 1
        origin_state = context.state(message.origin)
        assert isinstance(origin_state, PairState)
        if origin_state.flag:
            self.counters.early_cancelled += 1
            return
        order = self._orders[message.key_name]
        assignment = message.assignment_dict()

        if message.step_index >= len(order):
            fully_instantiated = (
                len(assignment) == self._pattern_node_counts[message.key_name]
            )
            if vertex_id == message.origin and fully_instantiated:
                self._confirm(message.origin, context)
            return

        step = order[message.step_index]
        near = assignment.get(step.source_name)
        if near != vertex_id:  # pragma: no cover - defensive routing check
            self.counters.dead_branches += 1
            return
        far_name = step.target_name
        far_assigned = assignment.get(far_name)
        if far_assigned is not None:
            context.add_work(1)
            if self._edge_exists(step, near, far_assigned):
                context.send(far_assigned, message.advanced(message.step_index + 1))
            else:
                self.counters.dead_branches += 1
            return

        # far end not instantiated yet: fork over feasible product neighbours
        if step.forward:
            targets = self._product_graph.forward_neighbors(vertex_id, step.triple.predicate)
        else:
            targets = self._product_graph.backward_neighbors(vertex_id, step.triple.predicate)
        context.add_work(max(1, len(targets)))
        far_node = self._patterns[message.key_name].node(far_name)
        used1 = {pair[0] for pair in assignment.values()}
        used2 = {pair[1] for pair in assignment.values()}
        feasible = [t for t in targets if self._feasible(far_node, t, used1, used2)]
        if not feasible:
            self.counters.dead_branches += 1
            return
        if self._prioritize:
            feasible.sort(key=self._priority_key)
        self._fork(vertex_id, message, far_name, feasible, context)

    def _handle_deferred(
        self, vertex_id: ProductNode, state: PairState, payload: DeferredFork, context: VertexContext
    ) -> None:
        self.counters.deferred_forks += 1
        origin_state = context.state(payload.message.origin)
        assert isinstance(origin_state, PairState)
        if origin_state.flag:
            self.counters.early_cancelled += 1
            return
        self._fork(vertex_id, payload.message, payload.far_name, list(payload.targets), context)

    def _fork(
        self,
        vertex_id: ProductNode,
        message: EvalMessage,
        far_name: str,
        targets: List[ProductNode],
        context: VertexContext,
    ) -> None:
        budget = self._max_fanout if self._max_fanout is not None else len(targets)
        now, later = targets[:budget], targets[budget:]
        for target in now:
            context.send(
                target, message.extended(far_name, target, message.step_index + 1)
            )
        if later:
            context.send(
                vertex_id,
                DeferredFork(message=message, far_name=far_name, targets=tuple(later)),
                priority=5,
            )

    # ------------------------------------------------------------------ #
    # feasibility, edge verification and prioritization
    # ------------------------------------------------------------------ #

    def _feasible(
        self,
        far_node: PatternNode,
        target: ProductNode,
        used1: Set[GraphNode],
        used2: Set[GraphNode],
    ) -> bool:
        """Can *target* instantiate *far_node*, given the graph nodes already
        used on each side of the assignment?"""
        t1, t2 = target
        if t1 in used1 or t2 in used2:
            return False
        kind = far_node.kind
        if kind is NodeKind.CONSTANT:
            return (
                isinstance(t1, Literal)
                and isinstance(t2, Literal)
                and t1.value == far_node.value
                and t2.value == far_node.value
            )
        if kind is NodeKind.VALUE_VAR:
            return isinstance(t1, Literal) and isinstance(t2, Literal) and t1 == t2
        if not (is_entity_ref(t1) and is_entity_ref(t2)):
            return False
        if (
            self._graph.entity_type(t1) != far_node.etype
            or self._graph.entity_type(t2) != far_node.etype
        ):
            return False
        if kind is NodeKind.ENTITY_VAR:
            return self.live_eq.identified(t1, t2)
        return True  # WILDCARD

    def _edge_exists(
        self, step: TraversalStep, near: ProductNode, far: ProductNode
    ) -> bool:
        predicate = step.triple.predicate
        if step.forward:
            subjects, objects = near, far
        else:
            subjects, objects = far, near
        s1, s2 = subjects
        o1, o2 = objects
        return (
            is_entity_ref(s1)
            and is_entity_ref(s2)
            and self._graph.has_triple(s1, predicate, o1)
            and self._graph.has_triple(s2, predicate, o2)
        )

    def _priority_key(self, target: ProductNode) -> Tuple[int, int, str]:
        """Prioritized propagation: identity pairs first, then well-connected pairs."""
        t1, t2 = target
        identity = 0 if t1 == t2 else 1
        degree = self._graph.degree(t1) + self._graph.degree(t2)
        return (identity, -degree, repr(target))

    # ------------------------------------------------------------------ #
    # confirmation: flag, transitive closure and dependency notifications
    # ------------------------------------------------------------------ #

    def _confirm(self, origin: Pair, context: VertexContext) -> None:
        origin_state = context.state(origin)
        assert isinstance(origin_state, PairState)
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
                assert isinstance(pair_state, PairState)
                if not pair_state.flag and self.live_eq.identified(pair[0], pair[1]):
                    pair_state.flag = True
                    self._record_flag(pair)
                    newly_flagged.append(pair)
                    self.counters.tc_flags += 1
                    context.add_work(1)

        # dependency notifications: restart dependents of every newly flagged pair
        for flagged in newly_flagged:
            for dependent in self._product_graph.dependents_of(flagged):
                if not context.has_vertex(dependent):
                    continue
                dependent_state = context.state(dependent)
                assert isinstance(dependent_state, PairState)
                if not dependent_state.flag:
                    self.counters.dep_notifications += 1
                    context.send(dependent, Activate(prerequisite=flagged))
