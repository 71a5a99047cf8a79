"""Graph patterns ``Q(x)``: the syntax of keys for graphs (Section 2.1).

A pattern is a connected set of pattern triples ``(s_Q, p_Q, o_Q)`` over
pattern nodes of five kinds:

* ``DESIGNATED`` — the designated entity variable ``x`` (exactly one per
  pattern); it denotes the entity to be identified and carries a type.
* ``ENTITY_VAR`` — entity variables ``y``; matching enforces *node identity*
  (for keys: the matched entities must already be identified), making the
  key *recursively defined*.
* ``VALUE_VAR`` — value variables ``y*``; matching enforces *value equality*.
* ``WILDCARD`` — wildcards ``ȳ``; only the existence of an entity of the
  right type is required, its identity is irrelevant.
* ``CONSTANT`` — a constant value ``d``; the matched object must equal ``d``.

Subjects of pattern triples are always entities (``DESIGNATED``,
``ENTITY_VAR`` or ``WILDCARD``); objects may be of any kind.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque
from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

from ..exceptions import PatternError


class NodeKind(Enum):
    """The five kinds of pattern node."""

    DESIGNATED = "designated"
    ENTITY_VAR = "entity_var"
    VALUE_VAR = "value_var"
    WILDCARD = "wildcard"
    CONSTANT = "constant"


#: Kinds whose matches are entities.
ENTITY_KINDS: FrozenSet[NodeKind] = frozenset(
    {NodeKind.DESIGNATED, NodeKind.ENTITY_VAR, NodeKind.WILDCARD}
)

#: Kinds whose matches are data values.
VALUE_KINDS: FrozenSet[NodeKind] = frozenset({NodeKind.VALUE_VAR, NodeKind.CONSTANT})


@dataclass(frozen=True, slots=True)
class PatternNode:
    """A node of a graph pattern.

    ``name`` identifies the node within its pattern (two occurrences of the
    same name denote the same node).  ``etype`` is required for entity kinds
    and must be ``None`` for value kinds.  ``value`` is only meaningful for
    constants.
    """

    name: str
    kind: NodeKind
    etype: Optional[str] = None
    value: object = None

    def __post_init__(self) -> None:
        if not self.name:
            raise PatternError("pattern node name must be non-empty")
        if self.kind in ENTITY_KINDS and not self.etype:
            raise PatternError(
                f"pattern node {self.name!r} of kind {self.kind.value} needs an entity type"
            )
        if self.kind in VALUE_KINDS and self.etype is not None:
            raise PatternError(
                f"pattern node {self.name!r} of kind {self.kind.value} must not carry a type"
            )
        if self.kind is NodeKind.CONSTANT and self.value is None:
            raise PatternError(f"constant node {self.name!r} must carry a value")

    # -- convenience predicates ---------------------------------------- #

    @property
    def is_entity(self) -> bool:
        """True when matches of this node are entities."""
        return self.kind in ENTITY_KINDS

    @property
    def is_value(self) -> bool:
        """True when matches of this node are data values."""
        return self.kind in VALUE_KINDS

    @property
    def is_designated(self) -> bool:
        return self.kind is NodeKind.DESIGNATED

    @property
    def is_entity_variable(self) -> bool:
        return self.kind is NodeKind.ENTITY_VAR

    @property
    def is_value_variable(self) -> bool:
        return self.kind is NodeKind.VALUE_VAR

    @property
    def is_wildcard(self) -> bool:
        return self.kind is NodeKind.WILDCARD

    @property
    def is_constant(self) -> bool:
        return self.kind is NodeKind.CONSTANT

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind is NodeKind.CONSTANT:
            return f"{self.value!r}"
        if self.kind is NodeKind.VALUE_VAR:
            return f"{self.name}*"
        if self.kind is NodeKind.WILDCARD:
            return f"_{self.name}:{self.etype}"
        return f"{self.name}:{self.etype}"


# ---------------------------------------------------------------------- #
# node constructors (the public, readable way to build patterns in code)
# ---------------------------------------------------------------------- #


def designated(name: str, etype: str) -> PatternNode:
    """The designated variable ``x`` of type *etype*."""
    return PatternNode(name, NodeKind.DESIGNATED, etype=etype)


def entity_var(name: str, etype: str) -> PatternNode:
    """A (recursive) entity variable ``y`` of type *etype*."""
    return PatternNode(name, NodeKind.ENTITY_VAR, etype=etype)


def value_var(name: str) -> PatternNode:
    """A value variable ``y*``."""
    return PatternNode(name, NodeKind.VALUE_VAR)


def wildcard(name: str, etype: str) -> PatternNode:
    """A wildcard ``ȳ`` of type *etype*."""
    return PatternNode(name, NodeKind.WILDCARD, etype=etype)


def constant(value: object, name: Optional[str] = None) -> PatternNode:
    """A constant value node."""
    label = name if name is not None else f"const:{value!r}"
    return PatternNode(label, NodeKind.CONSTANT, value=value)


class PatternTriple(NamedTuple):
    """A pattern triple ``(s_Q, p_Q, o_Q)``."""

    subject: PatternNode
    predicate: str
    obj: PatternNode

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.subject}, {self.predicate}, {self.obj})"


class PlanStep(NamedTuple):
    """One node of a compiled per-pair check; its slot is its place in the plan.

    A plan is a connected order over the pattern's nodes, ``x`` in slot 0.
    A check fills the slots left to right and reads nothing else of the
    pattern: a node's candidates are the intersection of the graph rows its
    *anchors* name, narrowed to those carrying its *loops*.
    """

    name: str
    kind: NodeKind
    etype: Optional[str]
    value: object
    #: per incident triple whose other end sits in an earlier slot, in stored
    #: triple order: (is the node the subject?, predicate, that slot).  Never
    #: empty past slot 0: the order is connected, and a self-loop's other end
    #: is the node itself, which no earlier slot holds.
    anchors: Tuple[Tuple[bool, str, int], ...]
    #: predicates of the self-loops ``(n, p, n)``: the image must carry each
    loops: Tuple[str, ...]


class GraphPattern:
    """A connected graph pattern ``Q(x)`` with a designated variable ``x``.

    The pattern is validated on construction: exactly one designated node,
    entity-kind subjects, consistent node definitions (a name may not be used
    with two different kinds or types), non-empty and connected.

    A pattern never changes after construction, so what the per-pair checks
    read on every call — each node's incident triples, the connected
    instantiation order and the two plans compiled from it — is derived
    here, once.  All of it is plain tuples, so it pickles with the pattern
    and a worker process compiles nothing.
    """

    __slots__ = (
        "_triples", "_nodes", "_designated", "_adjacency", "_name", "_incident", "_order",
        "_anchors", "_guided_plan", "_enumeration_plan",
    )

    def __init__(
        self,
        triples: Iterable[PatternTriple],
        name: str = "Q",
    ) -> None:
        self._triples: Tuple[PatternTriple, ...] = tuple(triples)
        self._name = name
        if not self._triples:
            raise PatternError("a graph pattern needs at least one triple")
        self._nodes: Dict[str, PatternNode] = {}
        designated_nodes: List[PatternNode] = []
        for triple in self._triples:
            for node in (triple.subject, triple.obj):
                known = self._nodes.get(node.name)
                if known is None:
                    self._nodes[node.name] = node
                    if node.is_designated:
                        designated_nodes.append(node)
                elif known != node:
                    raise PatternError(
                        f"pattern node {node.name!r} used inconsistently: "
                        f"{known} vs {node}"
                    )
            if not triple.subject.is_entity:
                raise PatternError(
                    f"pattern triple subject must be an entity node, got {triple.subject}"
                )
        if len(designated_nodes) != 1:
            raise PatternError(
                f"pattern {name!r} must have exactly one designated variable, "
                f"found {len(designated_nodes)}"
            )
        self._designated = designated_nodes[0]
        self._adjacency = self._build_adjacency()
        if not self._is_connected():
            raise PatternError(f"pattern {name!r} must be connected")
        incident: Dict[str, List[PatternTriple]] = {name: [] for name in self._nodes}
        for triple in self._triples:
            incident[triple.subject.name].append(triple)
            if triple.obj.name != triple.subject.name:
                incident[triple.obj.name].append(triple)
        self._incident: Dict[str, Tuple[PatternTriple, ...]] = {
            name: tuple(triples) for name, triples in incident.items()
        }
        self._order = self._instantiation_order()
        placed: Set[str] = set()
        self._anchors: Dict[str, PatternTriple] = {}
        for node in self._order:
            if placed:  # never a self-loop: its other end is the node itself
                self._anchors[node.name] = next(
                    t
                    for t in self._incident[node.name]
                    if (t.subject.name if t.obj.name == node.name else t.obj.name) in placed
                )
            placed.add(node.name)
        self._guided_plan = self._compile(self._order)
        self._enumeration_plan = self._compile(self._connected_order(lambda n: n.name))

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    def _build_adjacency(self) -> Dict[str, Set[str]]:
        adjacency: Dict[str, Set[str]] = defaultdict(set)
        for triple in self._triples:
            adjacency[triple.subject.name].add(triple.obj.name)
            adjacency[triple.obj.name].add(triple.subject.name)
        return adjacency

    def _is_connected(self) -> bool:
        start = self._designated.name
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nbr in self._adjacency.get(node, ()):
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        return seen >= set(self._nodes.keys())

    def _instantiation_order(self) -> Tuple[PatternNode, ...]:
        """The guided check's order: value-kind nodes adjacent to placed ones
        first, so that cheap equality conditions prune the search early."""
        return self._connected_order(lambda n: (not n.is_value, not n.is_constant, n.name))

    def _connected_order(self, preference) -> Tuple[PatternNode, ...]:
        """Every node once, ``x`` first, each next to an earlier one; among
        the nodes that could come next, the one *preference* ranks lowest."""
        order: List[PatternNode] = [self._designated]
        placed = {self._designated.name}
        remaining = {n.name: n for n in self._nodes.values() if n.name not in placed}
        while remaining:
            # never empty: the pattern is connected
            frontier = [
                node
                for name, node in remaining.items()
                if any(
                    t.subject.name in placed or t.obj.name in placed
                    for t in self._incident[name]
                )
            ]
            chosen = min(frontier, key=preference)
            order.append(chosen)
            placed.add(chosen.name)
            del remaining[chosen.name]
        return tuple(order)

    def _compile(self, order: Tuple[PatternNode, ...]) -> Tuple[PlanStep, ...]:
        """*order* as :class:`PlanStep`s: each triple lands once, as a loop of
        its node or as an anchor of whichever of its ends comes later."""
        slot = {node.name: index for index, node in enumerate(order)}
        steps: List[PlanStep] = []
        for position, node in enumerate(order):
            anchors: List[Tuple[bool, str, int]] = []
            loops: List[str] = []
            for subject, predicate, obj in self._incident[node.name]:
                if subject.name == obj.name:
                    loops.append(predicate)
                    continue
                is_subject = subject.name == node.name
                other = slot[obj.name if is_subject else subject.name]
                if other < position:
                    anchors.append((is_subject, predicate, other))
            steps.append(
                PlanStep(node.name, node.kind, node.etype, node.value, tuple(anchors), tuple(loops))
            )
        return tuple(steps)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        return self._name

    @property
    def designated(self) -> PatternNode:
        """The designated variable ``x``."""
        return self._designated

    @property
    def target_type(self) -> str:
        """The entity type identified by this pattern (the type of ``x``)."""
        assert self._designated.etype is not None
        return self._designated.etype

    @property
    def triples(self) -> Tuple[PatternTriple, ...]:
        return self._triples

    @property
    def size(self) -> int:
        """``|Q|``: the number of triples of the pattern."""
        return len(self._triples)

    def __len__(self) -> int:
        return len(self._triples)

    def nodes(self) -> Iterator[PatternNode]:
        """Iterate over the distinct pattern nodes."""
        return iter(self._nodes.values())

    def node(self, name: str) -> PatternNode:
        """Return the pattern node called *name*."""
        try:
            return self._nodes[name]
        except KeyError:
            raise PatternError(f"pattern {self._name!r} has no node {name!r}") from None

    def node_names(self) -> Set[str]:
        return set(self._nodes.keys())

    def entity_variables(self) -> List[PatternNode]:
        """The (recursive) entity variables ``y`` of the pattern, excluding ``x``."""
        return [n for n in self._nodes.values() if n.is_entity_variable]

    def value_variables(self) -> List[PatternNode]:
        return [n for n in self._nodes.values() if n.is_value_variable]

    def wildcards(self) -> List[PatternNode]:
        return [n for n in self._nodes.values() if n.is_wildcard]

    def constants(self) -> List[PatternNode]:
        return [n for n in self._nodes.values() if n.is_constant]

    def predicates(self) -> Set[str]:
        return {t.predicate for t in self._triples}

    # ------------------------------------------------------------------ #
    # properties from the paper
    # ------------------------------------------------------------------ #

    @property
    def is_recursive(self) -> bool:
        """True when the pattern contains an entity variable other than ``x``.

        Recursive patterns make keys *recursively defined* (Section 2.2).
        """
        return bool(self.entity_variables())

    @property
    def is_value_based(self) -> bool:
        """True when the pattern contains no entity variable other than ``x``."""
        return not self.is_recursive

    @property
    def radius(self) -> int:
        """``d(Q, x)``: the longest undirected distance from ``x`` to any node."""
        distances = self.distances_from_designated()
        return max(distances.values()) if distances else 0

    def distances_from_designated(self) -> Dict[str, int]:
        """BFS distances (undirected) from the designated variable to all nodes."""
        distances = {self._designated.name: 0}
        queue: deque[str] = deque([self._designated.name])
        while queue:
            current = queue.popleft()
            for nbr in self._adjacency.get(current, ()):
                if nbr not in distances:
                    distances[nbr] = distances[current] + 1
                    queue.append(nbr)
        return distances

    def adjacent_triples(self, node_name: str) -> Tuple[PatternTriple, ...]:
        """All pattern triples incident to the node called *node_name*."""
        return self._incident.get(node_name, ())

    @property
    def instantiation_order(self) -> Tuple[PatternNode, ...]:
        """Every pattern node once, ``x`` first, each next to an earlier one."""
        return self._order

    def anchor_triple(self, node_name: str) -> PatternTriple:
        """The first triple tying a node to an earlier one of the instantiation order.

        Defined for every node but ``x``; following the anchors from any
        node leads back to ``x``.
        """
        return self._anchors[node_name]

    @property
    def guided_plan(self) -> Tuple[PlanStep, ...]:
        """:attr:`instantiation_order` compiled for the guided ``EvalMR`` check."""
        return self._guided_plan

    @property
    def enumeration_plan(self) -> Tuple[PlanStep, ...]:
        """The alphabetical connected order compiled for match enumeration
        (it fixes the order in which :func:`~repro.core.matching.find_matches`
        lists matches, and with it ``EMVF2MR``'s coincidence-check count)."""
        return self._enumeration_plan

    def entity_variable_types(self) -> Set[str]:
        """The types of the (recursive) entity variables of the pattern."""
        return {n.etype for n in self.entity_variables() if n.etype is not None}

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphPattern):
            return NotImplemented
        return set(self._triples) == set(other._triples)

    def __hash__(self) -> int:
        return hash(frozenset(self._triples))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flavour = "recursive" if self.is_recursive else "value-based"
        return (
            f"GraphPattern({self._name!r}, target={self.target_type!r}, "
            f"triples={len(self._triples)}, radius={self.radius}, {flavour})"
        )

    def describe(self) -> str:
        """A human-readable multi-line description of the pattern."""
        lines = [f"pattern {self._name}({self._designated}) for {self.target_type}:"]
        for triple in self._triples:
            lines.append(f"  {triple.subject} -[{triple.predicate}]-> {triple.obj}")
        return "\n".join(lines)
