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

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

from ..exceptions import PatternError
from .triples import Literal


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

    @property
    def constant(self) -> Optional[Literal]:
        """The literal a constant node's image must equal (``None`` otherwise)."""
        return Literal(self.value) if self.kind is NodeKind.CONSTANT else None

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
    #: the literal a constant node's image must equal (``None`` otherwise)
    constant: Optional[Literal]
    #: per incident triple whose other end sits in an earlier slot, in stored
    #: triple order: (is the node the subject?, predicate, that slot).  Never
    #: empty past slot 0: the order is connected, and a self-loop's other end
    #: is the node itself, which no earlier slot holds.
    anchors: Tuple[Tuple[bool, str, int], ...]
    #: predicates of the self-loops ``(n, p, n)``: the image must carry each
    loops: Tuple[str, ...]


#: One step of the tour ``P_Q`` (Section 5.1), over :meth:`GraphPattern.nodes`
#: slots: ``(source slot, target slot, predicate, forward, far kind, far
#: etype, far constant)``; ``forward`` moves from the triple's subject to its
#: object, and the last three say what may instantiate the target (the *far*
#: node).
TourStep = Tuple[int, int, str, bool, NodeKind, Optional[str], Optional[Literal]]


class SignatureStep(NamedTuple):
    """One hop of a signature path.

    ``forward`` follows subject → object edges of *predicate*; backward
    follows object → subject.  ``etype`` filters the reached nodes: a type
    string keeps entities of that type, ``None`` keeps literals (value-kind
    pattern nodes carry no type).
    """

    predicate: str
    forward: bool
    etype: Optional[str]


class SignaturePath(NamedTuple):
    """The BFS-tree path from ``x`` to one value position of a pattern.

    ``constant`` is the literal a constant node must equal (``None`` for
    value variables); the blocking layer reads one path per value position.
    """

    node_name: str
    steps: Tuple[SignatureStep, ...]
    constant: Optional[Literal] = None


class GraphPattern:
    """A connected graph pattern ``Q(x)`` with a designated variable ``x``.

    The pattern is validated on construction: exactly one designated node,
    entity-kind subjects, consistent node definitions (a name may not be used
    with two different kinds or types), non-empty and connected.

    A pattern never changes after construction, so everything an algorithm
    walks — each node's incident triples, the two check plans, the tour
    ``P_Q``, the radius and the signature paths — is derived here, once, and
    nowhere else.  All of it is plain tuples, so it pickles with the pattern
    and a worker process compiles nothing.
    """

    __slots__ = (
        "_triples", "_nodes", "_designated", "_name", "_incident", "_order", "_radius",
        "_guided_plan", "_enumeration_plan", "_tour", "_signature_paths",
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
        incident: Dict[str, List[PatternTriple]] = {name: [] for name in self._nodes}
        for triple in self._triples:
            incident[triple.subject.name].append(triple)
            if triple.obj.name != triple.subject.name:
                incident[triple.obj.name].append(triple)
        self._incident: Dict[str, Tuple[PatternTriple, ...]] = {
            name: tuple(triples) for name, triples in incident.items()
        }
        paths = self._signature_steps()
        if len(paths) != len(self._nodes):
            raise PatternError(f"pattern {name!r} must be connected")
        self._radius = max(map(len, paths.values()))
        self._signature_paths = tuple(
            SignaturePath(n.name, paths[n.name], n.constant)
            for n in sorted(self._nodes.values(), key=lambda n: n.name)
            if n.is_value
        )
        self._order = self._instantiation_order()
        self._guided_plan = self._compile(self._order)
        self._enumeration_plan = self._compile(self._connected_order(lambda n: n.name))
        self._tour = self._compile_tour()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    def _signature_steps(self) -> Dict[str, Tuple[SignatureStep, ...]]:
        """A BFS from ``x`` over sorted neighbour names: each node it reaches
        -> the hops of the tree path to it, so its length is the distance.
        A hop from ``a`` to ``b`` takes the least predicate of the triples
        ``(a, p, b)``, or of ``(b, p, a)`` when there are none."""
        root = self._designated.name
        paths: Dict[str, Tuple[SignatureStep, ...]] = {root: ()}
        queue = deque([root])
        while queue:
            a = queue.popleft()
            incident = self._incident[a]
            ends = {t.obj.name if t.subject.name == a else t.subject.name for t in incident}
            for b in sorted(ends - paths.keys()):  # b != a: a triple to b runs a -> b or b -> a
                forward = [t.predicate for t in incident if t.obj.name == b]
                backward = [t.predicate for t in incident if t.subject.name == b]
                hop = SignatureStep(min(forward or backward), bool(forward), self._nodes[b].etype)
                paths[b] = paths[a] + (hop,)
                queue.append(b)
        return paths

    def _compile_tour(self) -> Tuple[TourStep, ...]:
        """``P_Q``: a DFS from ``x`` over each node's incident triples in
        ``(predicate, subject, object)`` order that crosses every distinct
        triple once away and once back — ``2·|Q|`` steps (Lemma 11), ending at
        ``x``.  A shortest tour is the Chinese Postman problem; like the
        paper, this is the greedy one."""
        slot = {name: index for index, name in enumerate(self._nodes)}
        steps: List[TourStep] = []
        visited: Set[str] = set()
        covered: Set[Tuple[str, str, str]] = set()

        def step(near: PatternNode, far: PatternNode, predicate: str, forward: bool) -> None:
            steps.append(
                (slot[near.name], slot[far.name], predicate, forward, far.kind, far.etype, far.constant)
            )

        def visit(node: PatternNode) -> None:
            visited.add(node.name)
            for subject, predicate, obj in sorted(
                self._incident[node.name], key=lambda t: (t.predicate, t.subject.name, t.obj.name)
            ):
                edge = (subject.name, predicate, obj.name)
                if edge in covered:
                    continue
                covered.add(edge)
                forward = subject.name == node.name
                other = obj if forward else subject
                step(node, other, predicate, forward)
                if other.name not in visited:
                    visit(other)
                step(other, node, predicate, not forward)

        visit(self._designated)
        return tuple(steps)

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
                PlanStep(node.name, node.kind, node.etype, node.constant, tuple(anchors), tuple(loops))
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
        return self._radius

    def adjacent_triples(self, node_name: str) -> Tuple[PatternTriple, ...]:
        """All pattern triples incident to the node called *node_name*."""
        return self._incident.get(node_name, ())

    @property
    def instantiation_order(self) -> Tuple[PatternNode, ...]:
        """Every pattern node once, ``x`` first, each next to an earlier one."""
        return self._order

    @property
    def guided_plan(self) -> Tuple[PlanStep, ...]:
        """:attr:`instantiation_order` compiled for the guided ``EvalMR`` check
        (and walked by the pairing seed: a step's first anchor is the triple
        that ties it to an earlier one, so following them leads back to ``x``)."""
        return self._guided_plan

    @property
    def enumeration_plan(self) -> Tuple[PlanStep, ...]:
        """The alphabetical connected order compiled for match enumeration
        (it fixes the order in which :func:`~repro.core.matching.find_matches`
        lists matches, and with it ``EMVF2MR``'s coincidence-check count)."""
        return self._enumeration_plan

    @property
    def tour(self) -> Tuple[TourStep, ...]:
        """The tour ``P_Q`` an ``EMVC`` evaluation message follows."""
        return self._tour

    @property
    def signature_paths(self) -> Tuple[SignaturePath, ...]:
        """One path per value position, by node name (the blocking layer's
        scheme; empty when the pattern has no value variable or constant)."""
        return self._signature_paths

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
