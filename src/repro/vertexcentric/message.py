"""Messages exchanged by the simulated vertex-centric engine.

A message carries an opaque payload from one vertex to another.  Payload
contents are algorithm-specific (``EMVC`` sends partial instantiation vectors,
dependency notifications and transitive-closure joins); the engine only needs
the target vertex and an optional priority used by prioritized propagation.
"""

from __future__ import annotations

import itertools
from typing import Hashable, NamedTuple, Optional

#: Vertices are identified by hashable ids (EM uses entity-pair tuples).
VertexId = Hashable

#: Draws the process-wide send order; see :class:`Message`.
next_sequence = itertools.count().__next__


class Message(NamedTuple):
    """One message in flight: what a priority queue of the engine holds.

    A queue pops the lowest ``(priority, sequence)`` first: the most
    promising message, in send order among equals.  The sequence number is
    unique, so comparing two entries never reaches the target, the sender or
    the payload — none of which need be orderable — and the whole comparison
    is the tuple's own, in C.  The drains push plain 5-tuples of this layout.
    """

    priority: int
    sequence: int
    target: VertexId = None
    sender: Optional[VertexId] = None
    payload: object = None

    @classmethod
    def create(
        cls,
        target: VertexId,
        payload: object,
        sender: Optional[VertexId] = None,
        priority: int = 0,
    ) -> "Message":
        return cls(priority, next_sequence(), target, sender, payload)
