"""Reach targets: the transitions a fuzzed property exists for, counted.

A property calls :func:`reach` when one of its examples reaches a named
transition.  The call is a hypothesis event (``--hypothesis-show-statistics``
lists it) and one count in the running test's tally.  ``tests/conftest.py``
clears the tally before each test marked ``reaches(label, at_least)`` and
fails the test when its examples reached *label* fewer than *at_least*
times, so a property whose examples stop reaching its bug class turns red
instead of passing on nothing.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import event

#: label -> examples of the running test that reached it
TALLY: Counter = Counter()


def reach(label: str) -> None:
    """Record that the running example reached the transition *label*."""
    event(label)
    TALLY[label] += 1
