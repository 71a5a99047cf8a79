"""Spans recorded from the benchmark's own files.

A span is ``(id, parent, name, start, end, iteration)``.  Spans open around
the benchmark's calls into a layer's public functions; nothing under
``src/`` knows about them.  They stay in memory during the run and are
written as JSON lines when the workload ends.  A disabled tracer records
nothing: the untraced run, which gives the end-to-end numbers, never pays
for them.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional


class Tracer:
    def __init__(
        self,
        workload: str,
        enabled: bool,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.workload = workload
        self.enabled = enabled
        self.clock = clock
        self.spans: List[Dict[str, object]] = []
        #: free-form counts recorded at the same boundaries as the spans
        self.counts: Dict[str, List[float]] = {}
        self._lock = threading.Lock()
        self._stack = threading.local()

    # -- recording ---------------------------------------------------------- #

    def _open(self) -> List[Dict[str, object]]:
        stack = getattr(self._stack, "spans", None)
        if stack is None:
            stack = self._stack.spans = []
        return stack

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: Optional[int] = None,
        iteration: Optional[int] = None,
    ) -> Optional[int]:
        """Record a finished span with explicit times; returns its id."""
        if not self.enabled:
            return None
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "iteration": iteration,
                    "workload": self.workload,
                }
            )
        return span_id

    @contextmanager
    def span(self, name: str, *, iteration: Optional[int] = None) -> Iterator[None]:
        """Time the body as a child of the span open on this thread."""
        if not self.enabled:
            yield
            return
        stack = self._open()
        parent = stack[-1] if stack else None
        if iteration is None and parent is not None:
            iteration = parent["iteration"]
        with self._lock:
            record: Dict[str, object] = {
                "id": len(self.spans),
                "parent": None if parent is None else parent["id"],
                "name": name,
                "start": self.clock(),
                "end": None,
                "iteration": iteration,
                "workload": self.workload,
            }
            self.spans.append(record)
        stack.append(record)
        try:
            yield
        finally:
            record["end"] = self.clock()
            stack.pop()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            with self._lock:
                self.counts.setdefault(name, []).append(value)

    # -- reading ------------------------------------------------------------ #

    def durations_ms(self, name: str) -> List[float]:
        return [
            1000.0 * (span["end"] - span["start"])
            for span in self.spans
            if span["name"] == name and span["end"] is not None
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span["end"] is not None:
                    handle.write(json.dumps(span, sort_keys=True) + "\n")


def read_spans(path: Path) -> List[Dict[str, object]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def check_tree(spans: List[Dict[str, object]]) -> List[str]:
    """Problems with the span tree: unknown parents, children that leak."""
    by_id = {span["id"]: span for span in spans}
    problems: List[str] = []
    for span in spans:
        if span["end"] < span["start"]:
            problems.append(f"span {span['id']} ({span['name']}) ends before it starts")
        parent_id = span["parent"]
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            problems.append(f"span {span['id']} names unknown parent {parent_id}")
        elif span["start"] < parent["start"] or span["end"] > parent["end"]:
            problems.append(
                f"span {span['id']} ({span['name']}) leaks out of its parent "
                f"{parent_id} ({parent['name']})"
            )
    return problems
