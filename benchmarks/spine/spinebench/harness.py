"""What the four workloads share: parameters, the stopwatch, set-up, memory."""

from __future__ import annotations

import gc
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Tuple, TypeVar

from .refspeed import REFERENCE_MS, ReferenceKernel
from .schema import Outcome
from .stats import Estimate, median
from .trace import Tracer

#: seconds between reads of the reference kernel inside a timed operation
SAMPLE_EVERY = 0.05
#: a kernel read counts for at most this many times the median read of its
#: operation (``Stopwatch.timed_ms``)
READ_CAP = 2.0

State = TypeVar("State")
Result = TypeVar("Result")


class Stopwatch:
    """Times operations of this process at reference speed (``refspeed``)."""

    def __init__(self) -> None:
        self.kernel = ReferenceKernel()
        #: per timed operation: how much slower than the reference the
        #: kernel ran around and during it
        self.slowdowns: List[float] = []

    def timed_ms(self, tracer: Tracer, span: str, call: Callable[[], Result]) -> Tuple[Result, float]:
        """One repeat of an operation, inside *span* (which leaves the
        bracketing kernel reads outside): its result, and its milliseconds
        at reference speed.

        The kernel is read right before, right after, and every
        :data:`SAMPLE_EVERY` seconds *during* the operation, from an interval
        timer's signal handler on this (the main) thread; the time the
        handler took is not the operation's and is taken off.  The slowdown
        is the mean of those reads, each capped at :data:`READ_CAP` times
        their median: the operation's time is the machine's speed summed
        over it, but a read the scheduler stalled (60-170 ms seen) is time
        the operation never saw.  The machine changes speed within a second,
        so two reads around a 0.9 s recovery said little about the recovery
        itself: scaled by them, the times of 30-40 identical recoveries had
        a standard deviation of 11-23 % (unscaled 10-15 %); scaled by the
        reads taken during them, 5-6 % (by their median: 7-9 %).  An
        operation shorter than the interval is scaled by its two bracketing
        reads.

        The cycle collector is paused during the repeat and runs in full
        before it (as ``timeit`` does).  When it fires inside an operation
        depends on how many objects the whole process holds, not on the code
        under test: a cold match took 390 ms in a small process, 290 ms next
        to a million unrelated live objects, and 280 ms (within 4 % from
        repeat to repeat) with the collector paused.
        """
        reads: List[float] = []
        sampling = [0.0]

        def sample(signum, frame) -> None:
            began = time.perf_counter()
            reads.append(self.kernel.read())
            sampling[0] += time.perf_counter() - began

        gc.collect()
        gc.disable()
        previous = signal.signal(signal.SIGALRM, sample)
        try:
            reads.append(self.kernel.read())
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
            started = time.perf_counter()
            with tracer.span(span):
                result = call()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = time.perf_counter() - started - sampling[0]
            reads.append(self.kernel.read())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            gc.enable()
        cap = READ_CAP * statistics.median(reads)
        slowdown = statistics.mean(min(read, cap) for read in reads) / REFERENCE_MS
        self.slowdowns.append(slowdown)
        return result, 1000.0 * elapsed / slowdown


@dataclass(frozen=True)
class Params:
    seed: int
    #: how long the workload measures
    seconds: float
    #: tiny inputs for the tier-1 smoke test
    smoke: bool
    traced: bool
    #: scratch directory inside the checkout, removed after the run
    workdir: Path
    stopwatch: Stopwatch = field(default_factory=Stopwatch)

    @property
    def setup_repeats(self) -> int:
        """Set-up runs per workload run; ``setup_s`` is their median.

        The traced run reports no ``setup_s`` and the smoke run has ten
        seconds for everything, so both set up once."""
        return 1 if (self.smoke or self.traced) else 3


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def repeated_setup(
    params: Params,
    setup: Callable[[int], State],
    teardown: Callable[[State], None],
    *,
    in_process: bool = True,
) -> Tuple[State, Estimate]:
    """Run *setup* ``params.setup_repeats`` times; keep the last state.

    *setup* receives the repeat index (so each repeat can use its own
    scratch directory).  Returns the surviving state and ``setup_s``: at
    reference speed when the set-up is this process's own work, as the
    clock read it when most of it happens in a child (*in_process* false:
    the kernel would be reading another core).
    """
    untraced = Tracer("", enabled=False)
    seconds: List[float] = []
    state = None
    for repeat in range(params.setup_repeats):
        if state is not None:
            teardown(state)
        if in_process:
            state, elapsed_ms = params.stopwatch.timed_ms(untraced, "setup", lambda: setup(repeat))
            seconds.append(elapsed_ms / 1000.0)
        else:
            started = time.perf_counter()
            state = setup(repeat)
            seconds.append(time.perf_counter() - started)
    return state, median(seconds)


def turns(tracer: Tracer) -> Tuple[Tracer, ...]:
    """The tracers a measuring loop takes turns under.

    An untraced run has one, which records nothing.  A traced run
    alternates an untraced and a traced iteration, so the two see the same
    machine and the ratio of their headline numbers is the tracing
    overhead; the end-to-end numbers come from the untraced turns alone."""
    plain = Tracer(tracer.workload, enabled=False)
    return (plain, tracer) if tracer.enabled else (plain,)


def mark_rss(outcome: Outcome, done: int, after: int) -> None:
    """Record peak memory once *after* units of work are *done*.

    A run does as much work as its time allows, and memory grows with the
    work (a warm session gains 1.2 MB per sweep of the six backends), so
    the peak at the end of a run follows the machine's speed.  The peak
    after a fixed amount of work does not."""
    if done == after and outcome.rss_mb is None:
        outcome.rss_mb = peak_rss_mb()


def finish(outcome: Outcome, setup_s: Estimate, children: bool = False) -> Outcome:
    """Add ``setup_s`` and ``peak_rss_mb`` (the marked peak, or the peak at
    the end when the run was too short to reach the mark)."""
    outcome.end_to_end["setup_s"] = setup_s
    outcome.end_to_end["peak_rss_mb"] = Estimate(
        peak_rss_mb(children) if outcome.rss_mb is None else outcome.rss_mb
    )
    return outcome
