"""Order statistics for the spine.

One nearest-rank percentile serves every workload.  It returns the value
together with its sample count and refuses a tail percentile that has
fewer than ten samples beyond it, so a p95 over 40 requests can never be
printed as if it meant something.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

#: a tail percentile needs this many samples beyond it to be reported
MIN_SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    """The requested percentile is not supported by the sample count."""


class Estimate(NamedTuple):
    """A measured value with the number of samples behind it."""

    value: float
    #: 0: not a sampled statistic
    n: int = 0
    note: str = ""


def percentile(samples: Sequence[float], q: float) -> Estimate:
    """The nearest-rank *q*-quantile (``0 < q < 1``) of *samples*.

    The median and anything below it only need one sample.  Above the
    median, fewer than :data:`MIN_SAMPLES_BEYOND` samples strictly beyond
    the returned rank raises :class:`TooFewSamples`.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q!r}")
    n = len(samples)
    if n == 0:
        raise TooFewSamples("no samples")
    rank = max(1, math.ceil(q * n))
    if q > 0.5 and n - rank < MIN_SAMPLES_BEYOND:
        raise TooFewSamples(
            f"p{round(q * 100)} of {n} samples has {n - rank} beyond it, "
            f"need {MIN_SAMPLES_BEYOND}"
        )
    return Estimate(sorted(samples)[rank - 1], n)


def tail(samples: Sequence[float], q: float) -> Tuple[Estimate, float]:
    """The highest percentile up to *q* the sample count supports.

    Returns the estimate and the quantile actually used: *q* itself when
    ten samples lie beyond it, else the highest quantile that keeps ten
    beyond, floored at the median (short smoke runs end up there).
    """
    n = len(samples)
    supported = min(q, (n - MIN_SAMPLES_BEYOND) / n) if n else 0.5
    used = max(0.5, supported)
    return percentile(samples, used), used


def median(samples: Sequence[float]) -> Estimate:
    return percentile(samples, 0.5)


def cell_values(runs: Iterable[Dict[str, object]]) -> Dict[Tuple[str, str], List[float]]:
    """``(metric, workload) -> values`` over the untraced runs of a run-set."""
    cells: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        if run["trace"] == 0:
            for name, entry in run["metrics"].items():
                cells.setdefault((name, run["workload"]), []).append(entry["value"])
    return cells


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0
