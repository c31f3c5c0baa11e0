"""Order statistics for benchmark samples (stdlib only).

A timing is reported as its median and the highest percentile that
still has at least ten samples beyond it, together with the sample
count, so a tail figure is never quoted from a handful of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: Percentiles tried for the tail figure, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile before it is quoted.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, pct: float) -> int:
    """Samples ranked above the ``pct`` percentile of ``count`` samples
    (the rank :func:`percentile` interpolates at)."""
    return count - 1 - math.floor((count - 1) * pct / 100.0) if count else 0


@dataclass(frozen=True)
class Summary:
    """Median and tail of one latency sample.

    Attributes:
        count: Samples summarized.
        p50: Median.
        tail_pct: The highest percentile with at least
            :data:`MIN_BEYOND` samples beyond it, or ``None`` when the
            sample is too small for any candidate.
        tail: Value at ``tail_pct`` (``None`` with it).
    """

    count: int
    p50: float
    tail_pct: float | None
    tail: float | None

    def describe(self, unit: str) -> str:
        tail = "n/a" if self.tail is None \
            else f"p{self.tail_pct:g} {self.tail:.3f} {unit}"
        return f"p50 {self.p50:.3f} {unit}, {tail} (n={self.count})"


def summarize(values: Sequence[float]) -> Summary:
    """Median plus the highest well-supported tail percentile."""
    count = len(values)
    for pct in TAIL_CANDIDATES:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            return Summary(count, percentile(values, 50.0), pct,
                           percentile(values, pct))
    return Summary(count, percentile(values, 50.0), None, None)
