"""Order statistics for the benchmark's timings.

Percentiles interpolate linearly between order statistics (the
convention of ``numpy.percentile`` and ``statistics.quantiles(...,
method="inclusive")``).  A tail figure is only meaningful with enough
samples beyond it, so :func:`tail_percentile` picks the highest
percentile of a fixed ladder that leaves at least :data:`MIN_BEYOND`
samples above it.
"""

from __future__ import annotations

import math

#: Candidate tail percentiles, highest first.
LADDER: tuple[float, ...] = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """The ``p``-th percentile (0..100) of ``values``, interpolated."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` ordered samples sit strictly above the
    ``p``-th percentile's interpolation point (1-based rank
    ``1 + (n - 1) p / 100``)."""
    if n <= 0:
        return 0
    return n - math.floor(1 + (n - 1) * p / 100.0 + 1e-9)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ``MIN_BEYOND`` of ``n``
    samples beyond it, or ``None`` when even the median has fewer."""
    for p in LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None
