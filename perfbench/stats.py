"""Percentiles computed from raw samples, with their sample counts.

``repro.obs.metrics.Histogram`` keeps five log buckets per decade and
interpolates inside a bucket, which puts its percentiles within about
60% of the true value: far wider than any bound a benchmark can gate
on.  The benchmark therefore keeps every sample it measures and reads
percentiles off the sorted list.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

#: Percentiles tried, highest first, when reporting a distribution's tail.
TAIL_QUANTILES = (0.99, 0.95, 0.90, 0.50)

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; with fewer, one outlier decides the value.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (``q`` in [0, 1]) of ``samples``.

    Linear interpolation between the two closest ranks of the sorted
    samples (``q=0`` is the minimum, ``q=1`` the maximum).  Raises
    ``ValueError`` for an empty sequence or a ``q`` outside [0, 1].

    >>> percentile([3.0, 1.0, 2.0], 0.5)
    2.0
    >>> percentile([1.0, 2.0], 0.25)
    1.25
    """
    if not 0.0 <= q <= 1.0 or math.isnan(q):
        raise ValueError(f"quantile must be within [0, 1], got {q}")
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def tail_quantile(count: int) -> Optional[float]:
    """The highest of :data:`TAIL_QUANTILES` with at least
    :data:`MIN_BEYOND` of ``count`` samples beyond it (None if none).

    >>> tail_quantile(1000), tail_quantile(200), tail_quantile(19)
    (0.99, 0.95, None)
    """
    for q in TAIL_QUANTILES:
        if count * (1.0 - q) >= MIN_BEYOND - 1e-9:
            return q
    return None


def summarize(samples: Sequence[float]) -> Dict[str, Optional[float]]:
    """Sample count, median and p99 of ``samples`` (None when empty).

    Whether the p99 rests on enough samples is :func:`tail_quantile`'s
    call: it needs at least 1000.
    """
    if not samples:
        return {"count": 0, "p50": None, "p99": None}
    return {
        "count": len(samples),
        "p50": percentile(samples, 0.5),
        "p99": percentile(samples, 0.99),
    }


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)
