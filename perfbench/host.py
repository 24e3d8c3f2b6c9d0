"""Host CPU steal, and the samples measured while the host kept away.

A virtual machine loses CPU time to its host as "steal".  On a small
machine a stretch with a fifth of the CPU stolen slows the blocking
paths up to 2x, for reasons outside the program.  The benchmark reads
the steal share of every timed stretch (one kernel call, one burst, one
open-loop segment) and computes its figures from the calm stretches.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: A stretch is calm when the host stole at most this share of the CPU.
#: Even a few percent stolen slows the thread hand-offs the program
#: makes on every request by about as much again.
STEAL_LIMIT = 0.02

#: When fewer stretches than this share are calm, the least-stolen ones
#: up to this share are kept instead.
KEEP_AT_LEAST = 1 / 3


def cpu_ticks() -> Optional[Tuple[int, int]]:
    """(steal, total) CPU ticks of the machine so far, None where unknown."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7], sum(fields[:8])) if len(fields) >= 8 else None


class StealClock:
    """Steal share of the stretches between successive :meth:`lap` calls."""

    def __init__(self) -> None:
        self._last = cpu_ticks()

    def lap(self) -> float:
        """Share of CPU time stolen since the previous lap (0 if unknown).

        The kernel counts whole clock ticks (10 ms), so a stretch of a
        few hundred milliseconds may show one stolen tick by rounding
        alone; that first tick is not counted.
        """
        now, last = cpu_ticks(), self._last
        self._last = now
        if now is None or last is None or now[1] <= last[1]:
            return 0.0
        return max(0, now[0] - last[0] - 1) / (now[1] - last[1])


def calm(samples: Sequence[T], steal: Sequence[float]) -> List[T]:
    """The ``samples`` whose stretch had at most :data:`STEAL_LIMIT` of
    the CPU stolen (``steal[i]`` belongs to ``samples[i]``).  When fewer
    than :data:`KEEP_AT_LEAST` of them are calm, the least-stolen
    :data:`KEEP_AT_LEAST` of them.  Order is kept.

    >>> calm([1, 2, 3], [0.0, 0.2, 0.01])
    [1, 3]
    >>> calm([1, 2, 3], [0.3, 0.2, 0.4])
    [2]
    """
    if len(samples) != len(steal):
        raise ValueError("one steal share per sample")
    ranked = sorted(range(len(samples)), key=lambda index: steal[index])
    keep = [index for index in ranked if steal[index] <= STEAL_LIMIT]
    floor = min(len(samples), max(1, math.ceil(KEEP_AT_LEAST * len(samples))))
    if len(keep) < floor:
        keep = ranked[:floor]
    return [samples[index] for index in sorted(keep)]
