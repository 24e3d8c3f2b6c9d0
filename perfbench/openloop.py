"""Open-loop arrival generator on one asyncio thread.

Independent users do not wait for each other, so requests arrive on a
schedule whether or not earlier ones have finished.  Each request is
timed from its *scheduled* arrival, so a stall is charged to every
arrival that queued behind it, and the generator reports how late it
released each arrival (``lag``).  Requests are coroutines, so the
number in flight is not capped by generator threads.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, List, Sequence


@dataclass
class Arrival:
    """One scheduled request and what happened to it."""

    kind: str
    due: float
    lag_s: float = 0.0
    latency_s: float = 0.0
    ok: bool = False
    error: str = ""


@dataclass
class OpenLoopResult:
    rate: float
    arrivals: List[Arrival] = field(default_factory=list)
    elapsed_s: float = 0.0

    def latencies(self, kind: str = "") -> List[float]:
        """Latencies of completed arrivals (of one ``kind`` if given)."""
        return [
            a.latency_s
            for a in self.arrivals
            if a.ok and (not kind or a.kind == kind)
        ]

    def extend(self, other: "OpenLoopResult") -> None:
        """Pool another window's arrivals into this one."""
        self.arrivals.extend(other.arrivals)
        self.elapsed_s += other.elapsed_s

    def lags(self) -> List[float]:
        return [a.lag_s for a in self.arrivals]

    @property
    def failed(self) -> int:
        return sum(1 for a in self.arrivals if not a.ok)


async def run_open_loop(
    requests: Sequence[Any],
    rate: float,
    perform: Callable[[Any], Awaitable[None]],
    kind_of: Callable[[Any], str] = lambda request: "op",
    drain_timeout_s: float = 30.0,
) -> OpenLoopResult:
    """Release ``requests`` at ``rate`` per second and await them all.

    Request ``i`` is due at ``start + i / rate``.  ``perform(request)``
    runs it; an exception marks that arrival failed (it still counts as
    attempted).  Arrivals still unfinished ``drain_timeout_s`` after the
    last release are cancelled and counted as failed.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    loop = asyncio.get_running_loop()
    clock = time.perf_counter
    result = OpenLoopResult(rate=rate)

    async def timed(arrival: Arrival, request: Any) -> None:
        arrival.lag_s = clock() - arrival.due
        try:
            await perform(request)
        except Exception as exc:  # a failed request is data, not a crash
            arrival.error = f"{type(exc).__name__}: {exc}"
        else:
            arrival.ok = True
        finally:
            arrival.latency_s = clock() - arrival.due

    tasks = []
    start = clock()
    interval = 1.0 / rate
    for index, request in enumerate(requests):
        due = start + index * interval
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        arrival = Arrival(kind=kind_of(request), due=due)
        result.arrivals.append(arrival)
        tasks.append(loop.create_task(timed(arrival, request)))
    if tasks:
        _done, pending = await asyncio.wait(tasks, timeout=drain_timeout_s)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.wait(pending)
        for arrival, task in zip(result.arrivals, tasks):
            if task in pending:
                arrival.ok = False
                arrival.error = "not finished before the drain timeout"
    result.elapsed_s = clock() - start
    return result
