"""The open-loop generator charges stalls to the arrivals behind them."""

import asyncio
import time

from openloop import run_open_loop
from stats import percentile


def _run(requests, rate, perform, **kwargs):
    return asyncio.run(run_open_loop(requests, rate, perform, **kwargs))


def test_stall_is_charged_to_later_arrivals_and_to_generator_lag():
    rate, stall, stalled = 200.0, 0.100, 10

    async def perform(index):
        if index == stalled:
            time.sleep(stall)  # blocks the generator's thread
        await asyncio.sleep(0)

    result = _run(list(range(60)), rate, perform)
    arrivals = result.arrivals
    assert result.failed == 0 and len(arrivals) == 60
    # Arrivals due during the stall were released late, and each one's
    # latency (from its scheduled time) includes that wait ...
    behind = arrivals[stalled + 1 : stalled + 15]
    for arrival in behind:
        assert arrival.lag_s > 0.02
        assert arrival.latency_s >= arrival.lag_s
    assert behind[0].lag_s >= 0.8 * stall
    assert percentile([a.latency_s for a in behind], 0.5) >= 0.3 * stall
    # ... although their own service time was tiny: a closed-loop timer,
    # starting the clock at release, would have hidden the stall.
    assert max(a.latency_s - a.lag_s for a in behind) < 0.02
    assert max(result.lags()) >= 0.8 * stall
    # The generator catches up once the stall ends.
    assert arrivals[-1].lag_s < 0.05


def test_slow_request_does_not_hold_back_later_arrivals():
    async def perform(index):
        await asyncio.sleep(0.2 if index == 0 else 0)

    result = _run(list(range(20)), 200.0, perform)
    assert result.arrivals[0].latency_s >= 0.2
    assert max(a.lag_s for a in result.arrivals[1:]) < 0.05
    assert max(a.latency_s for a in result.arrivals[1:]) < 0.1


def test_failures_and_unfinished_arrivals_count_as_failed():
    async def perform(index):
        if index == 1:
            raise RuntimeError("boom")
        if index == 2:
            await asyncio.sleep(10)

    result = _run([0, 1, 2], 100.0, perform, drain_timeout_s=0.1)
    ok, failed, hung = result.arrivals
    assert ok.ok and not failed.ok and not hung.ok
    assert "boom" in failed.error
    assert "drain timeout" in hung.error
    assert result.failed == 2
    assert result.latencies() == [ok.latency_s]


def test_kinds_and_pooling():
    first = _run(["a", "b"], 100.0, lambda r: asyncio.sleep(0), kind_of=str)
    second = _run(["a"], 100.0, lambda r: asyncio.sleep(0), kind_of=str)
    first.extend(second)
    assert len(first.latencies("a")) == 2 and len(first.latencies("b")) == 1
    assert first.elapsed_s > 0
