"""Per-layer attribution of a traced window.

:func:`instrument` installs the benchmark's wrappers on the public
objects a workload holds; :func:`layer_metrics` turns the recorded spans
and the counter deltas of the window into the per-layer metrics.  Self
times exclude child spans, and every simulated charge is a ``sim.*``
child span, so self times are real Python cost; the simulated seconds
are reported apart, per request, as ``sim.*``.

Which end-to-end metric each layer should move, and on which workload:

=========================  ==============================  ==============
layer metrics              end-to-end metric               workload
=========================  ==============================  ==============
transform.*                setup_s (statement reordering)  category-cold
client.*                   trans_qps, orig_qps             authors-loop
executor.*                 trans_qps / max_ok_rate         authors-loop /
                                                           hotset-serve
aio.*                      p50_s, max_ok_rate              hotset-serve
pipeline.*, coalesce.*,    trans_qps; max_ok_rate,         authors-loop;
spec.*                     card_p50_s                      hotset-serve
cache.*                    p50_s, write_p50_s              hotset-serve
backend.*                  orig_qps / write_p50_s          authors-loop /
                                                           hotset-serve
buffer.*, disk.*, scans.*  trans_qps                       category-cold
sim.*                      none: fixed under pure-Python   all
                           changes, explains the split
gen.*, trace.*             none: validity of the run       all
=========================  ==============================  ==============
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Tuple

from spans import Recorder, Span
from stats import percentile

#: Categories the simulated latency meter charges.
SIM_CATEGORIES = ("network", "disk", "cpu", "queue")


def instrument(state: Any, recorder: Recorder) -> None:
    """Wrap each layer's public entry points on the workload's objects."""
    conn = state.conn
    for method, name in (
        ("execute_query", "client.execute"),
        ("submit_query", "client.submit"),
        ("speculate_query", "client.speculate"),
        ("fetch_result", "client.fetch"),
    ):
        recorder.wrap(conn, method, name)
    pipeline = conn.pipeline
    for method in ("execute", "submit", "speculate", "fetch"):
        recorder.wrap(pipeline, method, f"pipeline.{method}")
    recorder.wrap_executor(conn.executor)
    backend = state.backend
    for method in ("submit_prepared", "submit_prepared_batch"):
        recorder.wrap_future_call(backend, method, "backend.call")
    recorder.wrap_meter(backend.meter)
    cache = conn.result_cache
    if cache is not None:
        recorder.wrap(cache, "acquire", "cache.acquire")
    aconn = getattr(state, "aconn", None)
    if aconn is not None:
        recorder.wrap(aconn, "submit_query", "aio.submit")
        recorder.wrap(aconn, "speculate_query", "aio.speculate")


def reset_peaks(state: Any) -> None:
    """Start the high-water marks the program keeps over its whole life
    (executor in-flight, backend concurrency, disk queue depth) afresh,
    so that they cover the traced window only.  Call it between windows:
    counters are read as deltas from each window's start."""
    state.conn.executor.stats.peak_in_flight = 0
    state.backend.stats.peak_concurrency = 0
    state.db.reset_stats()


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: Recorder,
    window: Any,
    state: Any,
    overhead_ratio: float,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of a traced ``window`` as name -> (value, unit)."""
    spans = recorder.finished()
    self_s = recorder.self_times(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    by_id = {}
    for span in spans:
        by_name[span.name].append(span)
        by_id[span.span_id] = span

    def named(*names: str) -> List[Span]:
        return [span for name in names for span in by_name.get(name, ())]

    def self_us(*names: str) -> float:
        return 1e6 * _mean(self_s[span.span_id] for span in named(*names))

    def duration_us(*names: str) -> float:
        return 1e6 * _mean(span.duration for span in named(*names))

    d = window.delta.get
    ops = max(window.ops, 1)
    backend_calls = named("backend.call")
    # Simulated work on the backend's own threads has no parent span.
    server_sim_s = sum(
        span.duration
        for span in spans
        if span.parent is None and span.name.startswith("sim.")
    )
    tasks = named("executor.task")
    spec_hits, spec_wasted = d("pipeline.speculation_hits", 0.0), d(
        "pipeline.speculation_wasted", 0.0
    )
    snap = state.conn.pipeline.stats_snapshot()
    io = state.db.io_report()
    disk_reads = d("io.disk.reads", 0.0)
    buffer_touches = d("io.buffer.hits", 0.0) + d("io.buffer.misses", 0.0)
    metrics: Dict[str, Tuple[float, str]] = {
        "transform.kernels": (float(state.transformed_kernels), "count"),
        "transform.busy_s": (state.transform_s, "s"),
        "client.calls": (
            float(sum(1 for s in spans if s.name.startswith("client."))),
            "count",
        ),
        "client.submit_self_us": (self_us("client.submit", "client.speculate"), "us"),
        "client.fetch_wait_us": (duration_us("client.fetch"), "us"),
        "client.execute_self_us": (self_us("client.execute"), "us"),
        "executor.tasks": (d("executor.submitted", 0.0), "count"),
        "executor.wait_us": (
            1e6
            * _mean(t.start - by_id[t.parent].start for t in tasks if t.parent in by_id),
            "us",
        ),
        "executor.peak_in_flight": (
            float(state.conn.executor.stats.peak_in_flight),
            "count",
        ),
        "aio.calls": (d("aio.submitted", 0.0), "count"),
        "aio.submit_self_us": (self_us("aio.submit", "aio.speculate"), "us"),
        "aio.await_us": (duration_us("aio.await"), "us"),
        "pipeline.submits": (
            d("pipeline.blocking_calls", 0.0)
            + d("pipeline.async_submits", 0.0)
            + d("pipeline.speculations", 0.0),
            "count",
        ),
        "pipeline.dispatches": (float(len(backend_calls)), "count"),
        "pipeline.self_us": (
            self_us(
                "pipeline.execute", "pipeline.submit", "pipeline.speculate", "pipeline.fetch"
            ),
            "us",
        ),
        "coalesce.batches": (d("pipeline.coalesced_batches", 0.0), "count"),
        "coalesce.bindings_per_batch": (
            _ratio(
                d("pipeline.coalesced_queries", 0.0), d("pipeline.coalesced_batches", 0.0)
            ),
            "count",
        ),
        "spec.issued": (d("pipeline.speculations", 0.0), "count"),
        "spec.hit_ratio": (_ratio(spec_hits, spec_hits + spec_wasted), "ratio"),
        "spec.unsettled": (
            float(
                snap["speculations"]
                - snap["speculation_hits"]
                - snap["speculation_wasted"]
            ),
            "count",
        ),
        "cache.lookups": (d("cache.lookups", 0.0), "count"),
        "cache.hit_ratio": (
            _ratio(d("cache.hits", 0.0), d("cache.lookups", 0.0)),
            "ratio",
        ),
        "cache.shared_flights": (d("cache.shared_flights", 0.0), "count"),
        "cache.invalidations": (d("cache.invalidations", 0.0), "count"),
        "cache.evictions": (d("cache.evictions", 0.0), "count"),
        "backend.statements": (d("server.statements_executed", 0.0), "count"),
        "backend.batched_calls": (d("server.batched_calls", 0.0), "count"),
        "backend.peak_concurrency": (
            float(state.backend.stats_snapshot()["peak_concurrency"]),
            "count",
        ),
        "backend.wall_us": (duration_us("backend.call"), "us"),
        "backend.real_us": (
            duration_us("backend.call")
            - 1e6 * _ratio(server_sim_s, len(backend_calls)),
            "us",
        ),
        "backend.failed": (float(sum(1 for s in backend_calls if s.error)), "count"),
        "buffer.hit_ratio": (_ratio(d("io.buffer.hits", 0.0), buffer_touches), "ratio"),
        "disk.reads": (disk_reads, "count"),
        "disk.random_ratio": (_ratio(d("io.disk.random", 0.0), disk_reads), "ratio"),
        "disk.max_queue_depth": (float(io["disk"]["max_queue_depth"]), "count"),
        "scans.shared": (d("io.scans.shared", 0.0), "count"),
        "op.wall_s": (window.wall_per_op_s, "s/op"),
    }
    for category in SIM_CATEGORIES:
        metrics[f"sim.{category}_s"] = (d(f"sim.s.{category}", 0.0) / ops, "s/op")
        metrics[f"sim.{category}_n"] = (d(f"sim.n.{category}", 0.0) / ops, "1/op")
    lags = window.lags or [0.0]
    metrics["gen.lag_p50_s"] = (percentile(lags, 0.5), "s")
    metrics["gen.lag_max_s"] = (max(lags), "s")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics


def charged_devices(window: Any) -> List[str]:
    """Simulated devices the window's backend charged time to."""
    return [c for c in SIM_CATEGORIES if window.delta.get(f"sim.s.{c}", 0.0) > 0]
