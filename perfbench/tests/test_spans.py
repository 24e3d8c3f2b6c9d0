"""Span parents, request ids and self time."""

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from spans import Recorder, Span


def _span(recorder, span_id, start, end, parent=None):
    span = Span(span_id, f"s{span_id}", parent)
    span.start, span.end = start, end
    recorder.spans.append(span)
    return span


def test_self_time_subtracts_the_union_of_children():
    recorder = Recorder()
    root = _span(recorder, 1, 0.0, 10.0)
    _span(recorder, 2, 1.0, 4.0, root)
    _span(recorder, 3, 3.0, 5.0, root)  # overlaps the first child
    _span(recorder, 4, 9.0, 12.0, root)  # runs past the parent's end
    self_s = recorder.self_times()
    assert self_s[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_s[2] == pytest.approx(3.0)


def test_wrappers_nest_and_share_the_request_id():
    recorder = Recorder()

    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    layer = Layer()
    recorder.wrap(layer, "inner", "inner")
    recorder.wrap(layer, "outer", "outer")
    assert layer.outer() == 2
    inner, outer = recorder.finished()
    assert inner.parent == outer.span_id and outer.parent is None
    assert inner.request == outer.request == outer.span_id


def test_executor_task_is_a_child_of_its_submit_across_threads():
    recorder = Recorder()

    class Executor:
        def __init__(self):
            self.pool = ThreadPoolExecutor(1)

        def submit(self, task):
            return self.pool.submit(task)

    executor = Executor()
    recorder.wrap_executor(executor)
    try:
        with recorder.span("request") as request:
            executor.submit(lambda: time.sleep(0.01)).result(timeout=5)
    finally:
        executor.pool.shutdown(wait=True)
    spans = {span.name: span for span in recorder.finished()}
    assert spans["executor.task"].parent == spans["executor.submit"].span_id
    assert spans["executor.task"].request == request.span_id
    assert spans["executor.task"].start >= spans["executor.submit"].start


def test_future_call_lasts_until_the_future_is_done_and_records_errors():
    recorder = Recorder()
    future = Future()

    class Backend:
        def submit(self):
            return future

    backend = Backend()
    recorder.wrap_future_call(backend, "submit", "backend.call")
    assert backend.submit() is future
    assert recorder.finished() == []
    timer = threading.Timer(0.02, future.set_exception, [RuntimeError("x")])
    timer.start()
    timer.join(timeout=5)
    (span,) = recorder.finished()
    assert span.error and span.duration >= 0.015


def test_meter_charges_become_sim_spans():
    recorder = Recorder()

    class Meter:
        def charge(self, category, duration_s):
            time.sleep(duration_s)

    meter = Meter()
    recorder.wrap_meter(meter)
    with recorder.span("client"):
        meter.charge("network", 0.005)
    sim, client = recorder.finished()
    assert sim.name == "sim.network" and sim.parent == client.span_id
    assert recorder.self_times()[client.span_id] < 0.004
