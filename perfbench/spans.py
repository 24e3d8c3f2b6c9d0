"""Spans recorded by the benchmark's own wrappers around each layer.

A traced run replaces public methods of the objects a workload holds
(connection, pipeline, executor, cache, backend, latency meter, asyncio
front end) with wrappers that record one :class:`Span` per call: name,
start, end, parent and request id.  The program itself is not changed;
an untraced run installs nothing.

Parents travel in a context variable.  Each asyncio task and each thread
has its own context, so a coroutine's spans nest correctly, and the
executor wrapper hands the submitting span to the worker thread that
runs the task.  Work on the backend's own worker threads (simulated
server CPU and disk) has no parent: those spans are attributed to the
backend.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional

_CURRENT: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Span:
    """One timed call: name, start, end, parent span id and request id
    (the id of the request's root span)."""

    __slots__ = ("span_id", "name", "start", "end", "parent", "request", "error")

    def __init__(self, span_id: int, name: str, parent: Optional["Span"]) -> None:
        self.span_id = span_id
        self.name = name
        self.parent = parent.span_id if parent is not None else None
        self.request = parent.request if parent is not None else span_id
        self.error = False
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects finished spans in memory; summaries are computed at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def open(self, name: str, parent: Optional[Span] = None) -> Span:
        if parent is None:
            parent = _CURRENT.get()
        return Span(next(self._ids), name, parent)

    def close(self, span: Span, error: bool = False) -> None:
        span.end = time.perf_counter()
        span.error = error
        with self._lock:
            self.spans.append(span)

    def call(
        self, name: str, fn: Callable, *args, parent: Optional[Span] = None, **kwargs
    ):
        """Run ``fn(*args, **kwargs)`` inside span ``name``, a child of
        ``parent`` (default: the current span)."""
        span = self.open(name, parent)
        token = _CURRENT.set(span)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            _CURRENT.reset(token)
            self.close(span, span.error)

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as a child of the current span."""
        span = self.open(name)
        token = _CURRENT.set(span)
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            _CURRENT.reset(token)
            self.close(span, span.error)

    def wrap(self, obj: Any, method: str, name: str) -> None:
        """Shadow ``obj.method`` with a wrapper recording span ``name``."""
        original = getattr(obj, method)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        setattr(obj, method, wrapper)

    def wrap_executor(self, executor: Any) -> None:
        """``executor.submit`` records the submit and, on the worker, the
        task: its wait is task start minus submit start."""
        original = executor.submit

        def submit(task: Callable[[], Any], *args, **kwargs):
            submitted = self.open("executor.submit")
            token = _CURRENT.set(submitted)
            try:
                return original(
                    lambda: self.call("executor.task", task, parent=submitted),
                    *args,
                    **kwargs,
                )
            finally:
                _CURRENT.reset(token)
                self.close(submitted)

        executor.submit = submit

    def wrap_future_call(self, obj: Any, method: str, name: str) -> None:
        """Shadow a method that returns a future: the span runs from the
        call until the future is done (the backend's wall time)."""
        original = getattr(obj, method)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                future = original(*args, **kwargs)
            except BaseException:
                self.close(span, error=True)
                raise
            future.add_done_callback(
                lambda done: self.close(
                    span, error=done.cancelled() or done.exception() is not None
                )
            )
            return future

        setattr(obj, method, wrapper)

    def wrap_meter(self, meter: Any) -> None:
        """Record every simulated charge as a ``sim.<category>`` span."""
        original = meter.charge

        def charge(category: str, duration_s: float) -> None:
            self.call(f"sim.{category}", original, category, duration_s)

        meter.charge = charge

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def finished(self) -> List[Span]:
        with self._lock:
            return list(self.spans)

    def self_times(self, spans: Optional[Iterable[Span]] = None) -> Dict[int, float]:
        """Each span's duration minus the part of it its children cover."""
        spans = list(self.finished() if spans is None else spans)
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                children[span.parent].append(span)
        result = {}
        for span in spans:
            intervals = sorted(
                (max(c.start, span.start), min(c.end, span.end))
                for c in children.get(span.span_id, ())
            )
            covered = 0.0
            cursor = span.start
            for low, high in intervals:
                low = max(low, cursor)
                if high > low:
                    covered += high - low
                    cursor = high
            result[span.span_id] = span.duration - covered
        return result
