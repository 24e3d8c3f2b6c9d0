"""The benchmark's three workloads, driven through public entry points only.

Every workload runs under the SYS1 latency profile with one load
generator thread and one connection.  Inputs are generated from the
seed; the program receives only those inputs.  :data:`WORKLOADS`
records each workload's sizes, discipline and configuration.

* ``authors-loop`` (paper Experiment 1): the RUBiS N+1 author loop over
  N comments, blocking original and ``asyncify`` rewrite alternating in
  a closed loop; warm buffer pool, no cache, no coalescing.
* ``category-cold`` (paper Experiment 3): the DFS ``max_part_size``
  kernel over one 100-category subtree of the part table, buffer pool
  flushed before every call; alternating, closed loop.
* ``hotset-serve``: an open loop of independent users on the asyncio
  front end (70% read, 20% profile card, 10% rating write) against the
  sqlite backend with a shared 512-entry result cache and coalescing.
"""

from __future__ import annotations

import asyncio
import functools
import random
import selectors
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.db.latency import SYS1
from repro.prefetch.cache import ResultCache
from repro.runtime.aio import aio_connect
from repro.transform import asyncify
from repro.workloads import category, hotset, rubis

from host import STEAL_LIMIT, StealClock, calm
from openloop import OpenLoopResult, run_open_loop
from spans import Recorder
from stats import percentile, summarize

PROFILE = SYS1

GATED_KERNEL = (
    "orig_qps / trans_qps: lookups per second at the median blocking / "
    "transformed call; p50_s: the median transformed call, so trans_qps "
    "restated (lookups / p50_s): one measurement behind two gates; all "
    f"from calls the host stole at most {STEAL_LIMIT:.0%} of the CPU in"
)

#: Record of each workload: sizes against the program's own caches (the
#: SYS1 buffer pool holds 4096 pages; the hotset result cache 512
#: entries), loop discipline, clients, rates, backend and flush policy.
WORKLOADS: Dict[str, Dict[str, str]] = {
    "authors-loop": {
        "why": "paper Experiment 1; front end, executor hop, server hop "
        "and point lookup do the work, cache/coalescer/disk none",
        "kernel": "repro.workloads.rubis.load_comment_authors, N=1000 comments",
        "data": "20000 users (313 heap pages plus index: fits the 4096-page "
        "buffer pool), 8000 items, 30000 comments, 24000 bids",
        "discipline": "closed loop, 1 caller; calls alternate blocking "
        "original and asyncify rewrite",
        "connection": "Database.connect defaults: async_workers=10, no "
        "result cache, coalescing off",
        "backend": "memory (simulated server, 16 workers)",
        "buffer_pool": "warm: every page resident before measuring",
        "profile": "SYS1",
        "seed": "drives the data generator and the comment batch",
        "gated": GATED_KERNEL,
    },
    "category-cold": {
        "why": "paper Experiment 3; reordering, index aggregates and the "
        "simulated disk (elevator, spindles) dominate, Python cost does not",
        "kernel": "repro.workloads.category.max_part_size over one "
        "100-category top-level subtree per call, cycling through all 10",
        "data": "1000 categories; 120000 parts at 48 rows/page (2500 heap "
        "pages), about 120 rows per probe",
        "discipline": "closed loop, 1 caller; calls alternate blocking "
        "original and asyncify rewrite",
        "connection": "Database.connect defaults: async_workers=10, no "
        "result cache, coalescing off",
        "backend": "memory (simulated server, 16 workers, 4 spindles, "
        "elevator on)",
        "buffer_pool": "flushed before every call (cold)",
        "profile": "SYS1",
        "seed": "drives the data generator and the subtree order",
        "gated": GATED_KERNEL,
    },
    "hotset-serve": {
        "why": "independent users; cache, invalidation, coalescer, "
        "speculation, aio front end and sqlite do the work",
        "kernel": "70% read (submit/fetch profile lookup), 20% card "
        "(profile plus detail via speculate_query), 10% rating UPDATE",
        "data": "2000 users, 90% of draws on 16 hot ids: the hot set fits "
        "the 512-entry result cache, the uniform tail does not",
        "discipline": "open loop on one asyncio thread (aio_connect, "
        "max_in_flight=10) for latencies and max_ok_rate; closed-loop "
        "bursts of 1000 requests, served blocking then asynchronously, "
        "for orig_qps and trans_qps",
        "rates_ops_s": "light 400, heavy 1200, then a 4-step bisection "
        "ladder over 1200..4800 for max_ok_rate",
        "connection": "one shared ResultCache(512), coalescing on",
        "backend": "sqlite: WAL journal, synchronous=OFF (no fsync at commit)",
        "profile": "SYS1 database; the sqlite store Database.backend() "
        "builds has the instant profile, so it charges no simulated time",
        "seed": "drives the data generator, hot set and arrival stream",
        "gated": "orig_qps / trans_qps: requests per second over the "
        "1000-request bursts served blocking / asynchronously; p50_s: "
        "all-ops median at the light rate; all from stretches the host "
        f"stole at most {STEAL_LIMIT:.0%} of the CPU in",
    },
}

#: Sizes per scale: ``full`` is the benchmark, ``tiny`` a smoke test.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "comments": 1000,
        "rubis": {},
        "parts": 120_000,
        "users": 2000,
        "light_rate": 400.0,
        "heavy_rate": 1200.0,
        "ladder_high": 4800.0,
        "ladder_steps": 4,
        "burst": 1000,
    },
    "tiny": {
        "comments": 40,
        "rubis": {"users": 400, "items": 200, "comments": 400, "bids": 400},
        "parts": 4000,
        "users": 300,
        "light_rate": 100.0,
        "heavy_rate": 200.0,
        "ladder_high": 400.0,
        "ladder_steps": 1,
        "burst": 40,
    },
}

#: hotset-serve's latency limit for ``max_ok_rate``: a ladder step passes
#: when at least 95% of its arrivals complete and the all-ops p99 (a
#: failed arrival counting as infinitely late) stays under it.
LATENCY_LIMIT_S = 0.050
MIN_COMPLETED_SHARE = 0.95

#: Length of one hotset-serve cycle of bursts, light and heavy rate.
CYCLE_S = 3.0

#: Share of a cycle the bursts take: the noisiest gated figures get the
#: most samples.
BURST_SHARE = 0.6

#: Share of a hotset-serve window the max_ok_rate ladder takes.
LADDER_SHARE = 0.1

#: hotset-serve arrival mix (the rest are writes).
READ_SHARE, CARD_SHARE = 0.70, 0.20


@dataclass
class Metric:
    value: float
    unit: str
    count: int = 1


@dataclass
class Window:
    """What one measured window produced."""

    attempted: int = 0
    failed: int = 0
    violations: List[str] = field(default_factory=list)
    #: Every named metric of the window (the gated ones among them).
    metrics: Dict[str, Metric] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: Counter deltas over the window (flattened stats surfaces).
    delta: Dict[str, float] = field(default_factory=dict)
    #: Requests (kernel lookups or hotset arrivals) issued in the window.
    ops: int = 0
    #: How late the generator issued each request.
    lags: List[float] = field(default_factory=list)
    #: Wall time per request, beside ``sim.*`` and for trace overhead:
    #: per kernel lookup, or hotset-serve's light-rate median latency.
    wall_per_op_s: float = 0.0

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.violations.append(message)


@dataclass
class Timings:
    """Wall times of repeated calls, each with the host's steal share."""

    seconds: List[float] = field(default_factory=list)
    steal: List[float] = field(default_factory=list)

    def calm(self, window: Window, what: str) -> List[float]:
        """The calm calls' times; notes in ``window`` how many were left out."""
        kept = calm(self.seconds, self.steal)
        if len(kept) < len(self.seconds):
            window.notes.append(
                f"{what}: {len(self.seconds) - len(kept)} of {len(self.seconds)}"
                f" left out, the host stole over {STEAL_LIMIT:.0%} of the CPU"
            )
        return kept


# ----------------------------------------------------------------------
# counters read as deltas over a measured window
# ----------------------------------------------------------------------


def _flatten(prefix: str, value: Any, out: Dict[str, float]) -> None:
    if isinstance(value, dict):
        for key, inner in value.items():
            _flatten(f"{prefix}.{key}", inner, out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out[prefix] = float(value)


class Counters:
    """Flattened readings of every stats surface a workload exposes."""

    def __init__(self, sources: Dict[str, Callable[[], Any]]) -> None:
        self._sources = sources
        self._before = self._read()

    def _read(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, source in self._sources.items():
            _flatten(name, source(), out)
        return out

    def delta(self) -> Dict[str, float]:
        after = self._read()
        return {key: after[key] - self._before.get(key, 0.0) for key in after}


def _common_sources(conn, backend) -> Dict[str, Callable[[], Any]]:
    meter = backend.meter
    return {
        "pipeline": conn.pipeline.stats_snapshot,
        "executor": lambda: vars(conn.executor.stats),
        "server": backend.stats_snapshot,
        "sim": lambda: {"s": meter.totals(), "n": meter.counts()},
    }


# ----------------------------------------------------------------------
# closed-loop kernel workloads (authors-loop, category-cold)
# ----------------------------------------------------------------------


@dataclass
class KernelState:
    db: Any
    conn: Any
    original: Callable
    transformed: Callable
    #: Argument tuples after the connection; calls cycle through them.
    inputs: List[Tuple]
    #: Queries one call issues (the same for every input).
    lookups: int
    cold: bool
    transform_s: float

    #: Kernels ``asyncify`` rewrites per set-up.
    transformed_kernels = 1

    @property
    def backend(self):
        return self.db.server

    def call(self, kernel: Callable, args: Tuple) -> Any:
        """One call on copies of ``args``: kernels consume their list
        arguments (``pop``)."""
        return kernel(self.conn, *[list(a) if isinstance(a, list) else a for a in args])

    def counters(self) -> Counters:
        sources = _common_sources(self.conn, self.backend)
        sources["io"] = self.db.io_report
        return Counters(sources)

    def close(self) -> List[str]:
        self.conn.close()
        self.db.close()
        return []


def _kernel_state(
    db, original: Callable, inputs: List[Tuple], lookups: int, cold: bool
) -> KernelState:
    started = time.perf_counter()
    transformed = asyncify(original)
    transform_s = time.perf_counter() - started
    state = KernelState(
        db=db,
        conn=db.connect(),
        original=original,
        transformed=transformed,
        inputs=inputs,
        lookups=lookups,
        cold=cold,
        transform_s=transform_s,
    )
    # Warm-up: the first transformed call spawns the client pool.
    if cold:
        db.flush_cache()
    state.call(transformed, inputs[0])
    return state


def setup_authors(seed: int, scale: str) -> KernelState:
    sizes = SIZES[scale]
    db = rubis.build_database(PROFILE, seed=seed, **sizes["rubis"])
    for table in db.catalog.table_names():
        db.warm_table(table)
    comments = rubis.comment_batch(db, sizes["comments"], seed=seed)
    return _kernel_state(
        db, rubis.load_comment_authors, [(comments,)], len(comments), cold=False
    )


def setup_category(seed: int, scale: str) -> KernelState:
    db = category.build_database(PROFILE, parts=SIZES[scale]["parts"], seed=seed)
    children = category.load_children(db)
    subtree = 1 + category.MID_PER_TOP * (1 + category.LEAF_PER_MID)
    tops = [index * subtree for index in range(category.TOP_LEVEL)]
    random.Random(seed).shuffle(tops)
    return _kernel_state(
        db,
        category.max_part_size,
        [(children, [top]) for top in tops],
        subtree,
        cold=True,
    )


def measure_kernels(
    state: KernelState, seconds: float, recorder: Optional[Recorder] = None
) -> Window:
    """Alternate original and transformed calls on the same inputs for
    ``seconds``; each transformed output must equal the original's.

    Per-call times give ``orig_qps`` / ``trans_qps`` (lookups per second
    at the median call) and ``p50_s`` (the median transformed call),
    over the calls during which the host stole little CPU.
    """
    window = Window()
    times = {"orig": Timings(), "trans": Timings()}
    clock = StealClock()
    counters = state.counters()
    started = time.perf_counter()
    last_end = started
    pair = 0
    while last_end < started + seconds:
        index = pair % len(state.inputs)
        args = state.inputs[index]
        pair += 1
        outputs = {}
        for variant, kernel in (("orig", state.original), ("trans", state.transformed)):
            window.attempted += state.lookups
            if state.cold:
                state.db.flush_cache()
            clock.lap()
            began = time.perf_counter()
            window.lags.append(began - last_end)
            try:
                if recorder is None:
                    outputs[variant] = state.call(kernel, args)
                else:
                    with recorder.span(f"kernel.{variant}"):
                        outputs[variant] = state.call(kernel, args)
            except Exception as exc:
                window.failed += state.lookups
                window.violations.append(f"{variant} kernel raised {exc!r}")
            finally:
                last_end = time.perf_counter()
            times[variant].seconds.append(last_end - began)
            times[variant].steal.append(clock.lap())
        window.check(
            outputs.get("trans") == outputs.get("orig"),
            f"transformed output differs from the original's on input {index}",
        )
    window.delta = counters.delta()
    window.ops = pair * 2 * state.lookups
    executed = window.delta["server.statements_executed"]
    window.check(
        executed == window.ops,
        f"backend executed {executed:.0f} statements for {window.ops} queries issued",
    )
    orig = summarize(times["orig"].calm(window, "blocking calls"))
    trans = summarize(times["trans"].calm(window, "transformed calls"))
    for name, summary in (("orig_qps", orig), ("trans_qps", trans)):
        window.metrics[name] = Metric(
            state.lookups / summary["p50"], "1/s", summary["count"]
        )
    window.metrics["p50_s"] = Metric(trans["p50"], "s", trans["count"])
    window.wall_per_op_s = (last_end - started) / window.ops
    return window


# ----------------------------------------------------------------------
# open-loop serving workload (hotset-serve)
# ----------------------------------------------------------------------


def new_event_loop() -> asyncio.AbstractEventLoop:
    """The generator's loop.  ``select()`` takes microsecond timeouts,
    where epoll rounds every timer up to a whole millisecond and would
    release arrivals up to 1 ms late."""
    return asyncio.SelectorEventLoop(selectors.SelectSelector())


@dataclass
class HotsetState:
    db: Any
    cache: ResultCache
    aconn: Any
    #: Uncached connection to the same store: the staleness oracle.
    plain: Any
    loop: asyncio.AbstractEventLoop
    draw: Callable[[random.Random], int]
    rng: random.Random
    #: Items per seller, from the generated data (items are never written).
    listings: Dict[int, int]
    sizes: Dict[str, Any]

    #: The card's speculative form is written by hand: nothing is transformed.
    transformed_kernels = 0
    transform_s = 0.0

    @property
    def conn(self):
        return self.aconn.connection

    @property
    def backend(self):
        return self.conn.server

    def counters(self) -> Counters:
        sources = _common_sources(self.conn, self.backend)
        sources["cache"] = self.cache.stats_snapshot
        sources["aio"] = lambda: vars(self.aconn.stats)
        return Counters(sources)

    def requests(self, count: int) -> List[Tuple[str, int, int]]:
        out = []
        for _ in range(count):
            roll = self.rng.random()
            if roll < READ_SHARE:
                kind = "read"
            elif roll < READ_SHARE + CARD_SHARE:
                kind = "card"
            else:
                kind = "write"
            out.append((kind, self.draw(self.rng), self.rng.randint(-5, 5)))
        return out

    def _check_card(self, user_id: int, name: str, rating: int, listed: int) -> None:
        expected = 0
        if rating >= hotset.DETAIL_RATING:
            expected = self.listings.get(user_id, 0)
        if name != f"user-{user_id}" or listed != expected:
            raise AssertionError(f"card of user {user_id}: {name} {rating} {listed}")

    async def perform(self, request, recorder: Optional[Recorder] = None) -> None:
        """One request through the asyncio front end; raises when the
        answer is wrong."""
        kind, user_id, rating = request
        aconn = self.aconn
        if kind == "write":
            await _awaited(
                aconn.submit_query(hotset.RATING_UPDATE_SQL, [rating, user_id]),
                recorder,
            )
            return
        detail = None
        if kind == "card":
            detail = aconn.speculate_query(
                hotset.DETAIL_SQL, [user_id], site="hotset.card"
            )
        profile = aconn.submit_query(hotset.PROFILE_SQL, [user_id])
        row = (await _awaited(profile, recorder))[0]
        if detail is None:
            if row[0] != f"user-{user_id}":
                raise AssertionError(f"read of user {user_id} returned {row!r}")
        elif row[1] >= hotset.DETAIL_RATING:
            listed = (await _awaited(detail, recorder))[0][0]
            self._check_card(user_id, row[0], row[1], listed)
        else:
            detail.abandon()
            self._check_card(user_id, row[0], row[1], 0)

    def perform_blocking(self, request) -> None:
        """The same request in its original blocking form."""
        kind, user_id, rating = request
        if kind == "write":
            self.conn.execute_update(hotset.RATING_UPDATE_SQL, [rating, user_id])
        elif kind == "card":
            self._check_card(*hotset.profile_card(self.conn, user_id))
        else:
            row = self.conn.execute_query(hotset.PROFILE_SQL, [user_id])[0]
            if row[0] != f"user-{user_id}":
                raise AssertionError(f"read of user {user_id} returned {row!r}")

    def serve_blocking(self, requests) -> List[str]:
        errors = []
        for request in requests:
            try:
                self.perform_blocking(request)
            except Exception as exc:
                errors.append(f"{request[0]}: {exc!r}")
        return errors

    async def serve_async(self, requests) -> List[str]:
        outcomes = await asyncio.gather(
            *(self.perform(request) for request in requests), return_exceptions=True
        )
        return [
            f"{request[0]}: {outcome!r}"
            for request, outcome in zip(requests, outcomes)
            if isinstance(outcome, BaseException)
        ]

    def open_loop(
        self, rate: float, seconds: float, recorder: Optional[Recorder] = None
    ) -> OpenLoopResult:
        requests = self.requests(max(1, int(rate * seconds)))
        return self.loop.run_until_complete(
            run_open_loop(
                requests,
                rate,
                lambda request: self.perform(request, recorder),
                kind_of=lambda request: request[0],
            )
        )

    def stale_reads(self, sample: int = 32) -> List[int]:
        """With no request in flight: ids whose read through the cache
        differs from an uncached read of the backend.  The sample is
        the most frequently drawn ids (cached ones) plus uniform ones."""
        draws = [self.draw(self.rng) for _ in range(4 * sample)]
        ids = sorted(set(draws), key=draws.count, reverse=True)[: sample // 2]
        ids += [self.rng.randrange(self.sizes["users"]) for _ in range(sample // 2)]

        async def cached(user_id):
            return await self.aconn.submit_query(hotset.PROFILE_SQL, [user_id])

        return [
            user_id
            for user_id in ids
            if self.loop.run_until_complete(cached(user_id)).rows
            != self.plain.execute_query(hotset.PROFILE_SQL, [user_id]).rows
        ]

    def close(self) -> List[str]:
        """Close everything; returns the violations found at close."""
        self.aconn.close()
        snap = self.aconn.pipeline.stats_snapshot()
        settled = snap["speculation_hits"] + snap["speculation_wasted"]
        violations = []
        if snap["speculations"] != settled:
            violations.append(
                f"speculations {snap['speculations']} != hits + wasted {settled}"
            )
        self.plain.close()
        self.loop.close()
        self.db.close()
        return violations


async def _awaited(handle, recorder: Optional[Recorder]):
    if recorder is None:
        return await handle
    with recorder.span("aio.await"):
        return await handle


def setup_hotset(seed: int, scale: str) -> HotsetState:
    sizes = SIZES[scale]
    users = sizes["users"]
    db = hotset.build_database(
        PROFILE, users=users, items=max(users // 3, 50), comments=users,
        bids=users, seed=seed,
    )
    listings: Dict[int, int] = {}
    for _row_id, row in db.catalog.table("items").heap.iter_rows():
        listings[row[2]] = listings.get(row[2], 0) + 1
    state = HotsetState(
        db=db,
        cache=ResultCache(512),
        aconn=None,
        plain=db.connect(backend="sqlite"),
        loop=new_event_loop(),
        draw=hotset.skewed_id_source(db, seed=seed),
        rng=random.Random(seed),
        listings=listings,
        sizes=sizes,
    )
    state.aconn = aio_connect(
        db, max_in_flight=10, result_cache=state.cache, coalesce=True,
        backend="sqlite",
    )
    # Warm-up: spawn the pools, open sqlite's per-thread connections and
    # fill the cache with the hot set.
    warm = state.open_loop(sizes["light_rate"], 1.0)
    if warm.failed:
        raise AssertionError(f"{warm.failed} warm-up requests failed")
    return state


def _step_ok(result: OpenLoopResult) -> bool:
    arrivals = len(result.arrivals)
    latencies = [a.latency_s if a.ok else float("inf") for a in result.arrivals]
    return (
        arrivals - result.failed >= MIN_COMPLETED_SHARE * arrivals
        and percentile(latencies, 0.99) <= LATENCY_LIMIT_S
    )


def _latency_metrics(
    window: Window, prefix: str, result: OpenLoopResult, kind: str = ""
) -> None:
    summary = summarize(result.latencies(kind))
    if summary["count"]:
        for q in ("p50", "p99"):
            window.metrics[f"{prefix}_{q}_s"] = Metric(summary[q], "s", summary["count"])


def _pooled(rate: float, results: List[OpenLoopResult]) -> OpenLoopResult:
    pooled = OpenLoopResult(rate)
    for result in results:
        pooled.extend(result)
    return pooled


def measure_hotset(
    state: HotsetState,
    seconds: float,
    recorder: Optional[Recorder] = None,
    full: bool = True,
) -> Window:
    """Interleaved bursts, light and heavy rate, then the max_ok_rate ladder.

    All but the last :data:`LADDER_SHARE` of the window runs in cycles
    of about :data:`CYCLE_S`: closed-loop bursts (:data:`BURST_SHARE` of
    a cycle), then the light and the heavy rate (the rest, halved), so
    every metric samples the whole run rather than one stretch of it.
    The ladder takes the last share.  With ``full=False`` (each half of a traced run) the cycles hold the
    light and heavy rate only, for the whole window, and no ladder runs.
    Bursts and rate segments during which the host stole much CPU are
    left out of the latency and throughput figures.
    """
    sizes = state.sizes
    window = Window()
    counters = state.counters()
    clock = StealClock()
    segments: Dict[str, Tuple[List[OpenLoopResult], List[float]]] = {
        "light": ([], []),
        "heavy": ([], []),
    }
    bursts = {"orig": Timings(), "trans": Timings()}
    cycling_s = (1.0 - LADDER_SHARE) * seconds if full else seconds
    cycles = max(1, round(cycling_s / CYCLE_S))
    cycle_s = cycling_s / cycles
    rate_share = (1.0 - BURST_SHARE) / 2 if full else 0.5
    for _ in range(cycles):
        if full:
            _bursts(state, BURST_SHARE * cycle_s, window, bursts, clock)
        for phase, (results, steal) in segments.items():
            clock.lap()
            results.append(
                state.open_loop(sizes[f"{phase}_rate"], rate_share * cycle_s, recorder)
            )
            steal.append(clock.lap())
    window.delta = counters.delta()
    done = {
        phase: _pooled(sizes[f"{phase}_rate"], results)
        for phase, (results, _steal) in segments.items()
    }
    kept = {}
    for phase, (results, steal) in segments.items():
        calm_results = calm(results, steal)
        if len(calm_results) < len(results):
            window.notes.append(
                f"{phase} rate: {len(results) - len(calm_results)} of {len(results)}"
                f" segments left out, the host stole over {STEAL_LIMIT:.0%} of the CPU"
            )
        kept[phase] = _pooled(sizes[f"{phase}_rate"], calm_results)
    light, heavy = kept["light"], kept["heavy"]
    window.ops = sum(len(result.arrivals) for result in done.values())
    window.lags = done["light"].lags() + done["heavy"].lags()
    # The light rate's all-ops median is the gated latency.  At the heavy
    # rate the median falls between the cache-hit and the queued-miss
    # modes, so it jumps between them from run to run, and queueing there
    # multiplies any added cost (tracing's too).
    gated = summarize(light.latencies())
    window.wall_per_op_s = gated["p50"]
    if full:
        for variant, timings in bursts.items():
            calm_s = timings.calm(window, f"{variant} bursts")
            window.metrics[f"{variant}_qps"] = Metric(
                sizes["burst"] * len(calm_s) / sum(calm_s), "1/s", len(calm_s)
            )
        low, high = sizes["heavy_rate"], sizes["ladder_high"]
        if not _step_ok(heavy):
            low = 0.0
        rungs = []
        for _ in range(sizes["ladder_steps"]):
            rate = (low + high) / 2.0
            rung_s = LADDER_SHARE * seconds / sizes["ladder_steps"]
            result = state.open_loop(rate, rung_s)
            done[f"ladder@{rate:.0f}"] = result
            passed = _step_ok(result)
            rungs.append(f"{rate:.0f}:{'ok' if passed else 'miss'}")
            low, high = (rate, high) if passed else (low, rate)
        window.metrics["max_ok_rate"] = Metric(low, "1/s", len(rungs))
        window.notes.append("max_ok_rate ladder (offered ops/s): " + " ".join(rungs))
        _latency_metrics(window, "light", light)
        for kind in ("read", "card", "write"):
            _latency_metrics(window, kind, heavy, kind)
        window.metrics["p50_s"] = Metric(gated["p50"], "s", gated["count"])
    for name, result in done.items():
        window.attempted += len(result.arrivals)
        window.failed += result.failed
        errors = {a.error for a in result.arrivals if not a.ok}
        window.violations.extend(f"{name}: {error}" for error in sorted(errors))
    stale = state.stale_reads()
    window.check(not stale, f"stale cached reads after quiescing: users {stale}")
    return window


def _bursts(
    state: HotsetState,
    seconds: float,
    window: Window,
    times: Dict[str, Timings],
    clock: StealClock,
) -> None:
    """The paper's comparison on the serving mix: the same burst of
    requests served by the original blocking program (one request at a
    time) and by the asynchronous one (all submitted, then awaited),
    alternating for ``seconds``; adds each burst's time to ``times``."""
    size = state.sizes["burst"]
    started = time.perf_counter()
    while time.perf_counter() < started + seconds:
        burst = state.requests(size)
        for variant in ("orig", "trans"):
            window.attempted += size
            clock.lap()
            began = time.perf_counter()
            if variant == "orig":
                errors = state.serve_blocking(burst)
            else:
                errors = state.loop.run_until_complete(state.serve_async(burst))
            times[variant].seconds.append(time.perf_counter() - began)
            times[variant].steal.append(clock.lap())
            window.failed += len(errors)
            window.violations.extend(
                f"{variant} burst: {error}" for error in sorted(set(errors))
            )


#: name -> (setup(seed, scale), measure(state, seconds), measure one half
#: of a traced run(state, seconds, recorder))
REGISTRY = {
    "authors-loop": (setup_authors, measure_kernels, measure_kernels),
    "category-cold": (setup_category, measure_kernels, measure_kernels),
    "hotset-serve": (
        setup_hotset,
        measure_hotset,
        functools.partial(measure_hotset, full=False),
    ),
}
