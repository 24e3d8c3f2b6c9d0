"""The backend contract under the submission pipeline.

The client stack — :class:`repro.client.connection.Connection`, the
:class:`repro.core.submission.SubmissionPipeline`, the result cache, the
dispatch coalescer, speculation, tracing, metrics — is transport
agnostic: it needs a *store* that can prepare statements, execute them
(one at a time or set-oriented), open transactions, and cooperate with
the cache-consistency protocol.  :class:`Backend` names that surface.

:class:`Backend` is also the one owner of statement handling: the
prepared-statement LRU, the worker pool and its shutdown guard, the
write path's cache bookkeeping, concurrency accounting, the batch
skeleton and the stats.  A store adds only engine-specific hooks.  Two
stores ship today:

* :class:`repro.backends.memory.InMemoryBackend` — the simulated
  database server (:class:`repro.db.server.DatabaseServer`), which
  doubles as the differential-test oracle;
* :class:`repro.backends.sqlite.SqliteBackend` — stdlib ``sqlite3``
  behind the same interface, the first real (honest-latency) store.

Invalidation semantics are part of the contract, not an in-memory
accident, so the bookkeeping lives here in
:class:`CacheInvalidationLedger`: per-table write versions (the
optimistic publication token), uncommitted-write marks (reads of dirty
tables bypass the cache) and the registered-cache broadcast.  Every
store drives the ledger from the one write path in :class:`Backend`
(for a DB-API store this is the "client-tracked" mode: the real server
has no channel to push invalidations), so the cache observes identical
behavior on each store, which the invalidation-equivalence tests
assert.
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from ..db.catalog import Catalog
from ..db.errors import (
    ServerShutdownError,
    StatementHandleError,
    TransactionStateError,
)
from ..db.latency import LatencyMeter, LatencyProfile
from ..db.plan import BindingOutcome, Planner, QueryResult, demuxable
from ..db.sql import parse
from ..db.sql.ast_nodes import CreateIndexStmt, CreateTableStmt, Statement, is_write
from ..db.txn import Transaction, TransactionManager

#: Backend kinds selectable via ``Database.connect(backend=...)`` /
#: ``aio_connect(backend=...)`` / the ``REPRO_BACKEND`` environment
#: variable / the workload driver's ``--backend`` flag.
BACKENDS = ("memory", "sqlite")


def resolve_backend_name(backend: Optional[str] = None) -> str:
    """Validate a backend name, defaulting from ``REPRO_BACKEND``.

    ``None`` defers to the ``REPRO_BACKEND`` environment variable (the
    CI backend matrix sets it), else ``"memory"`` — mirroring how
    ``REPRO_EXECUTOR`` picks the execution engine.

    >>> resolve_backend_name("memory")
    'memory'
    >>> resolve_backend_name("sqlite")
    'sqlite'
    """
    if backend is None:
        backend = os.environ.get("REPRO_BACKEND", "").strip() or "memory"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r} (expected one of {BACKENDS})"
        )
    return backend


class CacheInvalidationLedger:
    """Cache-consistency bookkeeping shared by every backend.

    Three coupled mechanisms (see docs/BACKENDS.md for the protocol
    table):

    * **Registered caches.**  Result caches register weakly; every
      executed write broadcasts a per-table invalidation to all of them
      — transactional writes at commit, never at rollback.
    * **Write versions.**  Every data change (including a rollback's
      restore) bumps the written table's version.  Cached readers
      capture a token before executing and publish only if it is
      unchanged — the optimistic check that keeps a read overlapping
      *any* data change out of the cache.
    * **Uncommitted marks.**  Tables with open transactional writes are
      marked (refcounted per transaction); reads of marked tables
      bypass the cache, because the value observed may be dirty and a
      rolled-back write never broadcasts.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Weak references: a cache lives exactly as long as some client
        #: holds it; no unregistration bookkeeping on connection close.
        self._caches: "weakref.WeakSet" = weakref.WeakSet()
        self._write_versions: Dict[str, int] = {}
        self._writes_total = 0
        self._uncommitted: Dict[Optional[str], int] = {}

    # -- cache registry ------------------------------------------------
    def register_cache(self, cache) -> None:
        with self._lock:
            self._caches.add(cache)

    def unregister_cache(self, cache) -> None:
        with self._lock:
            self._caches.discard(cache)

    @property
    def cache_count(self) -> int:
        with self._lock:
            return len(self._caches)

    def broadcast_invalidation(self, table: Optional[str]) -> int:
        """Drop entries reading ``table`` from every registered cache
        (``None`` drops everything); returns total entries dropped."""
        with self._lock:
            caches = list(self._caches)
        dropped = 0
        for cache in caches:
            dropped += cache.invalidate_table(table)
        return dropped

    # -- write versioning ----------------------------------------------
    def note_data_change(self, table: Optional[str]) -> None:
        """Bump the write version of ``table`` (None = unknown target)."""
        with self._lock:
            key = table if table is not None else "*"
            self._write_versions[key] = self._write_versions.get(key, 0) + 1
            self._writes_total += 1

    def read_validity(self, tables) -> int:
        """A token that changes whenever any of ``tables`` may have
        changed (the wildcard observes every write)."""
        with self._lock:
            if "*" in tables:
                return self._writes_total
            return self._write_versions.get("*", 0) + sum(
                self._write_versions.get(table, 0) for table in tables
            )

    # -- uncommitted-write marks ---------------------------------------
    def mark_uncommitted(self, table: Optional[str]) -> None:
        with self._lock:
            self._uncommitted[table] = self._uncommitted.get(table, 0) + 1

    def clear_uncommitted(self, table: Optional[str]) -> None:
        with self._lock:
            count = self._uncommitted.get(table, 0) - 1
            if count > 0:
                self._uncommitted[table] = count
            else:
                self._uncommitted.pop(table, None)

    def has_uncommitted_writes(self, tables) -> bool:
        """Is any of ``tables`` under an open transaction's write?"""
        with self._lock:
            if not self._uncommitted:
                return False
            if None in self._uncommitted or "*" in tables:
                return True
            return any(table in self._uncommitted for table in tables)


@dataclass
class ServerStats:
    statements_executed: int = 0
    writes_executed: int = 0
    peak_concurrency: int = 0
    statements_prepared: int = 0
    #: Set-oriented batch calls that took the demux path (one statement
    #: execution answered the whole batch).
    batched_calls: int = 0
    #: Total binding sets answered by those demuxed calls.
    batched_bindings: int = 0
    #: Per-statement passes the demux path avoided: each batched call
    #: pays one scan/statement instead of one per binding.
    scans_saved: int = 0
    #: Prepared statements swept from the bounded plan cache (LRU).
    evictions: int = 0


class PreparedStatement:
    """Server-side prepared statement (parse + plan done once).

    ``origin`` is the backend that prepared it: the submission pipeline
    re-prepares a statement handed to a connection on a *different*
    backend, and the dispatch coalescer keys batches by it so coalesced
    reads never execute against the wrong store.
    """

    __slots__ = ("statement_id", "sql", "ast", "plan", "catalog_version", "origin")

    def __init__(
        self,
        statement_id: int,
        sql: str,
        ast: Statement,
        plan,
        version: int,
        origin=None,
    ) -> None:
        self.statement_id = statement_id
        self.sql = sql
        self.ast = ast
        self.plan = plan
        self.catalog_version = version
        self.origin = origin


class Backend:
    """Base class for executable statement stores.

    The base owns everything a statement goes through between the client
    and the engine, identically for every store:

    * ``prepare`` / ``prepared`` / ``invalidate_plans`` over a bounded LRU
      of prepared statements (``max_prepared``);
    * ``submit`` / ``submit_prepared`` / ``submit_prepared_batch``
      (Futures) on a ``server_workers``-sized pool and
      ``begin_transaction``, behind one shutdown guard;
    * the write path's cache bookkeeping (mark uncommitted, bump the
      version, execute, broadcast at autocommit), strict-2PL table
      locks, DDL re-planning, peak concurrency and :class:`ServerStats`;
    * the set-oriented batch: a demuxable SELECT answered by one
      statement execution, anything else per binding;
    * ``stats`` / ``stats_snapshot()`` / ``shutdown(wait=)`` /
      ``is_shutdown``, the ``profile`` / ``meter`` / ``catalog``
      properties and the :class:`CacheInvalidationLedger` (``ledger``).

    A store passes its catalog, profile and meter to ``__init__``, adopts
    a transaction manager with :meth:`_use_transactions` and implements
    the engine-specific hooks::

        _run_statement(prepared, params, txn, executor, exec_span)
            -> QueryResult
        _demux_select(prepared, bindings, txn, executor, exec_span)
            -> List[BindingOutcome]
        _plan(sql, ast) -> PreparedStatement        (optional)
        _write_batch(prepared, bindings) -> outcomes or None  (optional)
    """

    #: Engine kinds a statement may run under.  Both engines exist only
    #: in the in-memory backend; DB-API backends accept the same values
    #: (connection-level selection must not depend on the store) and
    #: execute however the real engine pleases.
    EXECUTORS = ("row", "columnar")

    #: Short selectable name (a :data:`BACKENDS` member).
    backend_name = "abstract"

    #: Default cap on the prepared-statement cache.  Generous: a real
    #: application's distinct statement texts number in the hundreds;
    #: the cap exists so a query-text generator (or an ORM emitting
    #: literals) cannot grow server memory without bound.
    DEFAULT_MAX_PREPARED = 512

    #: Thread-name prefix of the worker pool.
    worker_prefix = "worker"

    def __init__(
        self,
        catalog: Catalog,
        profile: LatencyProfile,
        meter: LatencyMeter,
        max_prepared: int = DEFAULT_MAX_PREPARED,
        default_executor: Optional[str] = None,
    ) -> None:
        if max_prepared < 1:
            raise ValueError(f"max_prepared must be >= 1, got {max_prepared}")
        self.ledger = CacheInvalidationLedger()
        if default_executor is None:
            # The vectorized engine is the default; REPRO_EXECUTOR=row
            # flips a whole process (the CI matrix runs both).
            default_executor = (
                os.environ.get("REPRO_EXECUTOR", "").strip() or "columnar"
            )
        if default_executor not in self.EXECUTORS:
            raise ValueError(
                f"unknown executor {default_executor!r} "
                f"(expected one of {self.EXECUTORS})"
            )
        self.default_executor = default_executor
        self._catalog = catalog
        self._profile = profile
        self._meter = meter
        self._planner = Planner(catalog)
        self._pool = ThreadPoolExecutor(
            max_workers=profile.server_workers,
            thread_name_prefix=f"{self.worker_prefix}-{profile.name}",
        )
        self._lock = threading.Lock()
        self.max_prepared = max_prepared
        self._prepared: Dict[int, PreparedStatement] = {}
        self._plan_cache: "OrderedDict[str, PreparedStatement]" = OrderedDict()
        self._statement_ids = itertools.count(1)
        self._catalog_version = 0
        self._active = 0
        self._shutdown = False
        self.stats = ServerStats()

    def _use_transactions(self, txns: TransactionManager) -> None:
        """Adopt the store's transaction manager: commit broadcasts,
        rollback bumps versions and lock release clears uncommitted
        marks, all through the ledger."""
        txns.invalidation_hook = self.ledger.broadcast_invalidation
        txns.data_change_hook = self.ledger.note_data_change
        txns.release_hook = self.ledger.clear_uncommitted
        self.txns = txns

    @property
    def profile(self) -> LatencyProfile:
        return self._profile

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    @property
    def meter(self) -> LatencyMeter:
        return self._meter

    # ------------------------------------------------------------------
    # executor-kind validation
    # ------------------------------------------------------------------
    def resolve_executor(self, executor: Optional[str]) -> str:
        """Validate an executor kind, defaulting to the backend's."""
        if executor is None:
            return self.default_executor
        if executor not in self.EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r} "
                f"(expected one of {self.EXECUTORS})"
            )
        return executor

    # ------------------------------------------------------------------
    # preparation
    # ------------------------------------------------------------------
    def prepare(self, sql: str) -> PreparedStatement:
        """Parse and plan ``sql``, caching by text.

        The cache is a bounded LRU (``max_prepared``): preparing past
        the cap sweeps the least-recently-used entries and counts an
        eviction.  Eviction never invalidates a handed-out
        :class:`PreparedStatement` — the object carries its own plan, so
        ``submit_prepared`` keeps working on a swept statement; only a
        later ``prepare`` of the same text pays a re-plan.
        """
        with self._lock:
            cached = self._plan_cache.get(sql)
            if cached is not None and cached.catalog_version == self._catalog_version:
                self._plan_cache.move_to_end(sql)
                return cached
        prepared = self._plan(sql, parse(sql))
        with self._lock:
            previous = self._plan_cache.get(sql)
            if previous is not None:
                if previous.catalog_version == self._catalog_version:
                    # A concurrent prepare of the same text won the
                    # race while we were planning: keep its entry (and
                    # its already handed-out statement_id), drop ours.
                    self._plan_cache.move_to_end(sql)
                    return previous
                # Stale (catalog changed): the replaced entry's id slot
                # goes with it; the old object stays usable by holders.
                self._prepared.pop(previous.statement_id, None)
            prepared.statement_id = next(self._statement_ids)
            prepared.catalog_version = self._catalog_version
            self._prepared[prepared.statement_id] = prepared
            self._plan_cache[sql] = prepared
            self._plan_cache.move_to_end(sql)
            self.stats.statements_prepared += 1
            while len(self._plan_cache) > self.max_prepared:
                _sql, evicted = self._plan_cache.popitem(last=False)
                self._prepared.pop(evicted.statement_id, None)
                self.stats.evictions += 1
        return prepared

    def _plan(self, sql: str, ast: Statement) -> PreparedStatement:
        """Plan a parsed statement (store hook); :meth:`prepare` numbers
        and versions the result."""
        return PreparedStatement(0, sql, ast, self._planner.plan(ast), 0, self)

    def prepared(self, statement_id: int) -> PreparedStatement:
        with self._lock:
            try:
                return self._prepared[statement_id]
            except KeyError:
                raise StatementHandleError(
                    f"unknown prepared statement id {statement_id}"
                ) from None

    def invalidate_plans(self) -> None:
        """Force re-planning (called after out-of-band DDL)."""
        with self._lock:
            self._catalog_version += 1
        # Out-of-band DDL changes schema underneath every cached result.
        self.ledger.broadcast_invalidation(None)

    def _current(self, prepared: PreparedStatement) -> PreparedStatement:
        """``prepared``, re-planned if DDL moved the catalog since."""
        with self._lock:
            stale = prepared.catalog_version != self._catalog_version
        return self.prepare(prepared.sql) if stale else prepared

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def _require_running(self) -> None:
        with self._lock:
            if self._shutdown:
                raise ServerShutdownError("server is shut down")

    def _submit(self, run, *args) -> Future:
        """Hand ``run(*args)`` to the worker pool behind the shutdown
        guard.  A shutdown landing between the check and the hand-off
        makes the pool refuse; that refusal is the same error."""
        self._require_running()
        try:
            return self._pool.submit(run, *args)
        except RuntimeError:
            if self.is_shutdown:
                raise ServerShutdownError("server is shut down") from None
            raise

    def submit(
        self,
        sql: str,
        params: Sequence = (),
        txn: Optional[Transaction] = None,
        executor: Optional[str] = None,
    ) -> "Future[QueryResult]":
        """Queue a statement for execution; returns a Future."""
        executor = self.resolve_executor(executor)
        return self._submit(self._run_sql, sql, tuple(params), txn, executor)

    def submit_prepared(
        self,
        prepared: PreparedStatement,
        params: Sequence = (),
        txn: Optional[Transaction] = None,
        span=None,
        executor: Optional[str] = None,
    ) -> "Future[QueryResult]":
        """Queue a prepared statement; ``span`` (the client's dispatch
        span, when tracing) parents the worker's ``server.execute``.
        ``executor`` picks the engine ("row"/"columnar"; None = server
        default)."""
        executor = self.resolve_executor(executor)
        return self._submit(
            self._run_prepared, prepared, tuple(params), txn, span, executor
        )

    def submit_prepared_batch(
        self,
        prepared: PreparedStatement,
        bindings: Sequence[Sequence],
        txn: Optional[Transaction] = None,
        span=None,
        executor: Optional[str] = None,
    ) -> "Future[List[BindingOutcome]]":
        """Set-oriented execution: one statement over N binding sets.

        For a demuxable plan (any SELECT) the whole batch is answered by
        a *single* statement execution (:meth:`_demux_select`);
        ``ServerStats`` counts it under ``batched_calls`` /
        ``batched_bindings`` / ``scans_saved``.  Non-demuxable statements
        (writes, DDL) fall back to per-binding execution with full
        per-statement semantics, including write invalidation
        broadcasts, unless the store writes the batch in one call
        (:meth:`_write_batch`).

        The future resolves to one outcome per binding, in order: the
        binding's :class:`QueryResult`, or the exception that binding
        raised — a bad binding faults only its own slot, never the
        batch.  No network charge is made here; the client (or the
        dispatch coalescer) pays one round trip for the whole batch.
        """
        executor = self.resolve_executor(executor)
        snapshot = [tuple(binding) for binding in bindings]
        return self._submit(
            self._run_prepared_batch, prepared, snapshot, txn, span, executor
        )

    def begin_transaction(self) -> Transaction:
        """Start an explicit transaction (strict 2PL; see repro.db.txn)."""
        self._require_running()
        return self.txns.begin()

    # ------------------------------------------------------------------
    # execution (on pool threads)
    # ------------------------------------------------------------------
    def _run_sql(
        self,
        sql: str,
        params: tuple,
        txn: Optional[Transaction] = None,
        executor: Optional[str] = None,
    ) -> QueryResult:
        return self._run_prepared(self.prepare(sql), params, txn, executor=executor)

    def _run_prepared(
        self,
        prepared: PreparedStatement,
        params: tuple,
        txn: Optional[Transaction] = None,
        span=None,
        executor: Optional[str] = None,
    ) -> QueryResult:
        return self._traced(
            span, self._execute_prepared, prepared, params, txn, executor
        )

    @staticmethod
    def _traced(span, run, prepared: PreparedStatement, *args, **attrs):
        """``run(prepared, *args, exec_span)`` under a ``server.execute``
        child of ``span`` (None when not tracing) that records errors."""
        exec_span = (
            span.child(
                "server.execute", statement_id=prepared.statement_id, **attrs
            )
            if span is not None
            else None
        )
        try:
            return run(prepared, *args, exec_span)
        except BaseException as exc:
            if exec_span is not None:
                exec_span.set("error", repr(exc))
            raise
        finally:
            if exec_span is not None:
                exec_span.end()

    def _execute_prepared(
        self,
        prepared: PreparedStatement,
        params: tuple,
        txn: Optional[Transaction],
        executor: Optional[str],
        exec_span=None,
    ) -> QueryResult:
        executor = self.resolve_executor(executor)
        prepared = self._current(prepared)
        if txn is not None:
            self._lock_for_txn(txn, prepared.ast)
        write = is_write(prepared.ast)
        table = getattr(prepared.ast, "table", None) if write else None
        if write:
            self._note_write(table, txn)
        self._enter()
        try:
            result = self._run_statement(
                prepared, params, txn, executor, exec_span
            )
            if exec_span is not None:
                exec_span.set("write", write)
                exec_span.set("executor", executor)
                rows = getattr(result, "rowcount", None)
                if rows is not None:
                    exec_span.set("rows", rows)
            with self._lock:
                self.stats.statements_executed += 1
                if write:
                    self.stats.writes_executed += 1
                    if isinstance(
                        prepared.ast, (CreateTableStmt, CreateIndexStmt)
                    ):
                        self._catalog_version += 1
            if write and txn is None:
                # Server-side invalidation: the write path is the one
                # place every mutation passes through, so caches stay
                # correct no matter which connection wrote.  Inside a
                # transaction the broadcast is deferred to commit (a
                # rolled-back write never invalidates); the pre-execute
                # version bump and uncommitted mark keep reads that
                # overlap the open write window out of the cache.
                self.ledger.broadcast_invalidation(table)
            return result
        finally:
            self._leave()

    def _run_prepared_batch(
        self,
        prepared: PreparedStatement,
        bindings: List[tuple],
        txn: Optional[Transaction] = None,
        span=None,
        executor: Optional[str] = None,
    ) -> List[BindingOutcome]:
        if not bindings:
            return []
        executor = self.resolve_executor(executor)
        prepared = self._current(prepared)
        if demuxable(prepared.plan):
            return self._traced(
                span,
                self._execute_demux,
                prepared,
                bindings,
                txn,
                executor,
                demux=True,
                bindings=len(bindings),
            )
        if txn is None:
            outcomes = self._write_batch(prepared, bindings)
            if outcomes is not None:
                return outcomes
        # Per-binding fallback: each binding keeps the exact
        # single-statement semantics (stats, locks, invalidation
        # broadcasts, undo recording) — only the transport batched.
        # Each binding hangs its own server.execute span under the
        # batch's dispatch span.
        return self._per_binding(
            bindings,
            lambda binding: self._run_prepared(
                prepared, binding, txn, span, executor
            ),
        )

    def _execute_demux(
        self,
        prepared: PreparedStatement,
        bindings: List[tuple],
        txn: Optional[Transaction],
        executor: str,
        exec_span=None,
    ) -> List[BindingOutcome]:
        if txn is not None:
            self._lock_for_txn(txn, prepared.ast)
        self._enter()
        try:
            outcomes = self._demux_select(
                prepared, bindings, txn, executor, exec_span
            )
            with self._lock:
                # One statement execution answered the whole batch.
                self.stats.statements_executed += 1
                self.stats.batched_calls += 1
                self.stats.batched_bindings += len(bindings)
                self.stats.scans_saved += len(bindings) - 1
            return outcomes
        finally:
            self._leave()

    @staticmethod
    def _per_binding(bindings: List[tuple], run) -> List[BindingOutcome]:
        """``run(binding)`` per binding; an exception fills only its own
        slot."""
        outcomes: List[BindingOutcome] = []
        for binding in bindings:
            try:
                outcomes.append(run(binding))
            except Exception as exc:
                outcomes.append(exc)
        return outcomes

    def _note_write(
        self, table: Optional[str], txn: Optional[Transaction]
    ) -> None:
        """Cache bookkeeping for one write, run BEFORE the mutation:
        non-txn reads take no table locks, so a concurrent cached read
        could otherwise observe the new data in the window before the
        mark/bump and retain it past a rollback.  Mark-then-bump pairs
        with the reader's token-then-check order: a write landing
        between the reader's two steps is caught by one or the other,
        never missed by both."""
        if txn is not None and txn.note_write(table):
            self.ledger.mark_uncommitted(table)
        self.ledger.note_data_change(table)

    def _write_rows(self, table: str, count: int, apply) -> bool:
        """Bookkeeping for a store writing ``count`` autocommit rows in
        one call (see :meth:`_write_batch`): the same version bumps,
        counters and broadcast as ``count`` single writes.  ``apply()``
        writes the rows; when it returns False nothing was written."""
        for _ in range(count):
            self._note_write(table, None)
        if not apply():
            return False
        with self._lock:
            self.stats.statements_executed += count
            self.stats.writes_executed += count
        self.ledger.broadcast_invalidation(table)
        return True

    def _enter(self) -> None:
        """Count one statement in flight (and its high-water mark)."""
        with self._lock:
            self._active += 1
            if self._active > self.stats.peak_concurrency:
                self.stats.peak_concurrency = self._active

    def _leave(self) -> None:
        with self._lock:
            self._active -= 1

    def _lock_for_txn(self, txn: Transaction, ast: Statement) -> None:
        """Acquire the statement's table lock under strict 2PL."""
        if isinstance(ast, (CreateTableStmt, CreateIndexStmt)):
            raise TransactionStateError(
                "DDL inside an explicit transaction is not supported"
            )
        table = getattr(ast, "table", None)
        if table is not None:
            self.txns.lock_for_statement(txn, table, write=is_write(ast))

    # ------------------------------------------------------------------
    # store hooks
    # ------------------------------------------------------------------
    def _run_statement(
        self,
        prepared: PreparedStatement,
        params: tuple,
        txn: Optional[Transaction],
        executor: str,
        exec_span=None,
    ) -> QueryResult:
        """Execute one statement against the store."""
        raise NotImplementedError

    def _demux_select(
        self,
        prepared: PreparedStatement,
        bindings: List[tuple],
        txn: Optional[Transaction],
        executor: str,
        exec_span=None,
    ) -> List[BindingOutcome]:
        """Answer a demuxable SELECT for every binding in one execution;
        one outcome (result or exception) per binding, in order."""
        raise NotImplementedError

    def _write_batch(
        self, prepared: PreparedStatement, bindings: List[tuple]
    ) -> Optional[List[BindingOutcome]]:
        """Write an autocommit non-demuxable batch in one call, through
        :meth:`_write_rows`; None falls back to per-binding execution."""
        return None

    # ------------------------------------------------------------------
    # blocking conveniences over the async primitives
    # ------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        params: Sequence = (),
        txn=None,
        executor: Optional[str] = None,
    ):
        """Synchronous execution (still bounded by the worker pool)."""
        return self.submit(sql, params, txn, executor=executor).result()

    def execute_prepared_batch(
        self,
        prepared,
        bindings: Sequence[Sequence],
        txn=None,
        executor: Optional[str] = None,
    ) -> List:
        """Blocking set-oriented execution: one statement over N binding
        sets; one outcome (result or exception) per binding, in order."""
        return self.submit_prepared_batch(
            prepared, bindings, txn, executor=executor
        ).result()

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> Dict[str, object]:
        """Every server counter as one plain dict (taken under the
        server lock, so batched_* never tears against scans_saved)."""
        with self._lock:
            snap = dict(asdict(self.stats))
            snap["prepared_cached"] = len(self._plan_cache)
            snap["registered_caches"] = self.ledger.cache_count
            snap["active"] = self._active
        return snap

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            self._shutdown = True
        self._pool.shutdown(wait=wait)

    @property
    def is_shutdown(self) -> bool:
        with self._lock:
            return self._shutdown
