"""The simulated database server: the in-memory store behind Backend.

Statement handling — the prepared-statement cache, the
``server_workers`` pool, the write path's cache bookkeeping, the batch
skeleton and the stats — is :class:`repro.backends.base.Backend`'s.
This module adds what is specific to the latency-modeled engine: each
statement runs its plan in an :class:`ExecutionContext` that charges
simulated network, CPU and disk time, and a demuxable batch runs the
binding-demultiplex operator.  Every execution runs on one of
``server_workers`` pool threads; submissions beyond the pool size queue
up, which is what produces the thread-count plateau in the paper's
Figures 9, 10, 13 and 15: client threads beyond the server's effective
parallelism stop helping.
"""

from __future__ import annotations

from typing import List, Optional

from ..backends.base import Backend, PreparedStatement, ServerStats
from .buffer import BufferPool
from .catalog import Catalog
from .latency import LatencyMeter, LatencyProfile
from .plan import BindingOutcome, ExecutionContext, QueryResult, execute_batch_select
from .scans import SharedScanManager
from .txn import Transaction, TransactionManager

__all__ = ["DatabaseServer", "PreparedStatement", "ServerStats"]


class DatabaseServer(Backend):
    """Executes SQL against one catalog with simulated costs.

    This is the default (``"memory"``) :class:`repro.backends.base.Backend`
    — and, because every cost is simulated and every semantic choice is
    spelled out in the engine, the differential-test *oracle* other
    backends are diffed against."""

    backend_name = "memory"
    worker_prefix = "dbworker"

    #: Selectivity histogram buckets (fraction of a batch's candidate
    #: rows surviving the filter).
    SELECTIVITY_BOUNDS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 0.75, 0.9, 1.0)

    def __init__(
        self,
        catalog: Catalog,
        buffer: BufferPool,
        scans: SharedScanManager,
        profile: LatencyProfile,
        meter: LatencyMeter,
        max_prepared: int = Backend.DEFAULT_MAX_PREPARED,
        metrics=None,
        default_executor: Optional[str] = None,
    ) -> None:
        super().__init__(
            catalog,
            profile,
            meter,
            max_prepared=max_prepared,
            default_executor=default_executor,
        )
        #: Scan instruments in the database-wide metrics registry (the
        #: per-batch counters the columnar executor reports).  None when
        #: the database attached no registry.
        self._scan_batches = self._scan_rows = self._scan_selectivity = None
        if metrics is not None:
            self._scan_batches = metrics.counter("scan.batches")
            self._scan_rows = metrics.counter("scan.rows_scanned")
            self._scan_selectivity = metrics.histogram(
                "scan.selectivity", bounds=self.SELECTIVITY_BOUNDS
            )
        self._buffer = buffer
        self._scans = scans
        self._use_transactions(TransactionManager(catalog))

    # ------------------------------------------------------------------
    # execution hooks
    # ------------------------------------------------------------------
    def _context(
        self, params: tuple, txn: Optional[Transaction], executor: str
    ) -> ExecutionContext:
        return ExecutionContext(
            catalog=self._catalog,
            buffer=self._buffer,
            scans=self._scans,
            profile=self._profile,
            meter=self._meter,
            params=params,
            txn=txn,
            executor=executor,
        )

    def _run_statement(
        self,
        prepared: PreparedStatement,
        params: tuple,
        txn: Optional[Transaction],
        executor: str,
        exec_span=None,
    ) -> QueryResult:
        ctx = self._context(params, txn, executor)
        result = prepared.plan.execute(ctx)
        self._finish(ctx, exec_span)
        return result

    def _demux_select(
        self,
        prepared: PreparedStatement,
        bindings: List[tuple],
        txn: Optional[Transaction],
        executor: str,
        exec_span=None,
    ) -> List[BindingOutcome]:
        """One execution of the binding-demultiplex operator
        (:mod:`repro.db.plan.demux`): one lock acquisition, one fixed
        CPU charge, one scan (or one index probe per distinct
        binding)."""
        ctx = self._context((), txn, executor)
        outcomes = execute_batch_select(
            prepared.plan, ctx, bindings, span=exec_span
        )
        self._finish(ctx, exec_span)
        return outcomes

    def _finish(self, ctx: ExecutionContext, exec_span) -> None:
        """Charge the statement's CPU and fold its per-batch scan
        accounting into the database-wide metrics registry (no-op
        without one, or when the statement ran row-at-a-time and
        produced no batches)."""
        ctx.flush_cpu()
        if not ctx.scan_batches:
            return
        if exec_span is not None:
            exec_span.set("scan_batches", ctx.scan_batches)
        if self._scan_batches is None:
            return
        self._scan_batches.inc(ctx.scan_batches)
        self._scan_rows.inc(ctx.scan_rows)
        for selectivity in ctx.scan_selectivities:
            self._scan_selectivity.observe(selectivity)
