"""Unit tests: server worker pool, prepared statements, shutdown.

The store-contract classes run against the in-memory server and, through
their ``...Sqlite`` subclasses, against the sqlite store: the class
attribute ``store`` picks which one the ``server`` fixture returns.
"""

import threading
import time

import pytest

from repro.db import Database, INSTANT, SYS1
from repro.db.errors import ServerShutdownError, StatementHandleError
from repro.db.latency import LatencyProfile


@pytest.fixture
def loaded(db):
    db.create_table("t", ("id", "int"), ("v", "int"))
    db.bulk_load("t", [(i, i) for i in range(50)])
    return db


@pytest.fixture
def server(request, loaded):
    """The store under test, named by the test class's ``store``."""
    return loaded.backend(request.cls.store)


class TestPreparedStatements:
    store = "memory"

    def test_prepare_caches_by_text(self, server):
        first = server.prepare("SELECT v FROM t WHERE id = ?")
        second = server.prepare("SELECT v FROM t WHERE id = ?")
        assert first is second

    def test_execute_prepared(self, server):
        prepared = server.prepare("SELECT v FROM t WHERE id = ?")
        assert server.submit_prepared(prepared, (7,)).result().scalar() == 7

    def test_prepared_lookup_by_id(self, server):
        prepared = server.prepare("SELECT v FROM t WHERE id = ?")
        assert server.prepared(prepared.statement_id) is prepared

    def test_unknown_statement_id(self, server):
        with pytest.raises(StatementHandleError):
            server.prepared(424242)

    def test_stale_plan_replanned_after_ddl(self, server):
        prepared = server.prepare("SELECT v FROM t WHERE id = ?")
        server.execute("CREATE INDEX ix ON t (id)")
        # Executing the stale handle still works (it re-prepares).
        assert server.submit_prepared(prepared, (3,)).result().scalar() == 3


class TestPreparedStatementsSqlite(TestPreparedStatements):
    store = "sqlite"


class TestConcurrency:
    store = "memory"

    def test_worker_pool_limits_concurrency(self):
        profile = LatencyProfile(
            name="tiny",
            network_rtt_s=0.0,
            send_overhead_s=0.0,
            cpu_fixed_s=0.02,  # 20ms per statement: long enough to overlap
            cpu_per_row_s=0.0,
            disk_seek_min_s=0.0,
            disk_seek_per_page_s=0.0,
            disk_seek_max_s=0.0,
            disk_sequential_s=0.0,
            disk_spindles=1,
            server_workers=2,
            buffer_pool_pages=16,
        )
        db = Database(profile)
        try:
            db.create_table("t", ("id", "int"))
            db.bulk_load("t", [(1,)])
            store = db.backend(self.store)
            futures = [
                store.submit("SELECT count(*) FROM t") for _ in range(6)
            ]
            for future in futures:
                assert future.result().scalar() == 1
            assert store.stats.peak_concurrency <= store.profile.server_workers
        finally:
            db.close()

    def test_parallel_queries_from_many_threads(self, server):
        errors = []

        def worker():
            try:
                for i in range(20):
                    value = server.execute(
                        "SELECT v FROM t WHERE id = ?", (i % 50,)
                    ).scalar()
                    assert value == i % 50
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_concurrent_inserts_all_land(self, db):
        db.create_table("t", ("id", "int"))
        store = db.backend(self.store)

        def worker(base):
            for i in range(25):
                store.execute("INSERT INTO t VALUES (?)", (base + i,))

        threads = [threading.Thread(target=worker, args=(i * 25,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.execute("SELECT count(*) FROM t").scalar() == 100
        ids = store.execute("SELECT count(DISTINCT id) FROM t").scalar()
        assert ids == 100


class TestConcurrencySqlite(TestConcurrency):
    store = "sqlite"


class TestShutdown:
    store = "memory"

    def test_submit_after_shutdown_rejected(self, server):
        server.shutdown()
        with pytest.raises(ServerShutdownError):
            server.submit("SELECT count(*) FROM t")

    def test_is_shutdown_flag(self, server):
        assert not server.is_shutdown
        server.shutdown()
        assert server.is_shutdown

    @pytest.mark.parametrize("submit", ["submit", "submit_prepared_batch"])
    def test_shutdown_between_check_and_handoff(self, server, monkeypatch, submit):
        # Force the interleaving: shutdown lands after the submit passed
        # its shutdown check but before the pool accepts the work.
        pool_submit = server._pool.submit

        def racing_submit(*args, **kwargs):
            server.shutdown(wait=False)
            return pool_submit(*args, **kwargs)

        monkeypatch.setattr(server._pool, "submit", racing_submit)
        sql = "SELECT v FROM t WHERE id = ?"
        with pytest.raises(ServerShutdownError):
            if submit == "submit":
                server.submit(sql, (1,))
            else:
                server.submit_prepared_batch(server.prepare(sql), [(1,)])


class TestShutdownSqlite(TestShutdown):
    store = "sqlite"


class TestStats:
    store = "memory"

    def test_statement_counters(self, server):
        before = server.stats.statements_executed
        server.execute("SELECT count(*) FROM t")
        server.execute("INSERT INTO t VALUES (999, 1)")
        assert server.stats.statements_executed == before + 2
        assert server.stats.writes_executed >= 1

    def test_io_report_shape(self, loaded):
        loaded.server.execute("SELECT count(*) FROM t")
        report = loaded.io_report()
        assert set(report) == {"latency_totals_s", "buffer", "disk", "scans", "server"}
        assert report["server"]["executed"] >= 1


class TestStatsSqlite(TestStats):
    store = "sqlite"
    #: The database's I/O report covers the in-memory server only.
    test_io_report_shape = None


def test_stats_snapshot_keys_match_across_stores(loaded):
    memory = loaded.backend("memory").stats_snapshot()
    sqlite = loaded.backend("sqlite").stats_snapshot()
    assert set(memory) == set(sqlite)


class TestDatabaseFacade:
    def test_context_manager(self):
        with Database(INSTANT) as db:
            db.create_table("t", ("a", "int"))
            db.bulk_load("t", [(1,)])
            assert db.server.execute("SELECT count(*) FROM t").scalar() == 1

    def test_flush_and_warm(self, loaded):
        loaded.server.execute("SELECT count(*) FROM t")
        loaded.flush_cache()
        loaded.reset_stats()
        loaded.server.execute("SELECT count(*) FROM t")
        misses_cold = loaded.buffer.stats.misses
        assert misses_cold > 0
        loaded.warm_table("t")
        loaded.reset_stats()
        loaded.server.execute("SELECT count(*) FROM t")
        assert loaded.buffer.stats.misses == 0
