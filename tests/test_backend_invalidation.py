"""Invalidation equivalence across backends (satellite of the
pluggable-backend PR; see docs/BACKENDS.md).

Every backend owns a :class:`CacheInvalidationLedger`; a
:class:`ResultCache` attached to a connection registers with the
backend the connection talks to.  These tests pin the contract:

* an autocommit write invalidates the same entries whether the store
  is the in-memory engine or SQLite;
* transactional writes broadcast **only at commit** — rollback never
  broadcasts (entries survive, though validity tokens still move);
* uncommitted writes bypass the cache (no stale publish, no false hit);
* ledgers are per-backend: a write through one store does not
  invalidate caches registered with another.
"""

import pytest

from repro.backends import BACKENDS
from repro.db import INSTANT, Database
from repro.prefetch.cache import ResultCache

READ = "SELECT v FROM t WHERE id = ?"
BUMP = "UPDATE t SET v = v + 1 WHERE id = ?"


def seeded_db():
    db = Database(INSTANT)
    db.create_table("t", ("id", "int"), ("v", "int"))
    db.create_table("u", ("id", "int"))
    db.bulk_load("t", [(i, i * 10) for i in range(5)])
    db.bulk_load("u", [(1,)])
    db.backend("sqlite")
    return db


@pytest.mark.parametrize("name", BACKENDS)
class TestAutocommitInvalidation:
    def test_write_invalidates_read_entry(self, name):
        db = seeded_db()
        try:
            cache = ResultCache()
            with db.connect(
                async_workers=1, result_cache=cache, backend=name
            ) as conn:
                assert conn.execute_query(READ, (1,)).scalar() == 10
                assert conn.execute_query(READ, (1,)).scalar() == 10
                assert cache.stats.hits == 1
                conn.execute_update(BUMP, (1,))
                assert cache.stats.invalidations >= 1
                assert conn.execute_query(READ, (1,)).scalar() == 11
        finally:
            db.close()

    def test_unrelated_table_write_keeps_entry(self, name):
        db = seeded_db()
        try:
            cache = ResultCache()
            with db.connect(
                async_workers=1, result_cache=cache, backend=name
            ) as conn:
                conn.execute_query(READ, (2,))
                conn.execute_update("INSERT INTO u VALUES (9)")
                assert cache.stats.invalidations == 0
                conn.execute_query(READ, (2,))
                assert cache.stats.hits == 1
        finally:
            db.close()

    def test_cacheless_writer_invalidates_too(self, name):
        # The ledger lives server-side: ANY connection to the same
        # backend invalidates, not just the one holding the cache.
        db = seeded_db()
        try:
            cache = ResultCache()
            reader = db.connect(
                async_workers=1, result_cache=cache, backend=name
            )
            writer = db.connect(async_workers=1, backend=name)
            with reader, writer:
                assert reader.execute_query(READ, (3,)).scalar() == 30
                writer.execute_update(BUMP, (3,))
                assert cache.stats.invalidations >= 1
                assert reader.execute_query(READ, (3,)).scalar() == 31
        finally:
            db.close()


@pytest.mark.parametrize("name", BACKENDS)
class TestCommitBoundary:
    def test_broadcast_happens_only_at_commit(self, name):
        db = seeded_db()
        try:
            store = db.backend(name)
            cache = ResultCache()
            reader = db.connect(
                async_workers=1, result_cache=cache, backend=name
            )
            writer = db.connect(async_workers=1, backend=name)
            with reader, writer:
                reader.execute_query(READ, (1,))
                writer.begin()
                writer.execute_update(BUMP, (1,))
                # Uncommitted: marked, visible to the validity check,
                # but no broadcast yet.
                assert store.ledger.has_uncommitted_writes(["t"])
                assert cache.stats.invalidations == 0
                writer.commit()
                assert not store.ledger.has_uncommitted_writes(["t"])
                assert cache.stats.invalidations >= 1
                assert reader.execute_query(READ, (1,)).scalar() == 11
        finally:
            db.close()

    def test_rollback_never_broadcasts(self, name):
        db = seeded_db()
        try:
            store = db.backend(name)
            cache = ResultCache()
            reader = db.connect(
                async_workers=1, result_cache=cache, backend=name
            )
            writer = db.connect(async_workers=1, backend=name)
            with reader, writer:
                assert reader.execute_query(READ, (2,)).scalar() == 20
                token = store.ledger.read_validity(["t"])
                writer.begin()
                writer.execute_update(BUMP, (2,))
                writer.rollback()
                assert not store.ledger.has_uncommitted_writes(["t"])
                # No broadcast — the entry survives and still serves
                # the (correct, restored) value...
                assert cache.stats.invalidations == 0
                assert reader.execute_query(READ, (2,)).scalar() == 20
                assert cache.stats.hits >= 1
                # ...but validity tokens moved, so any result computed
                # DURING the doomed transaction cannot publish.
                assert store.ledger.read_validity(["t"]) != token
        finally:
            db.close()

    def test_uncommitted_writes_bypass_cache(self, name):
        db = seeded_db()
        try:
            store = db.backend(name)
            cache = ResultCache()
            reader = db.connect(
                async_workers=1, result_cache=cache, backend=name
            )
            writer = db.connect(async_workers=1, backend=name)
            with reader, writer:
                reader.execute_query(READ, (4,))
                hits_before = cache.stats.hits
                writer.begin()
                writer.execute_update(BUMP, (4,))
                # While table t has uncommitted writes, cached reads of
                # it neither hit nor publish.
                reader.execute_query(READ, (4,))
                assert cache.stats.hits == hits_before
                writer.rollback()
                reader.execute_query(READ, (4,))
                assert cache.stats.hits == hits_before + 1
        finally:
            db.close()


class TestLedgerIsolation:
    def test_ledgers_are_per_backend(self):
        # The stores hold independent copies of the data after seeding;
        # a write through one must not shoot down entries keyed to the
        # other's contents.
        db = seeded_db()
        try:
            cache = ResultCache()
            lite = db.connect(
                async_workers=1, result_cache=cache, backend="sqlite"
            )
            mem = db.connect(async_workers=1, backend="memory")
            with lite, mem:
                lite.execute_query(READ, (0,))
                mem.execute_update(BUMP, (0,))
                assert cache.stats.invalidations == 0
                lite.execute_query(READ, (0,))
                assert cache.stats.hits == 1
                lite.execute_update(BUMP, (0,))
                assert cache.stats.invalidations >= 1
        finally:
            db.close()

    def test_register_cache_counts_per_backend(self):
        db = seeded_db()
        try:
            cache = ResultCache()
            with db.connect(
                async_workers=1, result_cache=cache, backend="sqlite"
            ):
                assert db.backend("sqlite").ledger.cache_count == 1
                assert db.backend("memory").ledger.cache_count == 0
        finally:
            db.close()
