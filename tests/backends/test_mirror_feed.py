"""Mirrors follow the change feed.

A backend attached to a database consumes that database's feed through
an ephemeral group: a sync applies the polled change records as one
delete-by-tid batch and one insert batch per relation, and copies a
relation whole only when the records cannot bring its mirror up to
date.  The property suite checks the one invariant that matters -- the
mirror equals native storage after every sync, tids included -- on
generated DML streams mixed with every rebuild trigger: DDL, CREATE
INDEX, mutations that bypass the feed (``Table.restore``,
``Table.apply_changes``, a suspended feed) and lost history.  Both
mirror layouts run (tids in SQLite's ``rowid``, and DuckDB's explicit
``_tid`` column).
"""

from __future__ import annotations

import gc
import itertools
import os
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import SQLiteBackend, mirror
from repro.engine.database import Database
from repro.engine.feed import ChangeFeed
from repro.errors import BackendError

SCHEMA = "(a INTEGER, b INTEGER)"


def mirror_rows(backend, name):
    """The mirror's rows as ``(tid, a, b)``, tid order."""
    rows = backend.connection.execute(
        f"SELECT {backend.tid_column}, a, b FROM {name}"
    ).fetchall()
    return sorted(tuple(row) for row in rows)


def native_rows(db, name):
    return sorted((tid,) + row for tid, row in db.catalog.table(name).items())


def mirror_tables(backend):
    rows = backend.connection.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table'"
    ).fetchall()
    return sorted(row[0] for row in rows)


def mirror_index_count(backend, name):
    (count,) = backend.connection.execute(
        "SELECT count(*) FROM sqlite_master WHERE type = 'index'"
        " AND tbl_name = ?",
        (name,),
    ).fetchone()
    return count


def assert_mirror_equal(db, backend):
    names = sorted(table.schema.name.lower() for table in db.catalog)
    assert mirror_tables(backend) == names
    for name in names:
        assert mirror_rows(backend, name) == native_rows(db, name), name
        indexes = len(db.catalog.table(name).indexed_column_sets())
        if not backend.tid_is_rowid:
            indexes += 1  # the explicit tid column's own index
        assert mirror_index_count(backend, name) == indexes, name


def counting_rebuilds(backend, monkeypatch):
    calls = []
    original = backend._rebuild_mirror

    def counting(conn, table):
        calls.append(table.schema.name)
        original(conn, table)

    monkeypatch.setattr(backend, "_rebuild_mirror", counting)
    return calls


@pytest.fixture
def rs_db():
    db = Database()
    db.execute(f"CREATE TABLE r {SCHEMA}")
    db.execute(f"CREATE TABLE s {SCHEMA}")
    db.execute("CREATE INDEX r_a ON r (a)")
    db.execute("INSERT INTO r VALUES (1, 1), (2, 2), (3, 3)")
    db.execute("INSERT INTO s VALUES (1, 10)")
    # Filler, so a few changed tids stay a small share of each table
    # (a batch touching most of a table rebuilds it).
    db.insert_rows("r", [(key, key) for key in range(1000, 1020)])
    db.insert_rows("s", [(key, key) for key in range(1000, 1010)])
    return db


class TestDeltas:
    def test_dml_is_applied_without_a_rebuild(self, rs_db, mirror_class, monkeypatch):
        backend = mirror_class()
        backend.attach(rs_db)
        backend.sync()
        rebuilt = counting_rebuilds(backend, monkeypatch)
        rs_db.execute("INSERT INTO r VALUES (4, 4)")
        rs_db.execute("UPDATE r SET b = 20 WHERE a = 2")
        rs_db.execute("UPDATE r SET b = 21 WHERE a = 2")  # one tid, twice
        rs_db.execute("DELETE FROM r WHERE a = 1")
        rs_db.execute("INSERT INTO s VALUES (5, 50)")
        rs_db.execute("DELETE FROM s WHERE a = 5")  # in and out again
        backend.sync()
        assert rebuilt == []
        assert_mirror_equal(rs_db, backend)
        backend.close()

    def test_a_batch_touching_most_of_a_table_rebuilds_it(
        self, rs_db, mirror_class, monkeypatch
    ):
        backend = mirror_class()
        backend.attach(rs_db)
        backend.sync()
        rebuilt = counting_rebuilds(backend, monkeypatch)
        size = len(rs_db.catalog.table("r"))
        share = mirror._REBUILD_SHARE
        # Within the share: a delta.
        rs_db.insert_rows("r", [(2000 + key, 0) for key in range(int(share * size))])
        backend.sync()
        assert rebuilt == []
        assert_mirror_equal(rs_db, backend)
        rs_db.execute("UPDATE r SET b = b + 1")  # every row
        rs_db.execute("INSERT INTO s VALUES (7, 70)")
        backend.sync()
        assert rebuilt == ["r"]
        assert_mirror_equal(rs_db, backend)
        rs_db.execute("DELETE FROM r WHERE a >= 1000")  # most rows gone
        backend.sync()
        assert rebuilt == ["r", "r"]
        assert_mirror_equal(rs_db, backend)
        backend.close()

    def test_recreated_table_is_never_served_stale(self, rs_db, mirror_class):
        """A dropped table's successor may reuse its id(); the feed's
        DDL records (and the mirror's weak reference) decide identity."""
        backend = mirror_class()
        backend.attach(rs_db)
        for round_ in range(50):
            backend.sync()
            rs_db.execute("DROP TABLE r")
            rs_db.execute(f"CREATE TABLE r {SCHEMA}")
            rs_db.execute(f"INSERT INTO r VALUES ({round_}, {round_})")
            backend.sync()
            assert mirror_rows(backend, "r") == native_rows(rs_db, "r")
        backend.close()

    def test_create_index_rebuilds_the_mirror(self, rs_db, monkeypatch):
        backend = SQLiteBackend()
        backend.attach(rs_db)
        backend.sync()
        rebuilt = counting_rebuilds(backend, monkeypatch)
        rs_db.execute("CREATE INDEX s_b ON s (b)")
        backend.sync()
        assert rebuilt == ["s"]
        assert mirror_index_count(backend, "s") == 1
        backend.close()

    def test_unpublished_mutation_rebuilds(self, rs_db, monkeypatch):
        backend = SQLiteBackend()
        backend.attach(rs_db)
        backend.sync()
        rebuilt = counting_rebuilds(backend, monkeypatch)
        rs_db.execute("INSERT INTO r VALUES (4, 4)")  # published
        rs_db.catalog.table("r").restore(100, (9, 9))  # not published
        backend.sync()
        assert rebuilt == ["r"]
        assert_mirror_equal(rs_db, backend)
        backend.close()

    def test_driver_error_forgets_the_mirror_state(self, rs_db, monkeypatch):
        backend = SQLiteBackend()
        backend.attach(rs_db)
        backend.sync()
        rs_db.insert_rows("r", [(5, 2**70)])  # outside SQLite's integers
        with pytest.raises(BackendError, match="failed to sync"):
            backend.sync()
        rs_db.execute("DELETE FROM r WHERE a = 5")
        rebuilt = counting_rebuilds(backend, monkeypatch)
        backend.sync()
        assert sorted(rebuilt) == ["r", "s"]
        assert_mirror_equal(rs_db, backend)
        backend.close()


    def test_a_failed_sync_is_followed_by_a_pushed_query_equal_to_native(
        self, rs_db
    ):
        sql = "SELECT a, b FROM r WHERE a < 10"
        rs_db.attach_backend(SQLiteBackend())
        rs_db.query(sql)  # the first sync
        rs_db.insert_rows("r", [(5, 2**70)])  # outside SQLite's integers
        assert sorted(rs_db.query(sql).rows) == [(1, 1), (2, 2), (3, 3), (5, 2**70)]
        assert rs_db.stats.backend_fallbacks == 1
        rs_db.execute("DELETE FROM r WHERE a = 5")
        pushdowns = rs_db.stats.backend_pushdowns
        # The failed batch is delivered again, and the mirrors rebuild.
        assert sorted(rs_db.query(sql).rows) == [(1, 1), (2, 2), (3, 3)]
        assert rs_db.stats.backend_pushdowns == pushdowns + 1
        assert rs_db.stats.backend_fallbacks == 1
        assert_mirror_equal(rs_db, rs_db.backend)
        rs_db.backend.close()


class TestFeedGroup:
    def mirror_groups(self, db, before):
        return set(db.changes.feed.groups()) - before

    def test_close_releases_the_group(self, rs_db):
        before = set(rs_db.changes.feed.groups())
        backend = SQLiteBackend()
        backend.attach(rs_db)
        assert len(self.mirror_groups(rs_db, before)) == 1
        backend.close()
        assert self.mirror_groups(rs_db, before) == set()

    def test_attaching_elsewhere_releases_the_group(self, rs_db):
        before = set(rs_db.changes.feed.groups())
        backend = SQLiteBackend()
        backend.attach(rs_db)
        backend.sync()
        other = Database()
        other.execute(f"CREATE TABLE q {SCHEMA}")
        backend.attach(other)
        assert self.mirror_groups(rs_db, before) == set()
        backend.sync()
        assert_mirror_equal(other, backend)  # r and s are gone
        backend.close()

    def test_garbage_collection_releases_the_group(self, rs_db):
        before = set(rs_db.changes.feed.groups())
        backend = SQLiteBackend()
        backend.attach(rs_db)
        backend.sync()
        del backend
        gc.collect()
        assert self.mirror_groups(rs_db, before) == set()

    def test_reattaching_the_same_database_keeps_the_mirrors(
        self, rs_db, monkeypatch
    ):
        backend = SQLiteBackend()
        backend.attach(rs_db)
        backend.sync()
        rebuilt = counting_rebuilds(backend, monkeypatch)
        rs_db.execute("INSERT INTO r VALUES (4, 4)")
        backend.attach(rs_db)
        backend.sync()
        assert rebuilt == []
        assert_mirror_equal(rs_db, backend)
        backend.close()

    def test_durable_sync_touches_no_file(self, tmp_path, monkeypatch):
        db = Database(durable=str(tmp_path / "db"))
        db.execute(f"CREATE TABLE r {SCHEMA}")
        db.execute("INSERT INTO r VALUES (1, 1)")
        db.insert_rows("r", [(key, key) for key in range(1000, 1010)])
        backend = SQLiteBackend()
        backend.attach(db)
        backend.sync()
        consumers = tmp_path / "db" / "consumers"
        files_before = sorted(consumers.iterdir()) if consumers.exists() else []
        calls = []
        for name in ("fsync", "replace"):
            original = getattr(os, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(os, name, counted)
        db.execute("INSERT INTO r VALUES (2, 2)")
        db.execute("UPDATE r SET b = 3 WHERE a = 1")
        calls.clear()
        backend.sync()
        assert calls == []
        files_after = sorted(consumers.iterdir()) if consumers.exists() else []
        assert files_after == files_before
        assert_mirror_equal(db, backend)
        backend.close()
        db.changes.feed.close()


# ---------------------------------------------------------------------------
# The property: mirror == native storage after every sync
# ---------------------------------------------------------------------------

steps = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["insert", "delete", "update", "update_twice"]),
            st.sampled_from(["r", "s"]),
            st.integers(0, 4),
            st.integers(0, 9),
        ),
        st.tuples(
            st.sampled_from(
                [
                    "insert_delete",
                    "index",
                    "recreate",
                    "restore",
                    "apply_changes",
                    "suspended",
                    "sync",
                    "sync",
                ]
            ),
            st.sampled_from(["r", "s"]),
            st.integers(0, 4),
            st.integers(0, 9),
        ),
    ),
    min_size=1,
    max_size=30,
)


def run_step(db, step, counter):
    kind, name, key, value = step
    table = db.catalog.table(name)
    if kind == "insert":
        db.execute(f"INSERT INTO {name} VALUES ({key}, {value})")
    elif kind == "delete":
        db.execute(f"DELETE FROM {name} WHERE a = {key}")
    elif kind == "update":
        db.execute(f"UPDATE {name} SET b = {value} WHERE a = {key}")
    elif kind == "update_twice":
        db.execute(f"UPDATE {name} SET b = {value} WHERE a = {key}")
        db.execute(f"UPDATE {name} SET b = {value + 1} WHERE a = {key}")
    elif kind == "insert_delete":
        db.execute(f"INSERT INTO {name} VALUES ({key + 100}, {value})")
        db.execute(f"DELETE FROM {name} WHERE a = {key + 100}")
    elif kind == "index":
        column = "ab"[value % 2]
        db.execute(f"CREATE INDEX ix{next(counter)} ON {name} ({column})")
    elif kind == "recreate":
        db.execute(f"DROP TABLE {name}")
        db.execute(f"CREATE TABLE {name} {SCHEMA}")
        db.execute(f"INSERT INTO {name} VALUES ({key}, {value})")
    elif kind == "restore":
        table.restore(table.next_tid + value, (key, value))
    elif kind == "apply_changes":
        tid = table.next_tid
        table.apply_changes(
            [(tid, (key, value), "insert"), (tid + 1, (key, value), "insert")]
        )
        table.apply_changes([(tid, (key, value), "delete")])
    elif kind == "suspended":
        with db.changes.feed.suspended():
            db.execute(f"INSERT INTO {name} VALUES ({key}, {value})")
            db.execute(f"DELETE FROM {name} WHERE a = {key}")
            db.execute(f"INSERT INTO {name} VALUES ({key}, {value + 1})")


@pytest.mark.parametrize("max_retained", [100_000, 6])
@settings(max_examples=40, deadline=None)
@given(
    sequence=steps,
    share=st.sampled_from([float("inf"), mirror._REBUILD_SHARE, 0.0]),
)
def test_mirror_equals_native_after_every_sync(
    mirror_class, max_retained, sequence, share
):
    """``max_retained=6`` makes the feed drop history a lagging mirror
    never read, so lost history is exercised too.  ``share`` runs every
    batch as a delta (inf), as the default decides, or as a rebuild
    (0.0): on these small tables the default rebuilds often, which
    alone would hide a delta path that needed a rebuild."""
    db = Database(feed=ChangeFeed(max_retained=max_retained))
    db.execute(f"CREATE TABLE r {SCHEMA}")
    db.execute(f"CREATE TABLE s {SCHEMA}")
    db.execute("INSERT INTO r VALUES (0, 0), (1, 1), (2, 2)")
    backend = mirror_class()
    backend.attach(db)
    counter = itertools.count()
    try:
        with mock.patch.object(mirror, "_REBUILD_SHARE", share):
            backend.sync()
            assert_mirror_equal(db, backend)
            for step in sequence:
                if step[0] == "sync":
                    backend.sync()
                    assert_mirror_equal(db, backend)
                else:
                    run_step(db, step, counter)
            backend.sync()
            assert_mirror_equal(db, backend)
    finally:
        backend.close()
