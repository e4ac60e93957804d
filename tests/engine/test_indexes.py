"""Tests for secondary indexes and index-scan planning."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Database
from repro.errors import CatalogError, ExecutionError


def probed(table, positions, key):
    """The tids ``Table.probe`` reads off the index on ``positions``."""
    probe = table.probe(tuple(positions), with_tid=True)
    return frozenset(row[-1] for row in probe(key[0] if len(key) == 1 else tuple(key)))


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (a INTEGER, b INTEGER, c TEXT)")
    database.execute(
        "INSERT INTO t VALUES (1, 10, 'x'), (1, 20, 'y'), (2, 10, 'z'),"
        " (3, 30, 'x'), (NULL, 10, 'w')"
    )
    return database


class TestStorageIndexes:
    def test_create_and_lookup(self, db):
        table = db.table("t")
        table.create_index([0])
        assert table.indexed_column_sets() == [(0,)]
        assert len(probed(table, [0], [1])) == 2
        assert probed(table, [0], [9]) == frozenset()

    def test_index_tracks_insert_delete_update(self, db):
        table = db.table("t")
        table.create_index([1])
        tid = table.insert((7, 99, "new"))
        assert tid in probed(table, [1], [99])
        table.update(tid, (7, 77, "new"))
        assert probed(table, [1], [99]) == frozenset()
        assert tid in probed(table, [1], [77])
        table.delete(tid)
        assert probed(table, [1], [77]) == frozenset()

    def test_multi_column_index(self, db):
        table = db.table("t")
        table.create_index([0, 1])
        assert len(probed(table, [0, 1], [1, 10])) == 1

    def test_missing_index_lookup_raises(self, db):
        with pytest.raises(ExecutionError):
            probed(db.table("t"), [2], ["x"])

    def test_bad_positions_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.table("t").create_index([9])
        with pytest.raises(ExecutionError):
            db.table("t").create_index([])

    def test_null_keys_are_filed_nowhere(self, db):
        # '=' never matches a NULL: no index files a key holding one.
        table = db.table("t")
        table.create_index([0])
        table.create_index([0, 1])
        assert probed(table, [0], [None]) == frozenset()
        assert probed(table, [0, 1], [None, 10]) == frozenset()
        assert len(probed(table, [0, 1], [1, 10])) == 1
        tid = table.insert((None, 5, "n"))
        table.update(tid, (4, 5, "n"))
        assert probed(table, [0], [4]) == {tid}
        table.update(tid, (None, 5, "n"))
        assert probed(table, [0], [4]) == frozenset()


class TestPostings:
    """One key going 0 -> 1 -> 2 -> 1 -> 0 owners: a single owner is
    stored bare, several as a set, and no reader can tell."""

    def test_the_trio(self):
        from repro.engine.storage import _owners, _post, _unpost

        postings = {}
        assert _owners(postings, ("k",)) == frozenset()
        _post(postings, ("k",), 0)  # tid 0 is an owner, not "absent"
        assert postings == {("k",): 0}
        assert _owners(postings, ("k",)) == {0}
        _post(postings, ("k",), 0)  # idempotent, like set.add
        assert postings == {("k",): 0}
        _post(postings, ("k",), 7)
        assert postings == {("k",): {0, 7}}
        assert _owners(postings, ("k",)) == {0, 7}
        _unpost(postings, ("k",), 3)  # not an owner: like set.discard
        _unpost(postings, ("k",), 0)
        assert postings == {("k",): 7}
        _unpost(postings, ("k",), 0)  # no longer an owner
        assert _owners(postings, ("k",)) == {7}
        _unpost(postings, ("k",), 7)
        assert postings == {}
        _unpost(postings, ("k",), 7)  # absent key

    @pytest.mark.parametrize("replayed", [False, True])
    def test_readers_across_the_owner_counts(self, replayed):
        database = Database()
        database.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        table = database.table("t")
        table.create_index([0])
        row = (1, 2)

        def step(tid, op):
            if replayed:
                table.apply_changes([(tid, row if op == "insert" else None, op)])
            elif op == "insert":
                table.restore(tid, row)
            else:
                table.delete(tid)

        def check(owners):
            from repro.engine.snapshot import restore_database, snapshot_database

            assert table.lookup(row) == owners
            assert probed(table, [0], [1]) == owners
            assert (row in table) == bool(owners)
            assert table.has_duplicates() == (len(owners) > 1)
            copy = Database()
            restore_database(copy, snapshot_database(database))
            assert copy.table("t").lookup(row) == owners
            copy.table("t").create_index([0])  # built over the stored rows
            assert probed(copy.table("t"), [0], [1]) == owners
            rows = database.query("SELECT * FROM t WHERE a = 1").rows
            assert rows == [row] * len(owners)

        check(frozenset())
        step(0, "insert")
        check({0})
        step(5, "insert")
        check({0, 5})
        step(0, "delete")
        check({5})
        table.update(5, (1, 3))  # leaves the value posting, stays in the index
        assert table.lookup(row) == frozenset()
        assert probed(table, [0], [1]) == {5}
        table.update(5, row)
        step(5, "delete")
        check(frozenset())


class TestCreateIndexSQL:
    def test_create_and_registry(self, db):
        db.execute("CREATE INDEX idx_a ON t (a)")
        assert db.indexes() == {"idx_a": ("t", ("a",))}
        assert db.table("t").indexed_column_sets() == [(0,)]

    def test_duplicate_name_rejected(self, db):
        db.execute("CREATE INDEX idx_a ON t (a)")
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX idx_a ON t (b)")
        db.execute("CREATE INDEX IF NOT EXISTS idx_a ON t (b)")  # no error

    def test_unknown_column_rejected(self, db):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            db.execute("CREATE INDEX idx ON t (zz)")

    def test_drop_table_clears_registry(self, db):
        db.execute("CREATE INDEX idx_a ON t (a)")
        db.execute("DROP TABLE t")
        assert db.indexes() == {}

    def test_formatter_round_trip(self):
        from repro.sql.formatter import format_statement
        from repro.sql.parser import parse_statement

        text = "CREATE INDEX idx_a ON t (a, b)"
        statement = parse_statement(text)
        assert parse_statement(format_statement(statement)) == statement


class TestIndexScanPlanning:
    def test_plan_uses_index(self, db):
        db.execute("CREATE INDEX idx_a ON t (a)")
        plan_text = db.explain("SELECT * FROM t WHERE a = 1")
        assert "IndexScan" in plan_text

    def test_plan_without_index_scans(self, db):
        plan_text = db.explain("SELECT * FROM t WHERE a = 1")
        assert "IndexScan" not in plan_text

    def test_results_identical_with_index(self, db):
        query = "SELECT * FROM t WHERE a = 1 AND b > 5"
        before = db.query(query).as_set()
        db.execute("CREATE INDEX idx_a ON t (a)")
        assert db.query(query).as_set() == before
        assert "IndexScan" in db.explain(query)

    def test_index_scan_touches_fewer_rows(self, db):
        db.execute("CREATE INDEX idx_a ON t (a)")
        db.stats.reset()
        db.query("SELECT * FROM t WHERE a = 2")
        assert db.stats.rows_scanned == 1  # not 5

    def test_multi_column_index_preferred(self, db):
        db.execute("CREATE INDEX idx_a ON t (a)")
        db.execute("CREATE INDEX idx_ab ON t (a, b)")
        plan_text = db.explain("SELECT * FROM t WHERE a = 1 AND b = 20")
        assert "IndexScan(t on [a, b])" in plan_text

    def test_residual_predicate_still_applied(self, db):
        db.execute("CREATE INDEX idx_a ON t (a)")
        rows = db.query("SELECT b FROM t WHERE a = 1 AND c = 'y'").rows
        assert rows == [(20,)]

    def test_null_equality_returns_nothing(self, db):
        db.execute("CREATE INDEX idx_a ON t (a)")
        assert db.query("SELECT * FROM t WHERE a = NULL").rows == []

    def test_index_used_in_join_branch(self, db):
        db.execute("CREATE TABLE u (a INTEGER)")
        db.execute("INSERT INTO u VALUES (1), (2)")
        db.execute("CREATE INDEX idx_a ON t (a)")
        rows = db.query(
            "SELECT t.b FROM t, u WHERE t.a = 1 AND t.a = u.a"
        ).rows
        assert sorted(rows) == [(10,), (20,)]

    def test_dml_unaffected_by_index_path(self, db):
        db.execute("CREATE INDEX idx_a ON t (a)")
        assert db.execute("DELETE FROM t WHERE a = 1").rowcount == 2
        assert db.query("SELECT COUNT(*) FROM t").scalar() == 3


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12),
    st.integers(0, 3),
)
def test_index_scan_equivalence_property(rows, needle):
    """Index scans never change query results."""
    plain = Database()
    plain.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    plain.insert_rows("t", rows)
    indexed = Database()
    indexed.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    indexed.insert_rows("t", rows)
    indexed.execute("CREATE INDEX idx ON t (a)")
    query = f"SELECT * FROM t WHERE a = {needle} AND b <> {needle}"
    assert sorted(plain.query(query).rows) == sorted(indexed.query(query).rows)
