"""Unit tests for table schemas, heap storage and the catalog."""

import pytest

from repro.engine.catalog import Catalog
from repro.engine.schema import Column, make_schema
from repro.engine.storage import Table
from repro.engine.types import SQLType
from repro.errors import CatalogError, ExecutionError, SchemaError


def r_schema(**kwargs):
    return make_schema(
        "r", [("a", SQLType.INTEGER), ("b", SQLType.TEXT)], **kwargs
    )


class TestSchema:
    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            make_schema("r", [("a", SQLType.INTEGER), ("A", SQLType.TEXT)])

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaError):
            make_schema("r", [("a", SQLType.INTEGER)], primary_key=["z"])

    def test_index_of_case_insensitive(self):
        schema = r_schema()
        assert schema.index_of("A") == 0
        assert schema.index_of("b") == 1
        with pytest.raises(SchemaError):
            schema.index_of("c")

    def test_coerce_row_arity(self):
        schema = r_schema()
        with pytest.raises(SchemaError):
            schema.coerce_row((1,))

    def test_coerce_row_not_null(self):
        schema = make_schema("r", [Column("a", SQLType.INTEGER, nullable=False)])
        with pytest.raises(SchemaError):
            schema.coerce_row((None,))

    def test_key_indexes(self):
        schema = r_schema(primary_key=["b"])
        assert schema.key_indexes() == (1,)


class TestTable:
    def test_insert_assigns_increasing_tids(self):
        table = Table(r_schema())
        t0 = table.insert((1, "x"))
        t1 = table.insert((2, "y"))
        assert (t0, t1) == (0, 1)
        assert table.get(t1) == (2, "y")

    def test_lookup_by_value(self):
        table = Table(r_schema())
        table.insert((1, "x"))
        table.insert((1, "x"))  # duplicate gets its own tid
        table.insert((2, "y"))
        assert len(table.lookup((1, "x"))) == 2
        assert table.lookup((9, "z")) == frozenset()
        assert table.has_duplicates()

    def test_delete_updates_value_index(self):
        table = Table(r_schema())
        tid = table.insert((1, "x"))
        table.delete(tid)
        assert table.lookup((1, "x")) == frozenset()
        assert len(table) == 0
        with pytest.raises(ExecutionError):
            table.delete(tid)

    def test_update_keeps_tid(self):
        table = Table(r_schema())
        tid = table.insert((1, "x"))
        table.update(tid, (5, "z"))
        assert table.get(tid) == (5, "z")
        assert table.lookup((1, "x")) == frozenset()
        assert tid in table.lookup((5, "z"))

    def test_update_missing_tid(self):
        table = Table(r_schema())
        with pytest.raises(ExecutionError):
            table.update(3, (1, "x"))

    def test_contains_by_value(self):
        table = Table(r_schema())
        table.insert((1, "x"))
        assert (1, "x") in table
        assert (2, "x") not in table

    def test_restricted_rows(self):
        table = Table(r_schema())
        tids = [table.insert((i, "v")) for i in range(4)]
        kept = frozenset(tids[:2])
        rows = list(table.restricted_rows(kept))
        assert [tid for tid, _row in rows] == tids[:2]
        assert len(list(table.restricted_rows(None))) == 4

    def test_coercion_on_insert(self):
        table = Table(make_schema("r", [("a", SQLType.REAL)]))
        table.insert((1,))
        assert table.get(0) == (1.0,)


class TestCatalog:
    def test_create_and_lookup(self):
        catalog = Catalog()
        catalog.create_table(r_schema())
        assert catalog.has_table("R")
        assert catalog.table("r").schema.name == "r"

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.create_table(r_schema())
        with pytest.raises(CatalogError):
            catalog.create_table(r_schema())

    def test_drop(self):
        catalog = Catalog()
        catalog.create_table(r_schema())
        catalog.drop_table("R")
        assert not catalog.has_table("r")
        with pytest.raises(CatalogError):
            catalog.drop_table("r")
        catalog.drop_table("r", if_exists=True)  # no error

    def test_unknown_table(self):
        with pytest.raises(CatalogError):
            Catalog().table("nope")

    def test_table_names_order(self):
        catalog = Catalog()
        catalog.create_table(make_schema("x", [("a", SQLType.INTEGER)]))
        catalog.create_table(make_schema("y", [("a", SQLType.INTEGER)]))
        assert catalog.table_names() == ["x", "y"]


class TestHasDuplicatesPinned:
    """``has_duplicates()`` is ``len(value index) < len(rows)``; pin it to
    counting the stored rows across every kind of mutation."""

    @staticmethod
    def check(table):
        stored = list(table.rows())
        assert table.has_duplicates() == (len(set(stored)) < len(stored))
        return table.has_duplicates()

    def test_insert_delete_update(self):
        table = Table(r_schema())
        assert not self.check(table)
        first = table.insert((1, "x"))
        other = table.insert((2, "y"))
        assert not self.check(table)
        copy = table.insert((1, "x"))  # insert a duplicate
        assert self.check(table)
        third = table.insert((1, "x"))  # three owners of one value
        table.delete(third)
        assert self.check(table)
        table.delete(copy)  # delete one copy: back to a set
        assert not self.check(table)
        table.update(other, (1, "x"))  # update *into* a duplicate
        assert self.check(table)
        table.update(first, (3, "z"))  # update *out of* it
        assert not self.check(table)
        table.update(first, (3, "z"))  # a no-op update changes nothing
        assert not self.check(table)

    def test_feed_replay(self):
        table = Table(r_schema())
        table.apply_changes(
            [(0, (1, "x"), "insert"), (5, (1, "x"), "insert"), (2, (2, "y"), "insert")]
        )
        assert self.check(table)
        table.apply_changes([(5, None, "delete"), (7, (2, "y"), "insert")])
        assert self.check(table)
        table.apply_changes([(7, None, "delete")])
        assert not self.check(table)
        table.restore(9, (2, "y"))
        assert self.check(table)

    def test_reopened_durable_database_agrees(self, tmp_path):
        from repro.engine.database import Database

        writer = Database(durable=str(tmp_path / "feed"))
        writer.execute("CREATE TABLE r (a INTEGER, b TEXT)")
        writer.execute("INSERT INTO r VALUES (1, 'x'), (1, 'x'), (2, 'y')")
        writer.execute("UPDATE r SET b = 'y' WHERE a = 1")
        writer.execute("DELETE FROM r WHERE a = 2")
        writer.changes.feed.close()
        reopened = Database(durable=str(tmp_path / "feed"))  # rebuilt by replay
        assert self.check(reopened.table("r"))
        reopened.execute("DELETE FROM r WHERE a = 1")
        assert not self.check(reopened.table("r"))
        reopened.changes.feed.close()
