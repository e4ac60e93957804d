"""Qualified references resolve however the binding was typed.

Table names, aliases and derived-table aliases are folded to lower case
where they enter a scope (``bound_entries``), the same form
``Scope.resolve`` folds the reference to -- so ``FROM t T`` / ``T.a``
works for every statement kind.  Display names stay as typed.
"""

import pytest

from repro.engine.database import Database


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (a INTEGER)")
    database.execute("INSERT INTO t VALUES (2), (1)")
    database.execute("CREATE TABLE Emp (Name TEXT, Salary INTEGER)")
    database.execute("INSERT INTO Emp VALUES ('ann', 1), ('bob', 3)")
    return database


@pytest.mark.parametrize(
    "sql, rows",
    [
        ("SELECT T.a FROM t T", [(2,), (1,)]),
        ("SELECT Emp.Salary FROM Emp", [(1,), (3,)]),
        ("SELECT Emp.* FROM Emp", [("ann", 1), ("bob", 3)]),
        ("SELECT D.x FROM (SELECT a AS x FROM t) D", [(2,), (1,)]),
        ("SELECT a FROM t ORDER BY T.a", [(1,), (2,)]),
        ("SELECT T.a FROM t T ORDER BY t.A DESC", [(2,), (1,)]),
        ("SELECT x.a FROM t x JOIN t Y ON x.a = Y.a", [(2,), (1,)]),
        (
            "SELECT X.a FROM t X"
            " WHERE EXISTS (SELECT * FROM Emp E WHERE E.Salary = X.a)",
            [(1,)],
        ),
    ],
)
def test_select(db, sql, rows):
    assert db.query(sql).rows == rows


def test_display_names_stay_as_typed(db):
    assert db.query("SELECT Emp.* FROM Emp").columns == ["Name", "Salary"]
    assert db.query("SELECT Emp.Salary FROM Emp").columns == ["Salary"]


def test_update(db):
    result = db.execute("UPDATE Emp SET Salary = Emp.Salary + 1 WHERE Emp.Salary = 1")
    assert result.rowcount == 1
    assert db.query("SELECT Salary FROM Emp WHERE Name = 'ann'").rows == [(2,)]


def test_delete(db):
    assert db.execute("DELETE FROM Emp WHERE emp.salary = 3").rowcount == 1
    assert db.query("SELECT Name FROM Emp").rows == [("ann",)]

