"""SQL text and parsed statements execute identically.

``Database.execute(text)`` parses and hands the statement to
``execute_statement``; nothing about a statement outlives it, so a
repeated SELECT always sees the current data, schema and access paths.
The final class is the property-style check: over random mixed
workloads (DDL, DML, ``CREATE INDEX``, constraint binding and repeated
queries) a database fed text answers exactly like one fed ASTs.
"""

from __future__ import annotations

import io
import random
from dataclasses import fields

import pytest

import repro.engine.database as database_module
from repro.cli import HippoShell
from repro.constraints import FunctionalDependency
from repro.core.hippo import HippoEngine
from repro.engine.database import Database
from repro.engine.stats import ExecutionStats
from repro.errors import CatalogError, ExecutionError
from repro.rewriting import RewritingEngine
from repro.sql.parser import parse_statement


def fresh_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
    db.execute("INSERT INTO emp VALUES ('ann', 10), ('bob', 5)")
    return db


class TestStatementText:
    def test_outside_whitespace_and_semicolons_parse_alike(self):
        plain = parse_statement("SELECT 1")
        assert parse_statement("  SELECT 1 ;  ") == plain
        assert parse_statement("SELECT 1;") == plain

    def test_inner_literal_text_is_preserved(self):
        # Whitespace inside a string literal is part of the statement.
        db = Database()
        assert db.execute("SELECT  'a  b'").rows == [("a  b",)]
        assert db.execute("SELECT 'a b'").rows == [("a b",)]

    def test_trailing_semicolon_variants_answer_alike(self):
        db = fresh_db()
        results = [
            db.execute(sql)
            for sql in (
                "SELECT name FROM emp ORDER BY name",
                "SELECT name FROM emp ORDER BY name;",
                "  SELECT name FROM emp ORDER BY name ;  ",
            )
        ]
        assert {(tuple(r.columns), tuple(r.rows)) for r in results} == {
            (("name",), (("ann",), ("bob",)))
        }

    def test_query_and_execute_answer_alike(self):
        db = fresh_db()
        sql = "SELECT salary FROM emp ORDER BY salary"
        queried, executed = db.query(sql), db.execute(sql)
        assert queried.columns == executed.columns == ["salary"]
        assert queried.rows == executed.rows == [(5,), (10,)]

    def test_query_rejects_non_select_text(self):
        db = fresh_db()
        with pytest.raises(ExecutionError, match="requires a SELECT"):
            db.query("DELETE FROM emp")
        assert db.execute("SELECT COUNT(*) FROM emp").scalar() == 2

    def test_each_text_select_counts_one_statement(self):
        db = fresh_db()
        db.stats.reset()
        db.execute("SELECT name FROM emp")
        db.query("SELECT name FROM emp")
        db.execute_statement(parse_statement("SELECT name FROM emp"))
        assert db.stats.statements == 3

    def test_database_takes_no_plan_cache_argument(self):
        with pytest.raises(TypeError):
            Database(plan_cache=False)  # type: ignore[call-arg]


class TestRepeatedSelects:
    def test_repeated_select_sees_fresh_data(self):
        db = fresh_db()
        assert db.execute("SELECT COUNT(*) FROM emp").scalar() == 2
        db.execute("INSERT INTO emp VALUES ('cyd', 7)")
        assert db.execute("SELECT COUNT(*) FROM emp").scalar() == 3
        db.execute("DELETE FROM emp WHERE name = 'ann'")
        assert db.execute("SELECT COUNT(*) FROM emp").scalar() == 2

    def test_repeated_subquery_select_sees_fresh_data(self):
        # _Subplan / _DecorrelatedSubplan memoize per statement: a repeat
        # after DML must not see the first run's memo.
        db = fresh_db()
        sql = (
            "SELECT name FROM emp e WHERE EXISTS"
            " (SELECT 1 FROM emp x WHERE x.salary > e.salary)"
        )
        assert db.execute(sql).as_set() == {("bob",)}
        db.execute("INSERT INTO emp VALUES ('zed', 99)")
        assert db.execute(sql).as_set() == {("ann",), ("bob",)}

    def test_repeated_select_after_ddl_sees_the_new_schema(self):
        db = fresh_db()
        sql = "SELECT * FROM emp"
        assert db.execute(sql).columns == ["name", "salary"]
        db.execute("DROP TABLE emp")
        with pytest.raises(CatalogError):
            db.execute(sql)
        db.execute("CREATE TABLE emp (id INTEGER, name TEXT, dept TEXT)")
        db.execute("INSERT INTO emp VALUES (1, 'ann', 'R&D')")
        result = db.execute(sql)
        assert result.columns == ["id", "name", "dept"]
        assert result.rows == [(1, "ann", "R&D")]

    def test_repeated_select_after_create_index_takes_the_index(self):
        db = fresh_db()
        sql = "SELECT salary FROM emp WHERE name = 'ann'"
        assert db.execute(sql).rows == [(10,)]
        assert "IndexScan" not in db.explain(sql)
        db.execute("CREATE INDEX idx_name ON emp (name)")
        assert "IndexScan" in db.explain(sql)
        db.stats.reset()
        assert db.execute(sql).rows == [(10,)]
        assert db.stats.rows_scanned == 1  # the index, not the column scan

    def test_repeated_indexed_select_sees_updated_values(self):
        db = fresh_db()
        db.execute("CREATE INDEX idx_name ON emp (name)")
        sql = "SELECT salary FROM emp WHERE name = 'ann'"
        assert db.execute(sql).rows == [(10,)]
        db.execute("UPDATE emp SET name = 'ann' WHERE name = 'bob'")
        assert sorted(db.execute(sql).rows) == [(5,), (10,)]
        db.execute("UPDATE emp SET salary = salary + 1 WHERE name = 'ann'")
        assert sorted(db.execute(sql).rows) == [(6,), (11,)]

    def test_repeated_in_subquery_select_sees_fresh_data(self):
        db = fresh_db()
        db.execute("CREATE TABLE boss (name TEXT)")
        sql = "SELECT name FROM emp WHERE name IN (SELECT name FROM boss)"
        assert db.execute(sql).rows == []
        db.execute("INSERT INTO boss VALUES ('bob')")
        assert db.execute(sql).rows == [("bob",)]
        db.execute("DELETE FROM boss")
        assert db.execute(sql).rows == []


class TestConstraintBinding:
    """Binding or rebinding a CQA engine changes nothing about what a
    plain SELECT on the database returns: it still sees every row,
    conflicting ones included."""

    FD = FunctionalDependency("emp", ["name"], ["salary"])
    SQL = "SELECT name, salary FROM emp ORDER BY name, salary"
    ROWS = [("ann", 10), ("ann", 20), ("bob", 5)]

    def conflicting_db(self) -> Database:
        db = fresh_db()
        db.execute("INSERT INTO emp VALUES ('ann', 20)")
        assert db.execute(self.SQL).rows == self.ROWS
        return db

    def test_hippo_engine_binding_leaves_plain_selects_alone(self):
        db = self.conflicting_db()
        engine = HippoEngine(db, [self.FD])
        assert db.execute(self.SQL).rows == self.ROWS
        assert engine.consistent_answers(self.SQL).as_set() == {("bob", 5)}

    def test_rewriting_engine_binding_leaves_plain_selects_alone(self):
        db = self.conflicting_db()
        RewritingEngine(db, [self.FD])
        assert db.execute(self.SQL).rows == self.ROWS

    def test_rebinding_fewer_constraints_leaves_plain_selects_alone(self):
        db = self.conflicting_db()
        HippoEngine(db, [self.FD]).detach()
        engine = HippoEngine(db, [])
        assert db.execute(self.SQL).rows == self.ROWS
        assert engine.consistent_answers(self.SQL).as_set() == set(self.ROWS)


class TestShell:
    SETUP = [
        "CREATE TABLE emp (name TEXT, salary INTEGER);",
        "INSERT INTO emp VALUES ('ann', 10), ('ann', 20), ('bob', 5);",
        ".constraint FD emp: name -> salary",
    ]

    def shell(self) -> tuple[HippoShell, io.StringIO]:
        out = io.StringIO()
        shell = HippoShell(out=out)
        shell.run(self.SETUP)
        return shell, out

    def test_shell_parses_each_statement_once(self, monkeypatch):
        shell, out = self.shell()

        def reparse(sql):
            raise AssertionError(f"statement parsed twice: {sql!r}")

        monkeypatch.setattr(database_module, "parse_statement", reparse)
        out.truncate(0)
        out.seek(0)
        shell.run(["SELECT name FROM emp WHERE salary < 10;"])
        assert out.getvalue().splitlines() == ["name", "bob", "(1 rows)"]

    def test_stats_reports_execution_counters_only(self):
        shell, out = self.shell()
        shell.run(["SELECT name FROM emp;", ".stats"])
        output = out.getvalue()
        assert "execution:" in output
        assert "  statements: 3" in output
        assert "plan cache" not in output

    def test_classify_then_select_answers_alike(self):
        shell, out = self.shell()
        shell.run(["SELECT name, salary FROM emp;"])
        first = out.getvalue()
        shell.run([".classify SELECT * FROM emp;"])
        marker = len(out.getvalue())
        shell.run(["SELECT name, salary FROM emp;"])
        assert out.getvalue()[marker:] == first[first.index("name  salary"):]


class TestExecutionStats:
    def test_reset_zeroes_every_counter(self):
        stats = ExecutionStats()
        for number, counter in enumerate(fields(stats), start=1):
            setattr(stats, counter.name, number)
        stats.reset()
        assert set(stats.snapshot().values()) == {0}

    def test_snapshot_copies_every_counter(self):
        stats = ExecutionStats()
        stats.statements = 4
        stats.backend_fallbacks = 2
        snapshot = stats.snapshot()
        assert list(snapshot) == [counter.name for counter in fields(stats)]
        assert snapshot["statements"] == 4
        assert snapshot["backend_fallbacks"] == 2
        stats.statements += 1
        assert snapshot["statements"] == 4  # a copy, not a view


class TestTextEqualsAst:
    """Property: executing a statement's text gives exactly what executing
    its parsed AST gives, over random mixed workloads."""

    QUERIES = [
        "SELECT a, b FROM t ORDER BY a, b",
        "SELECT b FROM t WHERE a = 1",
        "SELECT COUNT(*) FROM t",
        "SELECT a, SUM(b) FROM t GROUP BY a ORDER BY a",
        "SELECT t.a, s.c FROM t, s WHERE t.a = s.a ORDER BY t.a, s.c",
        "SELECT a FROM t WHERE b > 10 ORDER BY a",
        "SELECT a FROM t WHERE NOT EXISTS"
        " (SELECT * FROM t x WHERE x.a = t.a AND x.b <> t.b) ORDER BY a",
        "SELECT * FROM u ORDER BY a",
    ]

    #: Pseudo-statements: bind a CQA engine to the database.
    BINDINGS = {
        "-- bind hippo": lambda db, fd: HippoEngine(db, [fd]).detach(),
        "-- bind rewriting": lambda db, fd: RewritingEngine(db, [fd]),
    }

    def random_actions(self, rng: random.Random) -> list[str]:
        actions: list[str] = [
            "CREATE TABLE t (a INTEGER, b INTEGER)",
            "CREATE TABLE s (a INTEGER, c TEXT)",
        ]
        for _ in range(80):
            roll = rng.random()
            if roll < 0.22:
                actions.append(
                    f"INSERT INTO t VALUES"
                    f" ({rng.randint(0, 4)}, {rng.randint(0, 30)})"
                )
            elif roll < 0.30:
                actions.append(
                    f"INSERT INTO s VALUES"
                    f" ({rng.randint(0, 4)}, 'v{rng.randint(0, 3)}')"
                )
            elif roll < 0.36:
                actions.append(f"DELETE FROM t WHERE b = {rng.randint(0, 30)}")
            elif roll < 0.40:
                actions.append(
                    f"UPDATE t SET b = b + 1 WHERE a = {rng.randint(0, 4)}"
                )
            elif roll < 0.44:
                actions.append("CREATE INDEX IF NOT EXISTS idx_ta ON t (a)")
            elif roll < 0.48:
                actions.append(
                    rng.choice(
                        [
                            "CREATE TABLE IF NOT EXISTS u (a INTEGER, d TEXT)",
                            "CREATE TABLE IF NOT EXISTS u"
                            " (d TEXT, a INTEGER, e INTEGER)",
                            "DROP TABLE IF EXISTS u",
                            f"INSERT INTO u (a, d) VALUES"
                            f" ({rng.randint(0, 4)}, 'w')",
                        ]
                    )
                )
            elif roll < 0.52:
                actions.append(rng.choice(sorted(self.BINDINGS)))
            else:
                actions.append(rng.choice(self.QUERIES))
        return actions

    @staticmethod
    def outcome(run, statement):
        try:
            result = run(statement)
        except CatalogError as exc:
            return ("error", str(exc))
        return (result.columns, result.rows, result.rowcount)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_text_equals_ast_execution(self, seed):
        actions = self.random_actions(random.Random(seed))
        text_db, ast_db = Database(), Database()
        fd = FunctionalDependency("t", ["a"], ["b"])
        for sql in actions:
            if sql in self.BINDINGS:
                self.BINDINGS[sql](text_db, fd)
                self.BINDINGS[sql](ast_db, fd)
                continue
            left = self.outcome(text_db.execute, sql)
            right = self.outcome(
                ast_db.execute_statement, parse_statement(sql)
            )
            assert left == right, sql
        assert text_db.indexes() == ast_db.indexes()
