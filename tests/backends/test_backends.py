"""Unit tests for the execution-backend layer.

Covers the registry ("native" is no backend), the attach/close
lifecycle, the feed-following mirror sync, read-side type coercion, tid
pinning, the Database routing seam (pushdown, DML stays native) and
fallback accounting at every pushdown entry point.  The native
engine itself (``evaluate_tree``, ``db.execute_statement``,
``compile_core``) is the oracle; cross-backend answer equality on
randomized workloads lives in :mod:`test_differential`.
"""

import ast as python_ast
from pathlib import Path

import pytest

import repro
from repro.backends import (
    BACKENDS,
    SQLiteBackend,
    available_backends,
    create_backend,
    duckdb_available,
)
from repro.backends.duckdb import DuckDBBackend
from repro.conflicts.detection import detect_conflicts, violations_of
from repro.constraints import (
    ConstraintAtom,
    DenialConstraint,
    FunctionalDependency,
)
from repro.core.hippo import HippoEngine
from repro.engine.types import format_value
from repro.errors import BackendError
from repro.ra import (
    Atom,
    SJUDCore,
    compile_core,
    evaluate_tree,
    from_sql_query,
    tree_to_query,
)
from repro.rewriting.rewrite import RewritingEngine
from repro.sql import ast
from repro.sql.parser import parse_expression, parse_query


def tree_of(db, text):
    return from_sql_query(parse_query(text), db.catalog)


@pytest.fixture
def sqlite_backend(two_table_db):
    backend = SQLiteBackend()
    backend.attach(two_table_db)
    yield backend
    backend.close()


class TestRegistry:
    def test_known_names(self):
        assert set(BACKENDS) == {"sqlite", "duckdb"}

    def test_create_by_name(self, db):
        backend = create_backend("sqlite", db)
        assert isinstance(backend, SQLiteBackend)
        assert backend.db is db

    def test_create_is_case_insensitive(self):
        assert isinstance(create_backend("SQLite"), SQLiteBackend)

    def test_native_means_no_backend(self, db):
        assert create_backend("native") is None
        assert create_backend("Native", db) is None

    def test_unknown_name_rejected(self):
        with pytest.raises(BackendError, match="unknown backend"):
            create_backend("postgres")

    def test_available_backends(self):
        names = available_backends()
        assert names[:2] == ["native", "sqlite"]
        assert ("duckdb" in names) == duckdb_available()

    def test_duckdb_gating(self):
        if duckdb_available():
            assert isinstance(create_backend("duckdb"), DuckDBBackend)
        else:
            with pytest.raises(BackendError, match="not installed"):
                create_backend("duckdb")


class TestProtocol:
    def test_unattached_db_raises(self):
        with pytest.raises(BackendError, match="not attached"):
            SQLiteBackend().db

    def test_close_releases_database(self, two_table_db):
        backend = SQLiteBackend()
        backend.attach(two_table_db)
        backend.close()
        with pytest.raises(BackendError, match="not attached"):
            backend.db

    def test_reattach_after_close(self, two_table_db):
        backend = SQLiteBackend()
        backend.attach(two_table_db)
        assert backend.execute_tree(tree_of(two_table_db, "SELECT * FROM r"))
        backend.close()
        backend.attach(two_table_db)
        assert backend.execute_tree(tree_of(two_table_db, "SELECT * FROM r"))


class TestAnswerEquality:
    QUERIES = [
        "SELECT * FROM r WHERE a >= 2 AND b < 6",
        "SELECT x.a, x.b, y.b FROM r x, s y WHERE x.a = y.a",
        "SELECT * FROM r WHERE a IN (1, 4) UNION SELECT * FROM s",
        "SELECT * FROM r EXCEPT SELECT * FROM s WHERE a BETWEEN 2 AND 4",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_execute_tree_matches_native(self, two_table_db, sqlite_backend, text):
        tree = tree_of(two_table_db, text)
        assert sqlite_backend.execute_tree(tree) == evaluate_tree(tree, two_table_db)

    @pytest.mark.parametrize("text", QUERIES)
    def test_execute_query_matches_native(self, two_table_db, sqlite_backend, text):
        query = tree_to_query(tree_of(two_table_db, text))
        columns, rows = sqlite_backend.execute_query(query)
        native = two_table_db.execute_statement(ast.SelectStatement(query))
        assert columns == tuple(native.columns)
        assert set(rows) == set(native.rows)

    def test_residual_join_matches_native(self, two_table_db, sqlite_backend):
        condition = ast.BinaryOp(
            "AND",
            ast.BinaryOp("=", ast.ColumnRef("t0", "a"), ast.ColumnRef("t1", "a")),
            ast.BinaryOp("<>", ast.ColumnRef("t0", "b"), ast.ColumnRef("t1", "b")),
        )
        core = SJUDCore((Atom("t0", "r"), Atom("t1", "r")), condition, ())
        native_edges = set(compile_core(core, two_table_db).rows(()))
        assert native_edges  # r has the key-violating pairs (1,1)/(1,2)
        pushed = sqlite_backend.residual_join(core)
        assert len(pushed) == len(set(pushed))  # one row per edge
        assert set(pushed) == native_edges

    def test_violations_match_native(self, two_table_db, sqlite_backend):
        key = DenialConstraint(
            "key_r",
            (ConstraintAtom("t0", "r"), ConstraintAtom("t1", "r")),
            parse_expression("t0.a = t1.a AND t0.b <> t1.b"),
        )
        native = violations_of(two_table_db, key)
        assert native
        pushed = violations_of(two_table_db, key, backend=sqlite_backend)
        assert set(pushed) == set(native)
        assert two_table_db.stats.backend_fallbacks == 0

    def test_boolean_round_trip(self, db):
        db.execute("CREATE TABLE t (a INTEGER, ok BOOLEAN)")
        db.execute("INSERT INTO t VALUES (1, TRUE), (2, FALSE), (3, TRUE)")
        backend = SQLiteBackend()
        backend.attach(db)
        tree = tree_of(db, "SELECT * FROM t WHERE ok = TRUE")
        answers = backend.execute_tree(tree)
        assert answers == evaluate_tree(tree, db)
        assert all(isinstance(row[1], bool) for row in answers)
        backend.close()

    def test_boolean_union_null_literal_prints_as_boolean(self, db):
        db.execute("CREATE TABLE t (a INTEGER, ok BOOLEAN)")
        db.execute("INSERT INTO t VALUES (1, TRUE), (2, FALSE)")
        query = "SELECT * FROM t UNION SELECT a, NULL FROM t WHERE ok = TRUE"
        native = HippoEngine(db, []).raw_answers(query).rows
        backend = SQLiteBackend()
        db.attach_backend(backend)
        pushed = HippoEngine(db, []).raw_answers(query).rows
        assert db.stats.backend_pushdowns == 1
        assert db.stats.backend_fallbacks == 0
        # (1,) == (True,) in Python: compare what prints, not the sets
        assert [repr(row) for row in pushed] == [repr(row) for row in native]
        assert [format_value(row[1]) for row in pushed] == ["NULL", "TRUE", "FALSE"]
        backend.close()


class TestMirrorSync:
    def rebuild_count(self, backend, monkeypatch):
        calls = []
        original = backend._rebuild_mirror

        def counting(conn, table):
            calls.append(table.schema.name)
            original(conn, table)

        monkeypatch.setattr(backend, "_rebuild_mirror", counting)
        return calls

    def test_sync_is_lazy(self, two_table_db, sqlite_backend, monkeypatch):
        calls = self.rebuild_count(sqlite_backend, monkeypatch)
        tree = tree_of(two_table_db, "SELECT * FROM r")
        sqlite_backend.execute_tree(tree)
        assert sorted(calls) == ["r", "s"]
        sqlite_backend.execute_tree(tree)
        assert sorted(calls) == ["r", "s"]  # unchanged tables: no rebuild

    def test_mutation_forces_resync(self, two_table_db, sqlite_backend):
        tree = tree_of(two_table_db, "SELECT * FROM r")
        before = sqlite_backend.execute_tree(tree)
        two_table_db.execute("INSERT INTO r VALUES (8, 8)")
        after = sqlite_backend.execute_tree(tree)
        assert after == before | {(8, 8)}

    def test_delete_and_update_resync(self, two_table_db, sqlite_backend):
        tree = tree_of(two_table_db, "SELECT * FROM r")
        two_table_db.execute("DELETE FROM r WHERE a = 1")
        two_table_db.execute("UPDATE r SET b = 0 WHERE a = 2")
        assert sqlite_backend.execute_tree(tree) == evaluate_tree(tree, two_table_db)

    def test_drop_create_resync(self, two_table_db, sqlite_backend):
        tree = tree_of(two_table_db, "SELECT * FROM r")
        sqlite_backend.execute_tree(tree)
        two_table_db.execute("DROP TABLE r")
        two_table_db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        two_table_db.execute("INSERT INTO r VALUES (7, 7)")
        assert sqlite_backend.execute_tree(tree_of(two_table_db, "SELECT * FROM r")) == {
            (7, 7)
        }

    def test_dropped_table_mirror_removed(self, two_table_db, sqlite_backend):
        sqlite_backend.sync()
        assert "s" in sqlite_backend._mirrored
        two_table_db.execute("DROP TABLE s")
        sqlite_backend.sync()
        assert "s" not in sqlite_backend._mirrored

    def test_tids_survive_the_crossing(self, two_table_db, sqlite_backend):
        """Mirror rowids are exactly the native tids."""
        sqlite_backend.sync()
        rows = sqlite_backend.connection.execute(
            "SELECT rowid, a, b FROM r ORDER BY rowid"
        ).fetchall()
        native = [
            (tid,) + row
            for tid, row in two_table_db.catalog.table("r").items()
        ]
        assert [tuple(row) for row in rows] == native

    def test_reserved_tid_column_rejected(self, db):
        db.execute("CREATE TABLE w (rowid INTEGER, b INTEGER)")
        backend = SQLiteBackend()
        backend.attach(db)
        with pytest.raises(BackendError, match="reserves"):
            backend.sync()
        backend.close()


class TestDatabaseSeam:
    def test_attach_and_detach(self, two_table_db):
        assert two_table_db.backend is None
        assert two_table_db.backend_id == "native"
        backend = SQLiteBackend()
        two_table_db.attach_backend(backend)
        assert two_table_db.backend is backend
        assert two_table_db.backend_id == "sqlite"
        two_table_db.detach_backend()
        assert two_table_db.backend is None
        assert two_table_db.backend_id == "native"

    def test_selects_route_through_backend(self, two_table_db):
        native = two_table_db.query("SELECT a, b FROM r WHERE a > 1")
        two_table_db.attach_backend(SQLiteBackend())
        before = two_table_db.stats.backend_pushdowns
        pushed = two_table_db.query("SELECT a, b FROM r WHERE a > 1")
        assert two_table_db.stats.backend_pushdowns == before + 1
        assert pushed.columns == native.columns
        assert set(pushed.rows) == set(native.rows)

    def test_native_engine_does_not_push(self, two_table_db):
        assert two_table_db.backend is None
        HippoEngine(two_table_db, []).raw_answers("SELECT * FROM r")
        two_table_db.query("SELECT a, b FROM r")
        assert two_table_db.stats.backend_pushdowns == 0

    def test_engine_follows_the_attached_backend(self, two_table_db):
        """An engine pushes wherever its database executes now: the
        backend attached after it was built, and natively once detached."""
        engine = HippoEngine(two_table_db, [])
        native = engine.raw_answers("SELECT * FROM r")
        two_table_db.attach_backend(SQLiteBackend())
        pushed = engine.raw_answers("SELECT * FROM r")
        assert two_table_db.stats.backend_pushdowns == 1
        assert pushed.rows == native.rows
        two_table_db.backend.close()
        two_table_db.detach_backend()
        assert engine.raw_answers("SELECT * FROM r").rows == native.rows
        assert two_table_db.stats.backend_pushdowns == 1

    def test_fallback_on_backend_error(self, two_table_db):
        """A value outside SQLite's integer range falls back natively."""
        huge = 2**70
        two_table_db.attach_backend(SQLiteBackend())
        result = two_table_db.query(f"SELECT a, b FROM r WHERE a <> {huge}")
        assert two_table_db.stats.backend_fallbacks == 1
        assert len(result.rows) == 5

    def test_dml_stays_native(self, two_table_db):
        two_table_db.attach_backend(SQLiteBackend())
        two_table_db.execute("INSERT INTO r VALUES (6, 6)")
        assert (6, 6) in set(two_table_db.query("SELECT a, b FROM r").rows)

    def test_same_text_follows_the_current_executor(self, two_table_db):
        """A repeated SELECT text runs wherever the database currently
        executes: natively, pushed down once attached, natively again
        once detached."""
        sql = "SELECT a, b FROM r WHERE b = 4"
        native = set(two_table_db.query(sql).rows)
        assert two_table_db.stats.backend_pushdowns == 0
        two_table_db.attach_backend(SQLiteBackend())
        assert set(two_table_db.query(sql).rows) == native
        assert set(two_table_db.execute(sql).rows) == native
        assert two_table_db.stats.backend_pushdowns == 2
        two_table_db.detach_backend()
        assert set(two_table_db.query(sql).rows) == native
        assert two_table_db.stats.backend_pushdowns == 2

    def test_typing_width_mismatch_falls_back(self, two_table_db, monkeypatch):
        """Types for a different number of columns than the backend
        returned decline the SELECT (a counted fallback), rather than
        handing back uncoerced rows."""
        from repro.backends import mirror

        typed = mirror._body_columns

        def one_short(body, catalog):
            names, types = typed(body, catalog)
            return names[:-1], types[:-1]

        sql = "SELECT a, b FROM r WHERE b = 4"
        native = two_table_db.query(sql)
        two_table_db.attach_backend(SQLiteBackend())
        monkeypatch.setattr(mirror, "_body_columns", one_short)
        with pytest.raises(BackendError, match="2 columns, its typing 1"):
            two_table_db.backend.execute_query(parse_query(sql))
        result = two_table_db.query(sql)
        assert two_table_db.stats.backend_fallbacks == 1
        assert result.columns == native.columns
        assert sorted(result.rows) == sorted(native.rows)

    def test_declined_select_falls_back_on_every_run(self, two_table_db):
        """A declined SELECT is offered to the backend again on every
        run, and every run counts its fallback."""
        two_table_db.insert_rows("r", [(3, 2**70)])
        two_table_db.attach_backend(SQLiteBackend())
        for _ in range(3):
            result = two_table_db.query("SELECT a, b FROM r WHERE a > 0")
            assert len(result.rows) == 6
        assert two_table_db.stats.backend_fallbacks == 3


class TestCountedFallbacks:
    """Every pushdown entry point counts a decline before running natively.

    A value outside SQLite's integer range makes the mirror sync fail,
    so each pushed call raises and falls back.
    """

    FD = FunctionalDependency("r", ["a"], ["b"])

    @pytest.fixture
    def huge_db(self, two_table_db):
        two_table_db.insert_rows("r", [(3, 2**70)])
        return two_table_db

    @pytest.fixture
    def backend(self, huge_db):
        backend = create_backend("sqlite", huge_db)
        yield backend
        backend.close()

    def test_detection_fallback_is_counted(self, huge_db, backend):
        native = detect_conflicts(huge_db, [self.FD])
        before = huge_db.stats.backend_fallbacks
        pushed = detect_conflicts(huge_db, [self.FD], backend=backend)
        assert huge_db.stats.backend_fallbacks == before + 1
        assert set(pushed.hypergraph.edges) == set(native.hypergraph.edges)

    def test_rewriting_fallback_is_counted(self, huge_db, backend):
        rewriting = RewritingEngine(huge_db, [self.FD])
        native = rewriting.consistent_answers("SELECT * FROM r")
        before = huge_db.stats.backend_fallbacks
        pushed = rewriting.consistent_answers("SELECT * FROM r", backend=backend)
        assert huge_db.stats.backend_fallbacks == before + 1
        assert pushed.rows == native.rows

    def test_raw_answers_fallback_is_counted(self, huge_db, backend):
        native = HippoEngine(huge_db, [self.FD]).raw_answers("SELECT * FROM r")
        huge_db.attach_backend(backend)
        before = huge_db.stats.backend_fallbacks
        engine = HippoEngine(huge_db, [self.FD])
        assert huge_db.stats.backend_fallbacks == before + 1  # its detection
        before = huge_db.stats.backend_fallbacks
        pushed = engine.raw_answers("SELECT * FROM r")
        assert huge_db.stats.backend_fallbacks == before + 1
        assert pushed.rows == native.rows


def _caught_names(handler):
    caught = handler.type
    elements = caught.elts if isinstance(caught, python_ast.Tuple) else [caught]
    return {getattr(e, "attr", getattr(e, "id", None)) for e in elements}


def test_only_the_backend_layer_handles_backend_errors():
    """Outside ``repro/backends/`` nobody catches :class:`BackendError`:
    every fallback goes through ``MirrorBackend.pushdown``, which counts
    it."""
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative.startswith("backends/"):
            continue
        for node in python_ast.walk(python_ast.parse(path.read_text())):
            if isinstance(node, python_ast.ExceptHandler) and node.type is not None:
                if "BackendError" in _caught_names(node):
                    offenders.append(f"{relative}:{node.lineno}")
    assert offenders == []
