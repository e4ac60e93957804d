"""The differential oracle suite: SQL backends vs the native engine.

Random mixed workloads -- DML interleaved with rewritten-CQA answering
and conflict detection -- run against each SQL backend with the native
engine as the oracle.  At every checked cut the backend's answers
(tree evaluation, rewritten consistent answers, conflict-hypergraph
edges) must equal the native ones exactly.

DuckDB cases *skip visibly* when the optional driver is absent; they
never silently pass.  DuckDB's mirror layout (tids in an explicit
``_tid`` column, deleted by ``_tid`` on a feed delta) runs regardless,
on SQLite (``sqlite-explicit-tid``).
"""

import random

import pytest

from repro.backends import create_backend, duckdb_available
from repro.conflicts.detection import detect_conflicts
from repro.constraints import (
    ConstraintAtom,
    DenialConstraint,
    FunctionalDependency,
)
from repro.core.hippo import HippoEngine
from repro.engine.database import Database
from repro.ra import evaluate_tree, from_sql_query
from repro.rewriting.rewrite import RewritingEngine, classify
from repro.sql.parser import parse_expression, parse_query

BACKEND_NAMES = [
    "sqlite",
    # DuckDB's explicit-tid mirror layout on SQLite (tests/backends/conftest.py)
    "sqlite-explicit-tid",
    pytest.param(
        "duckdb",
        marks=pytest.mark.skipif(
            not duckdb_available(), reason="duckdb driver not installed"
        ),
    ),
]

NAMES = ["ann", "bob", "carol", "dave", "eve", "fay"]
DEPTS = ["eng", "ops", "hr"]

_JOIN = (
    "SELECT e.name, e.dept, e.salary, M.name, M.dept, M.level"
    " FROM emp e, mgr M WHERE e.dept = M.dept"
)

#: Queries evaluated at every cut (full-column: SJUD's projection
#: restriction forbids dropping undetermined attributes).
CHECK_QUERIES = [
    "SELECT name, dept, salary FROM emp",
    "SELECT name, dept, salary FROM emp WHERE salary >= 55",
    "SELECT x.name, x.dept, x.salary FROM emp x WHERE x.dept = 'eng'",
    "SELECT name, dept, salary FROM emp WHERE dept = 'ops'"
    " UNION SELECT name, dept, salary FROM emp WHERE salary < 45",
    "SELECT name, dept, salary FROM emp"
    " EXCEPT SELECT name, dept, salary FROM emp WHERE salary BETWEEN 40 AND 60",
    "SELECT name, dept, salary FROM emp WHERE name LIKE '%a%'",
    # One per access path the planner picks for a core (emp.dept is
    # indexed, nothing else is; mgr is bound through an upper-case alias):
    "SELECT name, dept, salary FROM emp WHERE dept = 'hr'",  # index lookup
    "SELECT name, dept, salary FROM emp WHERE name = 'ann'",  # column equality
    _JOIN + " AND M.dept = 'ops'",  # single-table predicate on the 2nd FROM item
    _JOIN + " AND e.salary > M.level",  # equi-join + non-equi residual
    _JOIN + " AND M.level > 70 UNION " + _JOIN + " AND e.dept = 'eng'",
    _JOIN + " EXCEPT " + _JOIN + " AND e.salary <= M.level",
]

#: ORDER BY on a core and on a difference: every answering path (the
#: prover, rewriting native and pushed, raw answers native and pushed)
#: returns the same *list*, ties included.  Over ``mgr``, which only
#: ``cap`` constrains, so several answers survive to be ordered.
ORDERED_QUERIES = [
    "SELECT name, dept, level FROM mgr ORDER BY 2 DESC",
    "SELECT name, dept, level FROM mgr ORDER BY dept DESC, level",
    "SELECT name, dept, level FROM mgr"
    " EXCEPT SELECT name, dept, salary FROM emp ORDER BY level DESC",
]

CONSTRAINTS = [
    FunctionalDependency("emp", ["name"], ["salary"]),
    # Nobody out-earns a manager of their department: the residual join
    # is a hash join on dept with a non-equi residual.
    DenialConstraint(
        "cap",
        (ConstraintAtom("e", "emp"), ConstraintAtom("m", "mgr")),
        parse_expression("e.dept = m.dept AND e.salary > m.level"),
    ),
]


def fresh_db(rng, rows=24):
    db = Database()
    db.execute("CREATE TABLE emp (name TEXT, dept TEXT, salary INTEGER)")
    db.execute("CREATE TABLE mgr (name TEXT, dept TEXT, level INTEGER)")
    db.execute("CREATE INDEX emp_dept ON emp (dept)")
    db.insert_rows(
        "emp",
        [
            (rng.choice(NAMES), rng.choice(DEPTS), rng.randrange(30, 90))
            for _ in range(rows)
        ],
    )
    db.insert_rows(
        "mgr",
        [
            (rng.choice(NAMES), rng.choice(DEPTS), rng.randrange(50, 95))
            for _ in range(rows // 4)
        ],
    )
    return db


def random_dml(db, rng):
    """One random mutation drawn from insert / delete / update."""
    kind = rng.choice(["insert", "insert", "delete", "update", "manager"])
    name = rng.choice(NAMES)
    if kind == "manager":
        db.execute(f"DELETE FROM mgr WHERE Mgr.level < {rng.randrange(50, 70)}")
        db.insert_rows(
            "mgr", [(name, rng.choice(DEPTS), rng.randrange(50, 95))]
        )
    elif kind == "insert":
        db.insert_rows(
            "emp", [(name, rng.choice(DEPTS), rng.randrange(30, 90))]
        )
    elif kind == "delete":
        db.execute(
            f"DELETE FROM emp WHERE name = '{name}'"
            f" AND salary < {rng.randrange(30, 90)}"
        )
    else:
        db.execute(
            f"UPDATE emp SET salary = {rng.randrange(30, 90)}"
            f" WHERE name = '{name}' AND dept = '{rng.choice(DEPTS)}'"
        )


def tree_of(db, text):
    return from_sql_query(parse_query(text), db.catalog)


def assert_cut_equal(db, backend):
    """One cut: trees, rewritten answers and conflict edges all match."""
    for text in CHECK_QUERIES:
        tree = tree_of(db, text)
        assert backend.execute_tree(tree) == evaluate_tree(tree, db), text

    rewriting = RewritingEngine(db, CONSTRAINTS)
    rewritable = [
        text
        for text in CHECK_QUERIES
        if classify(text, CONSTRAINTS, schema=db).rewritable
    ]
    assert rewritable[:3] == CHECK_QUERIES[:3] and len(rewritable) == 9
    assert all(classify(t, CONSTRAINTS, schema=db).rewritable for t in ORDERED_QUERIES)
    hippo = HippoEngine(db, CONSTRAINTS)
    try:
        for text in rewritable + ORDERED_QUERIES:
            pushed = rewriting.consistent_answers(text, backend=backend)
            native = rewriting.consistent_answers(text)
            proved = hippo.consistent_answers(text)
            assert pushed.columns == native.columns == proved.columns, text
            assert pushed.rows == native.rows == proved.rows, text
    finally:
        hippo.detach()

    pushed_report = detect_conflicts(db, CONSTRAINTS, backend=backend)
    native_report = detect_conflicts(db, CONSTRAINTS)
    assert set(pushed_report.hypergraph.edges) == set(
        native_report.hypergraph.edges
    )


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
@pytest.mark.parametrize("seed", [7, 23, 91])
class TestRandomWorkloads:
    def test_mixed_dml_cqa_detection(self, backend_name, seed, make_backend):
        rng = random.Random(seed)
        db = fresh_db(rng)
        backend = make_backend(backend_name, db)
        try:
            assert_cut_equal(db, backend)  # the initial cut
            for _ in range(6):
                random_dml(db, rng)
                assert_cut_equal(db, backend)
        finally:
            backend.close()

    def test_hippo_engine_end_to_end(self, backend_name, seed, make_backend):
        """The full pipeline agrees regardless of the attached backend:
        full detection and raw answers run there, and every answer list
        equals the native one."""
        rng = random.Random(seed)
        db = fresh_db(rng)
        queries = [CHECK_QUERIES[1], *ORDERED_QUERIES]
        engine = HippoEngine(db, CONSTRAINTS)
        native = [
            (engine.consistent_answers(q), engine.raw_answers(q)) for q in queries
        ]
        engine.detach()
        db.attach_backend(make_backend(backend_name))
        try:
            pushed_engine = HippoEngine(db, CONSTRAINTS)
            assert db.stats.backend_pushdowns > 0  # full detection
            for text, (consistent, raw) in zip(queries, native):
                before = db.stats.backend_pushdowns
                pushed_raw = pushed_engine.raw_answers(text)
                assert db.stats.backend_pushdowns == before + 1, text
                assert pushed_raw.columns == raw.columns, text
                assert pushed_raw.rows == raw.rows, text
                pushed = pushed_engine.consistent_answers(text)
                assert pushed.columns == consistent.columns, text
                assert pushed.rows == consistent.rows, text
            assert db.stats.backend_fallbacks == 0
        finally:
            db.backend.close()


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_rewriting_pushdown_counts(backend_name, make_backend):
    """Direct rewriting pushes are visible in the execution stats."""
    rng = random.Random(3)
    db = fresh_db(rng)
    backend = make_backend(backend_name, db)
    try:
        before = db.stats.backend_pushdowns
        RewritingEngine(db, CONSTRAINTS).consistent_answers(
            CHECK_QUERIES[0], backend=backend
        )
        assert db.stats.backend_pushdowns == before + 1
    finally:
        backend.close()


#: Pushed SELECTs whose output columns come out of a derived table, a
#: set operation with a NULL branch, a predicate or a starred subquery.
DERIVED_QUERIES = [
    "SELECT * FROM (SELECT a, flag FROM t) x",
    "SELECT x.flag FROM (SELECT flag FROM t) x",
    "SELECT y.a, y.flag FROM (SELECT * FROM (SELECT a, flag FROM t) x) y",
    "SELECT * FROM (SELECT a, flag FROM t) x JOIN t ON x.a = t.a",
    "SELECT a, NULL FROM t WHERE a > 5 UNION SELECT a, flag FROM t",
    "SELECT a, flag = TRUE FROM t",
    "SELECT a FROM t WHERE a IN (SELECT * FROM s)",
]


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
@pytest.mark.parametrize("text", DERIVED_QUERIES)
def test_derived_table_columns_keep_their_type(backend_name, text, make_backend):
    """A BOOLEAN output comes back a bool, not the integer the driver
    stores it as, and every query runs on the backend (no fallback)."""
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, flag BOOLEAN)")
    db.execute("INSERT INTO t VALUES (1, TRUE), (2, FALSE), (3, NULL)")
    db.execute("CREATE TABLE s (a INTEGER)")
    db.execute("INSERT INTO s VALUES (1), (3)")
    native = db.query(text).rows
    db.attach_backend(make_backend(backend_name))
    try:
        pushed = db.query(text).rows
        assert db.stats.backend_pushdowns == 1
        assert db.stats.backend_fallbacks == 0
        # (1,) == (True,) in Python: compare what prints
        assert sorted(map(repr, pushed)) == sorted(map(repr, native))
    finally:
        db.backend.close()


def test_duckdb_is_exercised_or_skipped():
    """Meta-check: the duckdb parameter is a real case, not a no-op.

    When the driver is absent every duckdb case above reports as a
    *skip* in the test summary; when present, construction must work.
    """
    if duckdb_available():
        backend = create_backend("duckdb")
        assert backend.name == "duckdb"
        backend.close()
    else:
        from repro.errors import BackendError

        with pytest.raises(BackendError, match="not installed"):
            create_backend("duckdb")
