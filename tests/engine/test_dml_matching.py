"""UPDATE / DELETE ``WHERE`` matching goes through the one planner.

``Planner.plan_matching`` hands DML the access path a SELECT over the
same table and predicate would get; these tests pin the plan shapes
(through ``Database.explain``), what each shape costs, the semantics
that must not depend on the shape, and -- on a random statement stream
-- that an index changes nothing a client or a feed consumer can see.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.storage as storage
from repro.engine.database import Database
from repro.errors import ExecutionError, ReproError, TypeError_


def make_db(indexed: bool) -> Database:
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    db.execute("CREATE TABLE s (a INTEGER)")
    db.insert_rows("t", [(k % 7, k) for k in range(40)])
    db.insert_rows("s", [(1,), (3,)])
    if indexed:
        db.execute("CREATE INDEX t_a ON t (a)")
    return db


@pytest.fixture
def columnar_builds(monkeypatch):
    """Counts ``ColumnStore`` constructions (a scan of a mutated table)."""
    built = []
    real = storage.ColumnStore
    monkeypatch.setattr(
        storage, "ColumnStore", lambda *args: built.append(1) or real(*args)
    )
    return built


class TestPlanShape:
    @pytest.mark.parametrize(
        "sql", ["DELETE FROM t WHERE a = 5", "UPDATE t SET b = 0 WHERE a = 5"]
    )
    def test_key_equality_with_an_index_touches_only_the_matches(
        self, sql, columnar_builds
    ):
        db = make_db(indexed=True)
        assert db.explain(sql) == "IndexScan(t on [a] +tid)"
        before = db.stats.rows_scanned
        matches = db.execute(sql).rowcount
        assert matches == 5
        assert db.stats.rows_scanned - before == matches
        assert columnar_builds == []

    def test_residual_conjuncts_filter_the_index_rows(self):
        db = make_db(indexed=True)
        sql = "DELETE FROM t WHERE a = 5 AND b > 20"
        assert db.explain(sql) == "Filter\n  IndexScan(t on [a] +tid)"
        before = db.stats.rows_scanned
        assert db.execute(sql).rowcount == 2
        assert db.stats.rows_scanned - before == 5

    def test_equality_without_an_index_is_a_filtered_scan(self):
        db = make_db(indexed=False)
        assert db.explain("DELETE FROM t WHERE a = 5") == "Filter\n  Scan(t +tid)"

    def test_anything_else_filters_a_full_scan(self):
        db = make_db(indexed=True)
        assert db.explain("UPDATE t SET b = 0 WHERE a < 2") == "Filter\n  Scan(t +tid)"
        assert db.explain("DELETE FROM t") == "Scan(t +tid)"

    def test_subquery_conjuncts_apply_after_the_access_path(self):
        db = make_db(indexed=True)
        sql = "DELETE FROM t WHERE a IN (SELECT a FROM s) AND a = 3"
        assert db.explain(sql) == "Filter\n  IndexScan(t on [a] +tid)"

    def test_explain_refuses_statements_without_a_plan(self):
        with pytest.raises(ExecutionError, match="SELECT, UPDATE or DELETE"):
            make_db(indexed=False).explain("INSERT INTO s VALUES (1)")


@pytest.mark.parametrize("indexed", [True, False])
class TestSemantics:
    def test_matches_are_materialised_before_the_first_mutation(self, indexed):
        # Moving a row from key 5 to key 6 must not make the statement
        # find it again under 6 -- nor skip a 5 the index has yet to yield.
        db = make_db(indexed)
        fives = db.query("SELECT b FROM t WHERE a = 5").as_set()
        sixes = db.query("SELECT b FROM t WHERE a = 6").as_set()
        assert db.execute("UPDATE t SET a = a + 1 WHERE a = 5").rowcount == 5
        assert db.query("SELECT b FROM t WHERE a = 5").rows == []
        assert db.query("SELECT b FROM t WHERE a = 6").as_set() == fives | sixes

    def test_update_keeps_tids_and_evaluates_over_the_old_row(self, indexed):
        db = make_db(indexed)
        before = dict(db.table("t").items())
        db.execute("UPDATE t SET a = b, b = a WHERE a = 2")
        after = dict(db.table("t").items())
        assert after.keys() == before.keys()
        for tid, (a, b) in before.items():
            assert after[tid] == ((b, a) if a == 2 else (a, b))

    def test_uncorrelated_subquery(self, indexed):
        db = make_db(indexed)
        assert db.execute("DELETE FROM t WHERE a IN (SELECT a FROM s)").rowcount == 12
        assert db.query("SELECT * FROM t WHERE a = 1 OR a = 3").rows == []

    def test_correlated_subquery(self, indexed):
        db = make_db(indexed)
        sql = (
            "UPDATE t SET b = -1 WHERE a = 3"
            " AND EXISTS (SELECT * FROM s WHERE s.a = t.a)"
        )
        assert db.execute(sql).rowcount == 6
        assert db.execute(sql.replace("a = 3", "a = 2")).rowcount == 0
        assert len(db.query("SELECT * FROM t WHERE b = -1")) == 6

    @pytest.mark.parametrize(
        "key", ["t2.a = t.a", "t2.a = t.a + 0"], ids=["decorrelated", "generic"]
    )
    def test_a_subquery_in_set_reads_the_table_as_the_statement_found_it(
        self, indexed, key
    ):
        # Each row asks whether its key holds a larger b.  Read live, the
        # update of (1,20) to (1,0) would hide it from (1,10): (1,0) twice.
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 20), (1, 10), (2, 5)")
        if indexed:
            db.execute("CREATE INDEX t_a ON t (a)")
        db.execute(
            "UPDATE t SET b = CASE WHEN EXISTS (SELECT * FROM t t2"
            f" WHERE {key} AND t2.b > t.b) THEN 1 ELSE 0 END"
        )
        assert sorted(db.table("t").rows()) == [(1, 0), (1, 1), (2, 0)]

    def test_unknown_column_fails_before_anything_changes(self, indexed):
        db = make_db(indexed)
        with pytest.raises(ReproError):
            db.execute("DELETE FROM t WHERE a = 5 AND nope = 1")
        assert len(db.table("t")) == 40


LITERALS = ["'x'", "1.0", "NULL", "1"]


@pytest.mark.parametrize("literal", LITERALS)
@pytest.mark.parametrize(
    "template",
    [
        "SELECT * FROM t WHERE a = {}",
        "UPDATE t SET b = 0 WHERE a = {}",
        "DELETE FROM t WHERE a = {}",
    ],
)
def test_an_index_never_changes_the_outcome_of_an_equality(template, literal):
    """Incomparable literals raise, NULL matches nothing and numeric
    literals compare numerically -- whichever access path serves."""
    outcomes = []
    for indexed in (True, False):
        db = make_db(indexed)
        try:
            result = db.execute(template.format(literal))
            outcome = (sorted(result.rows), result.rowcount)
        except TypeError_ as exc:
            outcome = str(exc)
        outcomes.append((outcome, dict(db.table("t").items())))
    assert outcomes[0] == outcomes[1]
    expected = {"'x'": "cannot compare", "NULL": 0}.get(literal, 6)
    outcome = outcomes[0][0]
    if isinstance(expected, str):
        assert expected in outcome
    else:
        assert outcome[1] == expected


VALUES = st.integers(min_value=0, max_value=4)
PREDICATES = st.one_of(
    st.builds("a = {}".format, VALUES),
    st.builds("a = {} AND b = {}".format, VALUES, VALUES),
    st.builds("b < {}".format, VALUES),
    st.builds("a = {} AND b > {}".format, VALUES, VALUES),
    st.builds("a IN (SELECT a FROM s WHERE s.a > {})".format, VALUES),
    st.just("a = 1.0"),
    st.just("a = NULL"),
)
STATEMENTS = st.one_of(
    st.builds("INSERT INTO t VALUES ({}, {})".format, VALUES, VALUES),
    st.builds("DELETE FROM t WHERE {}".format, PREDICATES),
    st.builds("UPDATE t SET a = a + 1 WHERE {}".format, PREDICATES),
    st.builds("UPDATE t SET b = {} WHERE {}".format, VALUES, PREDICATES),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(STATEMENTS, max_size=25))
def test_twin_databases_agree_with_and_without_an_index(statements):
    twins = []
    for indexed in (True, False):
        db = Database()
        consumer = db.changes.feed.consumer("twin", start="beginning")
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        db.execute("CREATE TABLE s (a INTEGER)")
        db.execute("INSERT INTO s VALUES (1), (3)")
        if indexed:
            db.execute("CREATE INDEX t_a ON t (a)")
            db.execute("CREATE INDEX t_ab ON t (a, b)")
        rowcounts = [db.execute(sql).rowcount for sql in statements]
        records, lost = consumer.poll()
        assert not lost
        twins.append(
            (rowcounts, list(db.table("t").items()), db.table("t").next_tid, records)
        )
    assert twins[0] == twins[1]
