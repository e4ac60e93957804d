"""Tests for EXISTS / IN subqueries, correlation and decorrelation."""

import pytest

from repro.engine import Database


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
    database.execute("CREATE TABLE s (a INTEGER, b INTEGER)")
    database.execute("INSERT INTO r VALUES (1,1), (1,2), (2,5), (3,7), (4, NULL)")
    database.execute("INSERT INTO s VALUES (1,9), (2,5), (5,0)")
    return database


class TestExists:
    def test_uncorrelated_exists(self, db):
        rows = db.query(
            "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.b = 0)"
        ).rows
        assert len(rows) == 5

    def test_uncorrelated_exists_false(self, db):
        rows = db.query(
            "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.b = 42)"
        ).rows
        assert rows == []

    def test_correlated_exists(self, db):
        rows = db.query(
            "SELECT DISTINCT r.a FROM r WHERE EXISTS"
            " (SELECT * FROM s WHERE s.a = r.a)"
        ).rows
        assert sorted(rows) == [(1,), (2,)]

    def test_correlated_not_exists(self, db):
        rows = db.query(
            "SELECT DISTINCT r.a FROM r WHERE NOT EXISTS"
            " (SELECT * FROM s WHERE s.a = r.a)"
        ).rows
        assert sorted(rows) == [(3,), (4,)]

    def test_correlated_with_residual(self, db):
        # The FD-residue shape: equality + correlated inequality.
        rows = db.query(
            "SELECT r.a, r.b FROM r WHERE NOT EXISTS"
            " (SELECT * FROM r t WHERE t.a = r.a AND t.b <> r.b)"
        ).rows
        assert sorted(rows, key=repr) == [(2, 5), (3, 7), (4, None)]

    def test_decorrelation_probes_cached(self, db):
        db.stats.reset()
        db.query(
            "SELECT r.a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.a = r.a)"
        )
        # One inner evaluation (hash build), one probe per outer row.
        assert db.stats.subquery_evaluations == 1
        assert db.stats.subquery_cache_hits == 5

    def test_null_outer_key_never_matches(self, db):
        rows = db.query(
            "SELECT r.a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.b = r.b)"
        ).rows
        assert sorted(rows) == [(2,)]  # r(2,5) matches s(2,5); NULL b does not

    def test_exists_with_local_filter(self, db):
        rows = db.query(
            "SELECT DISTINCT r.a FROM r WHERE EXISTS"
            " (SELECT * FROM s WHERE s.a = r.a AND s.b > 5)"
        ).rows
        assert rows == [(1,)]


class TestInSubquery:
    def test_in_subquery(self, db):
        rows = db.query("SELECT DISTINCT a FROM r WHERE a IN (SELECT a FROM s)").rows
        assert sorted(rows) == [(1,), (2,)]

    def test_not_in_subquery(self, db):
        rows = db.query(
            "SELECT DISTINCT a FROM r WHERE a NOT IN (SELECT a FROM s WHERE a < 5)"
        ).rows
        assert sorted(rows) == [(3,), (4,)]

    def test_correlated_in_subquery(self, db):
        rows = db.query(
            "SELECT r.a FROM r WHERE r.b IN (SELECT s.b FROM s WHERE s.a = r.a)"
        ).rows
        assert rows == [(2,)]

    def test_in_subquery_null_needle(self, db):
        # r(4, NULL): NULL IN (...) is unknown, row filtered out.
        rows = db.query("SELECT a FROM r WHERE b IN (SELECT b FROM s)").rows
        assert rows == [(2,)]


class TestNestedCorrelation:
    def test_two_level_correlation(self, db):
        # Inner-most subquery references the outermost scope.
        rows = db.query(
            "SELECT DISTINCT r.a FROM r WHERE EXISTS ("
            "  SELECT * FROM s WHERE s.a = r.a AND EXISTS ("
            "    SELECT * FROM s t WHERE t.b = s.b AND t.a <> r.a))"
        ).rows
        assert rows == []

    def test_nested_exists_same_table(self, db):
        rows = db.query(
            "SELECT DISTINCT a FROM s WHERE EXISTS ("
            "  SELECT * FROM r WHERE r.a = s.a AND EXISTS ("
            "    SELECT * FROM r u WHERE u.a = r.a AND u.b <> r.b))"
        ).rows
        assert rows == [(1,)]


class TestGenericFallbackPath:
    """Shapes decorrelation refuses: the memoized generic path must work."""

    def test_correlated_inequality_only(self, db):
        # No equality conjunct at all: cannot hash, nested evaluation.
        rows = db.query(
            "SELECT DISTINCT r.a FROM r WHERE EXISTS"
            " (SELECT * FROM s WHERE s.a > r.a)"
        ).rows
        assert sorted(rows) == [(1,), (2,), (3,), (4,)]

    def test_exists_over_union(self, db):
        rows = db.query(
            "SELECT DISTINCT r.a FROM r WHERE EXISTS"
            " ((SELECT a FROM s WHERE s.a = r.a) UNION"
            "  (SELECT a FROM s WHERE s.a = r.a + 2))"
        ).rows
        assert sorted(rows) == [(1,), (2,), (3,)]

    def test_exists_with_limit(self, db):
        rows = db.query(
            "SELECT DISTINCT r.a FROM r WHERE EXISTS"
            " (SELECT * FROM s WHERE s.a = r.a LIMIT 1)"
        ).rows
        assert sorted(rows) == [(1,), (2,)]

    def test_uncorrelated_cached_once(self, db):
        db.stats.reset()
        db.query(
            "SELECT r.a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.a > 4)"
        )
        # The generic path memoizes on captures; none -> one evaluation.
        assert db.stats.subquery_evaluations == 1

    def test_outer_bound_key_probes_a_live_index(self):
        # GROUP BY keeps the subquery on the generic path.  Its
        # ``t2.a = t.a`` is a key bound by the outer row, so it picks the
        # index on ``a`` the way ``t2.a = 5`` would: 4 rows per outer row
        # instead of a scan of all 200.
        query = (
            "SELECT a, b FROM t WHERE EXISTS (SELECT t2.a FROM t t2"
            " WHERE t2.a = t.a AND t2.b > t.b GROUP BY t2.a)"
        )
        answers, scanned = [], []
        for indexed in (False, True):
            database = Database()
            database.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
            database.insert_rows("t", [(i % 50, i) for i in range(200)])
            if indexed:
                database.execute("CREATE INDEX t_a ON t (a)")
            before = database.stats.rows_scanned
            answers.append(sorted(database.query(query).rows))
            scanned.append(database.stats.rows_scanned - before)
        assert len(answers[0]) == 150
        assert answers[1] == answers[0]
        assert scanned == [200 + 200 * 200, 200 + 200 * 4]
