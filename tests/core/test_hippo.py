"""Integration tests for the full HippoEngine pipeline."""

import pytest

from repro import Database, HippoEngine
from repro.backends import SQLiteBackend
from repro.constraints import (
    ConstraintAtom,
    DenialConstraint,
    ExclusionConstraint,
    FunctionalDependency,
)
from repro.engine.types import default_order, sort_key
from repro.errors import UnsupportedQueryError
from repro.repairs import ground_truth_consistent_answers
from repro.rewriting.rewrite import RewritingEngine
from repro.sql.parser import parse_expression


@pytest.fixture
def hippo(emp_db):
    fd = FunctionalDependency("emp", ["name"], ["dept", "salary"])
    return HippoEngine(emp_db, [fd])


class TestAnswers:
    def test_selection(self, hippo):
        answers = hippo.consistent_answers("SELECT * FROM emp WHERE salary >= 10")
        assert answers.rows == [("bob", "ee", 20), ("dave", "ee", 18)]
        assert answers.columns == ["name", "dept", "salary"]

    def test_matches_ground_truth(self, hippo):
        for text in [
            "SELECT * FROM emp",
            "SELECT * FROM emp WHERE dept = 'cs'",
            "SELECT name, dept FROM emp WHERE salary = 15",
            "SELECT name, dept FROM emp WHERE salary = 10"
            " UNION SELECT name, dept FROM emp WHERE salary = 12",
            "SELECT * FROM emp EXCEPT SELECT * FROM emp WHERE dept = 'ee'",
        ]:
            tree, _ = hippo.parse(text)
            truth = ground_truth_consistent_answers(
                hippo.db, hippo.hypergraph, tree
            )
            assert hippo.consistent_answers(text).as_set() == truth, text

    def test_all_membership_strategies_agree(self, emp_db):
        fd = FunctionalDependency("emp", ["name"], ["dept", "salary"])
        text = (
            "SELECT name, dept FROM emp WHERE salary = 10"
            " UNION SELECT name, dept FROM emp WHERE salary = 12"
        )
        results = {
            strategy: HippoEngine(emp_db, [fd], membership=strategy)
            .consistent_answers(text)
            .as_set()
            for strategy in ("query", "cached", "provenance")
        }
        assert len(set(results.values())) == 1

    def test_core_on_off_agree(self, emp_db):
        fd = FunctionalDependency("emp", ["name"], ["dept", "salary"])
        text = "SELECT * FROM emp WHERE salary > 9"
        with_core = HippoEngine(emp_db, [fd], use_core=True)
        without_core = HippoEngine(emp_db, [fd], use_core=False)
        assert (
            with_core.consistent_answers(text).as_set()
            == without_core.consistent_answers(text).as_set()
        )
        assert with_core.consistent_answers(text).stats["skipped_by_core"] > 0
        assert without_core.consistent_answers(text).stats["skipped_by_core"] == 0

    def test_provenance_avoids_db_queries(self, emp_db):
        fd = FunctionalDependency("emp", ["name"], ["dept", "salary"])
        base = HippoEngine(emp_db, [fd], membership="query", use_core=False)
        optimized = HippoEngine(emp_db, [fd], membership="provenance", use_core=False)
        text = "SELECT * FROM emp"
        base_stats = base.consistent_answers(text).stats["membership"]
        optimized_stats = optimized.consistent_answers(text).stats["membership"]
        assert base_stats.db_queries > 0
        assert optimized_stats.db_queries == 0
        assert optimized_stats.free_answers > 0

    def test_order_by_applied_to_answers(self, hippo):
        answers = hippo.consistent_answers(
            "SELECT * FROM emp WHERE salary >= 10 ORDER BY salary DESC"
        )
        assert answers.rows == [("bob", "ee", 20), ("dave", "ee", 18)]

    def test_order_by_position(self, hippo):
        answers = hippo.consistent_answers("SELECT * FROM emp ORDER BY 3")
        assert [row[2] for row in answers.rows] == sorted(
            row[2] for row in answers.rows
        )

    def test_order_by_non_output_rejected(self, hippo):
        with pytest.raises(UnsupportedQueryError):
            hippo.consistent_answers(
                "SELECT name, dept FROM emp WHERE salary = 10 ORDER BY salary"
            )

    def test_stats_shape(self, hippo):
        stats = hippo.consistent_answers("SELECT * FROM emp").stats
        assert stats["candidates"] == 6
        assert stats["answers"] == 2
        assert stats["total_seconds"] > 0
        assert "hypergraph" not in stats
        assert hippo.hypergraph.summary()["edges"] == 2


class TestOneAnswerOrder:
    """Every CQA path applies the query's ORDER BY to the same answer
    list: the prover, and the rewriting natively and pushed to SQLite."""

    @pytest.mark.parametrize(
        "query, expected",
        [
            ("SELECT a, b FROM r ORDER BY a DESC", [(5, 0), (4, 4), (3, 7), (2, 5)]),
            ("SELECT a, b FROM r ORDER BY 2 DESC", [(3, 7), (2, 5), (4, 4), (5, 0)]),
            ("SELECT a, b FROM r ORDER BY a DESC, b", [(5, 0), (4, 4), (3, 7), (2, 5)]),
            (
                "SELECT a, b FROM r EXCEPT SELECT a, b FROM s ORDER BY a DESC",
                [(5, 0), (3, 7)],
            ),
        ],
    )
    def test_every_path_returns_the_same_list(self, two_table_db, query, expected):
        two_table_db.execute("INSERT INTO r VALUES (5, 0)")
        fd = FunctionalDependency("r", ["a"], ["b"])
        rewriting = RewritingEngine(two_table_db, [fd])
        backend = SQLiteBackend()
        backend.attach(two_table_db)
        try:
            answers = [
                HippoEngine(two_table_db, [fd]).consistent_answers(query),
                rewriting.consistent_answers(query),
                rewriting.consistent_answers(query, backend=backend),
            ]
            assert [a.rows for a in answers] == [expected] * 3
        finally:
            backend.close()


class TestRefutedSkipsTheProver:
    """A candidate whose one witness row is dirty is rejected by the
    envelope; the Prover sees only what that rule cannot decide."""

    def test_a_key_conflict_scan_sends_nothing_to_the_prover(self):
        db = Database()
        db.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        db.insert_rows("t", [(i // 2, i) for i in range(20)] + [(100, 0)])
        hippo = HippoEngine(db, [FunctionalDependency("t", ["k"], ["v"])])
        answers = hippo.consistent_answers("SELECT * FROM t")
        assert answers.rows == [(100, 0)]
        stats = answers.stats
        assert (stats["candidates"], stats["certain"], stats["refuted"]) == (21, 1, 20)
        assert stats["skipped_by_core"] == 21
        assert stats["prover"].candidates_checked == 0
        # Possible answers cannot use a refutation: the 20 are proved.
        possible = hippo.possible_answers("SELECT * FROM t").stats
        assert possible["refuted"] == 0
        assert possible["prover"].candidates_checked == 20

    def test_a_city_union_still_reaches_the_prover(self):
        """Each candidate has one dirty row in *each* branch: each branch
        alone is falsified by some repair, the union by none."""
        db = Database()
        db.execute("CREATE TABLE lives (name TEXT, city TEXT, country TEXT)")
        db.insert_rows(
            "lives",
            [
                ("ann", "Paris", "FR"),
                ("ann", "Lyon", "FR"),
                ("bob", "Lyon", "FR"),
                ("bob", "Paris", "FR"),
            ],
        )
        fd = FunctionalDependency("lives", ["name"], ["city", "country"])
        hippo = HippoEngine(db, [fd])
        text = (
            "SELECT name, country FROM lives WHERE city = 'Paris'"
            " UNION SELECT name, country FROM lives WHERE city = 'Lyon'"
        )
        answers = hippo.consistent_answers(text)
        assert answers.rows == [("ann", "FR"), ("bob", "FR")]
        stats = answers.stats
        assert (stats["candidates"], stats["certain"], stats["refuted"]) == (2, 0, 0)
        assert stats["prover"].candidates_checked == 2
        assert stats["prover"].consistent == 2


class TestBaselines:
    def test_raw_answers(self, hippo):
        assert len(hippo.raw_answers("SELECT * FROM emp").rows) == 6

    def test_cleaned_is_subset_for_monotone(self, hippo):
        text = "SELECT * FROM emp WHERE salary >= 10"
        cleaned = hippo.cleaned_answers(text).as_set()
        consistent = hippo.consistent_answers(text).as_set()
        raw = hippo.raw_answers(text).as_set()
        assert cleaned <= consistent <= raw

    def test_cleaning_can_be_wrong_for_difference(self):
        """Cleaning is not merely incomplete: with difference it returns
        answers that are NOT consistent (the introduction's point that
        removing conflicting data "is not a good option")."""
        db = Database()
        db.execute("CREATE TABLE p (a INTEGER, b INTEGER)")
        db.execute("CREATE TABLE q (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO p VALUES (1, 5)")
        db.execute("INSERT INTO q VALUES (1, 5), (1, 6)")  # q's key 1 disputed
        fd = FunctionalDependency("q", ["a"], ["b"])
        hippo = HippoEngine(db, [fd])
        text = "SELECT * FROM p EXCEPT SELECT * FROM q"
        truth = ground_truth_consistent_answers(
            db, hippo.hypergraph, hippo.parse(text)[0]
        )
        # The repair keeping q(1,5) excludes p(1,5) from the difference.
        assert truth == frozenset()
        assert hippo.consistent_answers(text).as_set() == truth
        # Cleaning deleted both q tuples and wrongly reports p(1,5).
        assert hippo.cleaned_answers(text).as_set() == {(1, 5)}

    def test_cleaning_loses_union_information(self, hippo):
        text = (
            "SELECT name, dept FROM emp WHERE salary = 10"
            " UNION SELECT name, dept FROM emp WHERE salary = 12"
        )
        assert hippo.consistent_answers(text).rows == [("ann", "cs")]
        assert hippo.cleaned_answers(text).rows == []


class TestConstraintVariety:
    def test_exclusion_constraint(self, two_table_db):
        excl = ExclusionConstraint("r", "s", [("a", "a"), ("b", "b")])
        hippo = HippoEngine(two_table_db, [excl])
        answers = hippo.consistent_answers("SELECT * FROM r")
        # r(2,5) and r(4,4) clash with s; r(1,*), r(3,7) survive everywhere.
        assert answers.as_set() == {(1, 1), (1, 2), (3, 7)}

    def test_ternary_constraint(self, two_table_db):
        denial = DenialConstraint(
            "t",
            (
                ConstraintAtom("x", "r"),
                ConstraintAtom("y", "r"),
                ConstraintAtom("z", "s"),
            ),
            parse_expression("x.a = y.a AND x.b < y.b AND z.a = x.a"),
        )
        two_table_db.execute("INSERT INTO s VALUES (1, 0)")
        hippo = HippoEngine(two_table_db, [denial])
        tree, _ = hippo.parse("SELECT * FROM r")
        truth = ground_truth_consistent_answers(
            two_table_db, hippo.hypergraph, tree
        )
        assert hippo.consistent_answers("SELECT * FROM r").as_set() == truth

    def test_multiple_constraints(self, emp_db):
        emp_db.execute("CREATE TABLE retired (name TEXT)")
        emp_db.execute("INSERT INTO retired VALUES ('dave')")
        constraints = [
            FunctionalDependency("emp", ["name"], ["dept", "salary"]),
            ExclusionConstraint("emp", "retired", [("name", "name")]),
        ]
        hippo = HippoEngine(emp_db, constraints)
        answers = hippo.consistent_answers("SELECT * FROM emp")
        # dave now conflicts with his retirement record.
        assert answers.as_set() == {("bob", "ee", 20)}


class TestRefresh:
    def test_refresh_after_data_change(self, hippo):
        before = hippo.consistent_answers("SELECT * FROM emp").as_set()
        hippo.db.execute("INSERT INTO emp VALUES ('bob', 'ee', 99)")
        hippo.refresh()
        after = hippo.consistent_answers("SELECT * FROM emp").as_set()
        assert ("bob", "ee", 20) in before
        assert ("bob", "ee", 20) not in after

    def test_a_failed_advance_is_delivered_again(self, hippo, monkeypatch):
        from repro.conflicts.incremental import IncrementalDetector

        apply_records = IncrementalDetector.apply_records

        def fail_once(detector, records):
            monkeypatch.setattr(IncrementalDetector, "apply_records", apply_records)
            raise RuntimeError("apply failed")

        monkeypatch.setattr(IncrementalDetector, "apply_records", fail_once)
        hippo.db.execute("INSERT INTO emp VALUES ('bob', 'ee', 99)")
        with pytest.raises(RuntimeError, match="apply failed"):
            hippo.refresh()
        assert hippo.feed_lag == 1  # the record stays uncommitted
        text = "SELECT * FROM emp"
        fresh = HippoEngine(hippo.db, hippo.constraints)
        answers = hippo.consistent_answers(text)
        assert answers.rows == fresh.consistent_answers(text).rows
        assert hippo.hypergraph.as_dict() == fresh.hypergraph.as_dict()
        assert hippo.feed_lag == 0

    def test_consistent_database_passthrough(self, two_table_db):
        fd = FunctionalDependency("s", ["a"], ["b"])
        hippo = HippoEngine(two_table_db, [fd])
        text = "SELECT * FROM s"
        assert (
            hippo.consistent_answers(text).as_set()
            == hippo.raw_answers(text).as_set()
        )
        stats = hippo.consistent_answers(text).stats
        assert stats["skipped_by_core"] == stats["candidates"]


class TestDefaultOrderPinnedToSortKey:
    """The default answer order may skip the per-value ``sort_key`` tuples
    only where a plain sort is identical by construction."""

    COLUMNS = {
        "ints": [3, -1, 2, 2, 10],
        "floats": [2.5, -0.5, 2.5, 1e9],
        "numbers": [2, 1.5, -3, 2.0, 7],  # int and float compare numerically
        "text": ["b", "a", "", "B", "ab"],
        # bool is an int to Python (True == 1, sorts between 0 and 2) but
        # its own type to sort_key, ordered before every number
        "bool-vs-int": [2, True, 0, False, 1],
        "bools": [True, False, True],
        "with-null": [3, None, 1],
        "text-with-null": ["x", None, "a"],
        "everything": [1, "a", None, True, 2.5, "", 0, False],
    }

    @staticmethod
    def reference(rows):
        from repro.engine.types import sort_key

        return sorted(rows, key=lambda row: tuple(sort_key(v) for v in row))

    @pytest.mark.parametrize("first", sorted(COLUMNS))
    @pytest.mark.parametrize("second", sorted(COLUMNS))
    def test_equals_the_sort_key_order(self, first, second):
        rows = [(a, b) for a in self.COLUMNS[first] for b in self.COLUMNS[second]]
        rows += rows[:3]  # duplicates keep their relative order (stable)
        assert default_order(iter(rows)) == self.reference(rows)

    def test_bool_among_ints_is_where_a_naive_sort_differs(self):
        rows = [(2,), (True,), (0,)]
        assert sorted(rows) == [(0,), (True,), (2,)]
        assert default_order(rows) == [(True,), (0,), (2,)]

    def test_empty_and_zero_width(self):
        assert default_order([]) == []
        assert default_order([(), ()]) == [(), ()]


class TestTypedDefaultOrder:
    """The engine decides the default order from the query's declared
    output types; ``sort_key`` runs only where Python's own order could
    differ from it or raises."""

    @staticmethod
    def answers(monkeypatch, create, rows, query):
        import repro.engine.types as types

        keyed = []
        monkeypatch.setattr(
            types, "sort_key", lambda value: keyed.append(value) or sort_key(value)
        )
        db = Database()
        db.execute(create)
        db.insert_rows("t", rows)
        hippo = HippoEngine(db, [FunctionalDependency("t", ["k"], ["v"])])
        return hippo.consistent_answers(query).rows, bool(keyed)

    def test_a_null_against_a_value_falls_back_to_the_keys(self, monkeypatch):
        rows, keyed = self.answers(
            monkeypatch,
            "CREATE TABLE t (k INTEGER, v TEXT)",
            [(2, "x"), (1, None), (1, "y"), (3, None)],  # NULL is no conflict
            "SELECT * FROM t",
        )
        assert keyed  # (1, None) < (1, 'y') raised TypeError
        assert rows == [(1, None), (1, "y"), (2, "x"), (3, None)]

    @pytest.mark.parametrize("nan", [False, True])
    def test_a_real_column_is_checked_for_nan(self, monkeypatch, nan):
        values = [2.5, -0.0, float("nan") if nan else float("inf"), -1.0]
        rows, keyed = self.answers(
            monkeypatch,
            "CREATE TABLE t (k INTEGER, v REAL)",
            [(k, v) for k, v in enumerate(values)],
            "SELECT v, k FROM t WHERE k = k",
        )
        assert keyed == nan
        assert [repr(v) for v, _k in rows] == [
            repr(v) for v in sorted(values, key=sort_key)
        ]

    def test_a_boolean_column_unioned_with_integers_uses_the_keys(
        self, monkeypatch
    ):
        rows, keyed = self.answers(
            monkeypatch,
            "CREATE TABLE t (k INTEGER, v BOOLEAN)",
            [(0, True), (2, False)],
            "SELECT k, v FROM t UNION SELECT v, k FROM t",
        )
        assert keyed
        assert rows == [(False, 2), (True, 0), (0, True), (2, False)]
