"""Unit tests for physical plan operators, driven directly (no SQL)."""

import pytest

from repro.engine.database import Database
from repro.engine.plan import (
    Access,
    Aggregate,
    Distinct,
    Except,
    Filter,
    HashJoin,
    Intersect,
    Limit,
    NestedLoopJoin,
    Project,
    Scan,
    SingleRow,
    Sort,
    UnionAll,
    Values,
    run_plan,
)
from repro.engine.schema import make_schema
from repro.engine.stats import ExecutionStats
from repro.engine.storage import Table
from repro.engine.types import SQLType
from repro.sql.parser import parse_query


def table_ab(rows):
    table = Table(make_schema("t", [("a", SQLType.INTEGER), ("b", SQLType.INTEGER)]))
    for row in rows:
        table.insert(row)
    return table


def col(i):
    return lambda env: env[0][i]


def hashed(node):
    """``node`` as a hash access keyed on its first column."""
    return Access(node, ExecutionStats(), keys=[col(0)])


class TestScan:
    def test_scan_counts_rows(self):
        stats = ExecutionStats()
        table = table_ab([(1, 2), (3, 4)])
        assert run_plan(Scan(table, stats)) == [(1, 2), (3, 4)]
        assert stats.rows_scanned == 2

    def test_scan_with_tid(self):
        table = table_ab([(1, 2), (3, 4)])
        rows = run_plan(Scan(table, ExecutionStats(), include_tid=True))
        assert rows == [(1, 2, 0), (3, 4, 1)]

    def test_restricted_scan(self):
        table = table_ab([(1, 2), (3, 4), (5, 6)])
        node = Scan(table, ExecutionStats(), keep_tids=frozenset({0, 2}))
        assert run_plan(node) == [(1, 2), (5, 6)]


class TestFilterProject:
    def test_filter_keeps_only_true(self):
        source = Values([(1,), (None,), (5,)], 1)
        node = Filter(source, lambda env: env[0][0] is not None and env[0][0] > 2)
        assert run_plan(node) == [(5,)]

    def test_project(self):
        source = Values([(1, 2)], 2)
        node = Project(source, [col(1), col(0), lambda env: 9])
        assert run_plan(node) == [(2, 1, 9)]

    def test_project_of_plain_columns_picks_without_calling_them(self):
        """All-column-reference projections (what the compiler marks with
        ``column_index``) never call the evaluators."""

        def marked(index):
            def never_called(env):
                raise AssertionError("a marked column must be picked, not called")

            never_called.column_index = index
            return never_called

        source = Values([(1, 2, 3), (4, 5, 6)], 3)
        assert run_plan(Project(source, [marked(2), marked(0)])) == [(3, 1), (6, 4)]
        assert run_plan(Project(source, [marked(1)])) == [(2,), (5,)]
        assert all(type(r) is tuple for r in run_plan(Project(source, [marked(1)])))

    def test_project_with_any_expression_takes_the_generic_path(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        db.insert_rows("t", [(1, 2), (3, 4)])
        picked = db.plan(parse_query("SELECT b, a FROM t")).plan
        computed = db.plan(parse_query("SELECT b, a + 1 FROM t")).plan
        assert isinstance(picked, Project) and picked._picks == [1, 0]
        assert isinstance(computed, Project) and computed._picks is None
        assert run_plan(picked) == [(2, 1), (4, 3)]
        assert run_plan(computed) == [(2, 2), (4, 4)]
        # An outer (correlated) reference is not a local pick either.
        rows = db.query(
            "SELECT a FROM t o WHERE EXISTS (SELECT o.a FROM t i WHERE i.b > o.b)"
        ).rows
        assert rows == [(1,)]
        assert run_plan(Project(Values([(1,)], 1), [])) == [()]

    def test_single_row(self):
        assert run_plan(SingleRow()) == [()]


class TestJoins:
    def test_nested_loop_cross(self):
        node = NestedLoopJoin(Values([(1,), (2,)], 1), Values([(10,), (20,)], 1))
        assert run_plan(node) == [(1, 10), (1, 20), (2, 10), (2, 20)]

    def test_nested_loop_with_predicate(self):
        node = NestedLoopJoin(
            Values([(1,), (2,)], 1),
            Values([(1,), (3,)], 1),
            predicate=lambda env: env[0][0] == env[0][1],
            kind="inner",
        )
        assert run_plan(node) == [(1, 1)]

    def test_left_outer_nested_loop(self):
        node = NestedLoopJoin(
            Values([(1,), (2,)], 1),
            Values([(1,)], 1),
            predicate=lambda env: env[0][0] == env[0][1],
            kind="left",
        )
        assert run_plan(node) == [(1, 1), (2, None)]

    def test_hash_join_matches_nested_loop(self):
        left = [(i % 5, i) for i in range(20)]
        right = [(i % 7, i * 10) for i in range(20)]
        hash_rows = run_plan(HashJoin(Values(left, 2), hashed(Values(right, 2)), [0]))
        loop_rows = run_plan(
            NestedLoopJoin(
                Values(left, 2),
                Values(right, 2),
                predicate=lambda env: env[0][0] == env[0][2],
                kind="inner",
            )
        )
        assert sorted(hash_rows) == sorted(loop_rows)

    def test_hash_join_null_keys_never_match(self):
        node = HashJoin(
            Values([(None, 1), (2, 2)], 2),
            hashed(Values([(None, 9), (2, 8)], 2)),
            [0],
        )
        assert run_plan(node) == [(2, 2, 2, 8)]

    def test_hash_join_residual(self):
        node = HashJoin(
            Values([(1, 5), (1, 6)], 2),
            hashed(Values([(1, 6)], 2)),
            [0],
            residual=lambda env: env[0][1] == env[0][3],
        )
        assert run_plan(node) == [(1, 6, 1, 6)]

    def test_left_hash_join_pads(self):
        node = HashJoin(
            Values([(1,), (2,)], 1), hashed(Values([(1,)], 1)), [0], kind="left"
        )
        assert run_plan(node) == [(1, 1), (2, None)]

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            NestedLoopJoin(Values([], 1), Values([], 1), kind="full")
        with pytest.raises(ValueError):
            HashJoin(Values([], 1), hashed(Values([], 1)), [0], kind="cross")


class TestSetOperators:
    def test_union_all_and_distinct(self):
        node = UnionAll([Values([(1,), (2,)], 1), Values([(2,)], 1)])
        assert run_plan(node) == [(1,), (2,), (2,)]
        assert run_plan(Distinct(node)) == [(1,), (2,)]

    def test_union_width_mismatch(self):
        with pytest.raises(ValueError):
            UnionAll([Values([], 1), Values([], 2)])

    def test_except_set_semantics(self):
        node = Except(Values([(1,), (1,), (2,)], 1), Values([(2,)], 1))
        assert run_plan(node) == [(1,)]

    def test_except_all_bag_semantics(self):
        node = Except(Values([(1,), (1,), (2,)], 1), Values([(1,)], 1), all=True)
        assert run_plan(node) == [(1,), (2,)]

    def test_intersect(self):
        node = Intersect(Values([(1,), (2,), (2,)], 1), Values([(2,), (3,)], 1))
        assert run_plan(node) == [(2,)]

    def test_intersect_all(self):
        node = Intersect(
            Values([(1,), (2,), (2,), (2,)], 1), Values([(2,), (2,)], 1), all=True
        )
        assert run_plan(node) == [(2,), (2,)]


class TestSortLimit:
    def test_sort_multi_key_stable(self):
        rows = [(1, "b"), (2, "a"), (1, "a")]
        node = Sort(Values(rows, 2), [(col(0), True), (col(1), False)])
        assert run_plan(node) == [(1, "b"), (1, "a"), (2, "a")]

    def test_sort_nulls_first(self):
        node = Sort(Values([(2,), (None,), (1,)], 1), [(col(0), True)])
        assert run_plan(node) == [(None,), (1,), (2,)]

    def test_limit_offset(self):
        source = Values([(i,) for i in range(10)], 1)
        assert run_plan(Limit(source, 3, 2)) == [(2,), (3,), (4,)]
        assert run_plan(Limit(source, None, 8)) == [(8,), (9,)]
        assert run_plan(Limit(source, 0, None)) == []


class TestAggregate:
    def test_group_by_count_sum(self):
        rows = [(1, 10), (1, 20), (2, 5)]
        node = Aggregate(
            Values(rows, 2),
            [col(0)],
            [("COUNT", False, None), ("SUM", False, col(1))],
        )
        assert sorted(run_plan(node)) == [(1, 2, 30), (2, 1, 5)]

    def test_global_aggregate_empty_input(self):
        node = Aggregate(
            Values([], 2),
            [],
            [("COUNT", False, None), ("SUM", False, col(1)), ("MIN", False, col(0))],
        )
        assert run_plan(node) == [(0, None, None)]

    def test_nulls_ignored(self):
        rows = [(1, None), (1, 4)]
        node = Aggregate(
            Values(rows, 2),
            [col(0)],
            [("COUNT", False, col(1)), ("AVG", False, col(1))],
        )
        assert run_plan(node) == [(1, 1, 4.0)]

    def test_distinct_aggregate(self):
        rows = [(1, 5), (1, 5), (1, 6)]
        node = Aggregate(Values(rows, 2), [], [("SUM", True, col(1))])
        assert run_plan(node) == [(11,)]

    def test_empty_group_by_on_empty_table_no_groups(self):
        node = Aggregate(Values([], 2), [col(0)], [("COUNT", False, None)])
        assert run_plan(node) == []


class TestExplain:
    def test_explain_renders_tree(self):
        stats = ExecutionStats()
        table = table_ab([])
        node = Limit(Filter(Scan(table, stats), lambda env: True), 1, None)
        text = node.explain()
        assert "Limit" in text and "Filter" in text and "Scan(t)" in text
        assert text.splitlines()[1].startswith("  ")
