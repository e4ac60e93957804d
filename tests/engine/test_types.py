"""Unit tests for the SQL value model and three-valued logic."""

import pytest
from hypothesis import given, strategies as st

from repro.engine.database import Database
from repro.engine.types import (
    NAN,
    SQLType,
    coerce_value,
    compare_values,
    default_order,
    format_value,
    infer_type,
    literal_sql,
    logic_and,
    logic_not,
    logic_or,
    sort_key,
    type_from_name,
)
from repro.errors import TypeError_


class TestTypeNames:
    def test_synonyms_resolve(self):
        assert type_from_name("int") is SQLType.INTEGER
        assert type_from_name("VARCHAR") is SQLType.TEXT
        assert type_from_name("double") is SQLType.REAL
        assert type_from_name("Bool") is SQLType.BOOLEAN

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError_):
            type_from_name("blob")

    def test_stored_python_types(self):
        assert type(coerce_value(1.0, SQLType.INTEGER)) is int
        assert type(coerce_value("a", SQLType.TEXT)) is str


class TestInferType:
    def test_null_has_no_type(self):
        assert infer_type(None) is None

    def test_bool_before_int(self):
        # bool is an int subclass; it must classify as BOOLEAN.
        assert infer_type(True) is SQLType.BOOLEAN
        assert infer_type(1) is SQLType.INTEGER

    def test_unknown_value_raises(self):
        with pytest.raises(TypeError_):
            infer_type([1, 2])


class TestCoercion:
    def test_null_always_accepted(self):
        assert coerce_value(None, SQLType.INTEGER) is None

    def test_int_widens_to_real(self):
        assert coerce_value(3, SQLType.REAL) == 3.0
        assert isinstance(coerce_value(3, SQLType.REAL), float)

    def test_integral_real_narrows(self):
        assert coerce_value(3.0, SQLType.INTEGER) == 3

    def test_fractional_real_rejected_for_integer(self):
        with pytest.raises(TypeError_):
            coerce_value(3.5, SQLType.INTEGER)

    def test_text_rejected_for_integer(self):
        with pytest.raises(TypeError_):
            coerce_value("3", SQLType.INTEGER)

    def test_bool_not_coerced_to_int(self):
        with pytest.raises(TypeError_):
            coerce_value(True, SQLType.INTEGER)


class TestComparison:
    def test_null_comparisons_unknown(self):
        assert compare_values(None, 1) is None
        assert compare_values("x", None) is None
        assert compare_values(None, None) is None

    def test_numeric_cross_type(self):
        assert compare_values(1, 1.0) == 0
        assert compare_values(1, 1.5) == -1

    def test_text_ordering(self):
        assert compare_values("abc", "abd") == -1
        assert compare_values("b", "b") == 0

    def test_incomparable_types_raise(self):
        with pytest.raises(TypeError_):
            compare_values(1, "1")
        with pytest.raises(TypeError_):
            compare_values(True, 1)


class TestThreeValuedLogic:
    def test_and_truth_table(self):
        assert logic_and(True, True) is True
        assert logic_and(True, False) is False
        assert logic_and(False, None) is False  # false dominates unknown
        assert logic_and(True, None) is None
        assert logic_and(None, None) is None

    def test_or_truth_table(self):
        assert logic_or(False, False) is False
        assert logic_or(True, None) is True  # true dominates unknown
        assert logic_or(False, None) is None
        assert logic_or(None, None) is None

    def test_not(self):
        assert logic_not(True) is False
        assert logic_not(False) is True
        assert logic_not(None) is None

    def test_where_selects_only_true(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER, ok BOOLEAN)")
        db.execute("INSERT INTO t VALUES (1, TRUE), (2, NULL), (3, FALSE)")
        assert db.query("SELECT a FROM t WHERE ok").rows == [(1,)]


INF = float("inf")
TYPED_VALUES = {
    SQLType.INTEGER: st.integers(min_value=-2, max_value=2),
    # NAN is the one NaN object storage keeps.
    SQLType.REAL: st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.0, NAN, INF, -INF]),
    SQLType.TEXT: st.sampled_from(["", "a", "B", "ab"]),
    SQLType.BOOLEAN: st.booleans(),
}


class TestRendering:
    def test_sort_key_total_order(self):
        values = ["b", None, 2, True, 1.5, "a", False]
        ordered = sorted(values, key=sort_key)
        assert ordered[0] is None  # NULLs first
        assert ordered[1:3] == [False, True]
        assert ordered[3:5] == [1.5, 2]
        assert ordered[5:] == ["a", "b"]

    @pytest.mark.parametrize(
        "rows",
        [
            [(2, "b"), (1, "z"), (2, "a"), (1.5, "m")],  # sorts on itself
            [(2, None), (None, 1), (1, 2)],  # a NULL
            [(True, 1), (0, 2), (False, 3), (1, 0)],  # bool is not a number
            [(1, "a"), ("a", 1)],  # mixed kinds in one column
            [],
        ],
    )
    def test_default_order_is_the_sort_key_order(self, rows):
        by_key = sorted(rows, key=lambda row: tuple(sort_key(v) for v in row))
        assert default_order(iter(rows)) == by_key

    @given(st.data())
    def test_typed_default_order_is_the_sort_key_order(self, data):
        """Per column, one or two declared types (a union's branches may
        differ) and NULL only where the column is nullable."""
        width = data.draw(st.integers(min_value=1, max_value=3))
        types = [
            data.draw(st.sets(st.sampled_from(list(SQLType)), min_size=1, max_size=2))
            for _ in range(width)
        ]
        columns = [
            st.one_of(
                [TYPED_VALUES[kind] for kind in sorted(kinds, key=str)]
                + ([st.none()] if data.draw(st.booleans()) else [])
            )
            for kinds in types
        ]
        rows = data.draw(st.lists(st.tuples(*columns), max_size=12))
        by_key = sorted(rows, key=lambda row: tuple(sort_key(v) for v in row))
        # repr tells -0.0 from 0.0 and 1 from 1.0: stable means the same objects.
        assert list(map(repr, default_order(rows, types))) == list(map(repr, by_key))

    def test_format_value(self):
        assert format_value(None) == "NULL"
        assert format_value(True) == "TRUE"
        assert format_value("hi") == "hi"
        assert format_value(3) == "3"

    def test_literal_sql_escapes_quotes(self):
        assert literal_sql("o'brien") == "'o''brien'"
        assert literal_sql(None) == "NULL"
        assert literal_sql(False) == "FALSE"
