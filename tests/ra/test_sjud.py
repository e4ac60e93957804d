"""Tests for the SJUD query class: conversion, validation, reconstruction."""

import pytest

from repro.errors import AlgebraError, UnsupportedQueryError
from repro.ra import (
    Difference,
    SJUDCore,
    Union_,
    cores_of,
    from_sql_query,
    output_names_of,
    reconstruction_map,
)
from repro.sql.parser import parse_query


@pytest.fixture
def schema(two_table_db):
    return two_table_db.catalog


def convert(text, schema):
    return from_sql_query(parse_query(text), schema)


class TestConversion:
    def test_simple_selection(self, schema):
        tree = convert("SELECT * FROM r WHERE a > 1", schema)
        assert isinstance(tree, SJUDCore)
        assert [a.relation for a in tree.atoms] == ["r"]
        assert tree.output_names == ("a", "b")

    def test_join_with_aliases(self, schema):
        tree = convert(
            "SELECT x.a, x.b, y.b FROM r x, s y WHERE x.a = y.a", schema
        )
        assert [a.alias for a in tree.atoms] == ["x", "y"]

    def test_explicit_join_folds_on_condition(self, schema):
        tree = convert("SELECT r.a, r.b, s.b FROM r JOIN s ON r.a = s.a", schema)
        assert isinstance(tree, SJUDCore)
        assert tree.condition is not None

    def test_union(self, schema):
        tree = convert("SELECT * FROM r UNION SELECT * FROM s", schema)
        assert isinstance(tree, Union_)
        assert len(cores_of(tree)) == 2

    def test_except(self, schema):
        tree = convert("SELECT * FROM r EXCEPT SELECT * FROM s", schema)
        assert isinstance(tree, Difference)

    def test_intersect_rewritten_as_double_difference(self, schema):
        tree = convert("SELECT * FROM r INTERSECT SELECT * FROM s", schema)
        assert isinstance(tree, Difference)
        assert isinstance(tree.right, Difference)

    def test_output_names_from_left_branch(self, schema):
        tree = convert(
            "SELECT a AS x, b AS y FROM r UNION SELECT * FROM s", schema
        )
        assert output_names_of(tree) == ("x", "y")

    def test_constant_output(self, schema):
        tree = convert("SELECT a, b, 1 AS tag FROM r", schema)
        assert tree.output_names == ("a", "b", "tag")

    def test_unqualified_refs_resolved(self, schema):
        tree = convert("SELECT a, b FROM r WHERE a > 0", schema)
        source = tree.outputs[0].source
        assert source.table == "r"


class TestRejections:
    def test_aggregation_rejected(self, schema):
        with pytest.raises(UnsupportedQueryError, match="SJUD"):
            convert("SELECT a, b FROM r GROUP BY a, b", schema)

    def test_limit_rejected(self, schema):
        with pytest.raises(UnsupportedQueryError, match="LIMIT"):
            convert("SELECT * FROM r LIMIT 3", schema)

    def test_left_join_rejected(self, schema):
        with pytest.raises(UnsupportedQueryError, match="LEFT OUTER"):
            convert("SELECT * FROM r LEFT JOIN s ON r.a = s.a", schema)

    def test_derived_table_rejected(self, schema):
        with pytest.raises(UnsupportedQueryError, match="derived"):
            convert("SELECT * FROM (SELECT * FROM r) AS d", schema)

    def test_subquery_in_where_rejected(self, schema):
        with pytest.raises(UnsupportedQueryError, match="subqueries"):
            convert(
                "SELECT * FROM r WHERE EXISTS (SELECT * FROM s)", schema
            )

    def test_computed_select_item_rejected(self, schema):
        with pytest.raises(UnsupportedQueryError, match="computed"):
            convert("SELECT a + 1, b FROM r", schema)

    def test_except_all_rejected(self, schema):
        with pytest.raises(UnsupportedQueryError, match="bag"):
            convert("SELECT * FROM r EXCEPT ALL SELECT * FROM s", schema)

    def test_union_arity_mismatch(self, schema):
        with pytest.raises(AlgebraError, match="arities"):
            convert("SELECT a, b FROM r UNION SELECT a, a, b FROM s", schema)

    def test_duplicate_alias(self, schema):
        with pytest.raises(AlgebraError, match="duplicate"):
            convert("SELECT * FROM r x, s x", schema)

    def test_unknown_column(self, schema):
        with pytest.raises(AlgebraError, match="unknown column"):
            convert("SELECT zz FROM r", schema)

    def test_ambiguous_column(self, schema):
        with pytest.raises(AlgebraError, match="ambiguous"):
            convert("SELECT a, r.b, s.b FROM r, s WHERE r.a = s.a", schema)

    def test_function_in_condition_rejected(self, schema):
        with pytest.raises(UnsupportedQueryError, match="quantifier-free"):
            convert("SELECT * FROM r WHERE ABS(a) > 1", schema)


class TestProjectionRestriction:
    """Footnote 4: projections must not introduce existential quantifiers."""

    def test_dropping_free_attribute_rejected(self, schema):
        with pytest.raises(UnsupportedQueryError, match="existential"):
            convert("SELECT a FROM r", schema)

    def test_retained_columns_accepted(self, schema):
        convert("SELECT a, b FROM r", schema)  # no error

    def test_constant_pins_dropped_column(self, schema):
        tree = convert("SELECT a FROM r WHERE b = 5", schema)
        recon = reconstruction_map(tree, schema)
        assert recon["r"] == [("slot", 0), ("const", 5)]

    def test_equality_to_retained_column_pins(self, schema):
        tree = convert(
            "SELECT r.a, r.b FROM r, s WHERE s.a = r.a AND s.b = r.b", schema
        )
        recon = reconstruction_map(tree, schema)
        assert recon["s"] == [("slot", 0), ("slot", 1)]

    def test_transitive_equality_chain(self, schema):
        # s.b = s.a = r.a (retained): both of s's columns are determined.
        tree = convert(
            "SELECT r.a, r.b FROM r, s WHERE s.a = r.a AND s.b = s.a", schema
        )
        recon = reconstruction_map(tree, schema)
        assert recon["s"] == [("slot", 0), ("slot", 0)]

    def test_join_without_pinning_rejected(self, schema):
        with pytest.raises(UnsupportedQueryError, match="existential"):
            convert("SELECT r.a, r.b FROM r, s WHERE s.a = r.a", schema)

    def test_disjunctive_equality_does_not_pin(self, schema):
        # b = 5 OR b = 6 does not determine b.
        with pytest.raises(UnsupportedQueryError, match="existential"):
            convert("SELECT a FROM r WHERE b = 5 OR b = 6", schema)

    def test_union_branches_validated_independently(self, schema):
        with pytest.raises(UnsupportedQueryError, match="existential"):
            convert("SELECT a, b FROM r UNION SELECT a, a FROM s", schema)

    def test_duplicated_output_column_allowed(self, schema):
        tree = convert("SELECT a, a, b FROM r", schema)
        recon = reconstruction_map(tree, schema)
        assert recon["r"][0][0] == "slot"
