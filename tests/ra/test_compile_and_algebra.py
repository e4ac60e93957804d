"""Tests for SJUD compilation/evaluation and the classical algebra oracle."""

import pytest

from repro.engine.types import SQLType
from repro.errors import AlgebraError
from repro.ra import (
    evaluate_core,
    evaluate_tree,
    from_sql_query,
    tree_to_sql,
)
from repro.ra.algebra import (
    Difference,
    Product,
    Projection,
    Relation,
    Rename,
    Selection,
    Union,
    evaluate,
    schema_of,
    sjud_to_algebra,
)
from repro.sql import ast
from repro.sql.parser import parse_expression, parse_query


def tree_of(db, text):
    return from_sql_query(parse_query(text), db.catalog)


class TestEvaluateCore:
    def test_provenance_tids(self, two_table_db):
        tree = tree_of(two_table_db, "SELECT * FROM r WHERE a = 2")
        results = evaluate_core(tree, two_table_db)
        assert results == {(2, 5): (2,)}

    def test_join_provenance_has_both_tids(self, two_table_db):
        tree = tree_of(
            two_table_db, "SELECT r.a, r.b, s.b FROM r, s WHERE r.a = s.a"
        )
        results = evaluate_core(tree, two_table_db)
        assert results
        for (a, r_b, s_b), (r_tid, s_tid) in results.items():  # atom order
            assert two_table_db.table("r").get(r_tid) == (a, r_b)
            assert two_table_db.table("s").get(s_tid)[0] == a

    def test_restriction(self, two_table_db):
        tree = tree_of(two_table_db, "SELECT * FROM r")
        keep = frozenset({0, 1})
        rows = evaluate_core(tree, two_table_db, lambda rel: keep)
        assert set(rows) == {(1, 1), (1, 2)}

    def test_set_semantics_first_witness(self, two_table_db):
        two_table_db.execute("INSERT INTO r VALUES (1, 1)")  # duplicate value
        tree = tree_of(two_table_db, "SELECT * FROM r")
        results = evaluate_core(tree, two_table_db)
        assert results[(1, 1)] == (0,)  # first witness kept


class TestEvaluateTree:
    def test_union_difference(self, two_table_db):
        union = tree_of(two_table_db, "SELECT * FROM r UNION SELECT * FROM s")
        assert (9, 9) in evaluate_tree(union, two_table_db)
        difference = tree_of(two_table_db, "SELECT * FROM r EXCEPT SELECT * FROM s")
        assert evaluate_tree(difference, two_table_db) == {(1, 1), (1, 2), (3, 7)}

    def test_intersect_via_difference(self, two_table_db):
        tree = tree_of(two_table_db, "SELECT * FROM r INTERSECT SELECT * FROM s")
        assert evaluate_tree(tree, two_table_db) == {(2, 5), (4, 4)}

    def test_matches_engine_sql(self, two_table_db):
        text = "SELECT r.a, r.b, s.b FROM r, s WHERE r.a = s.a AND r.b < 9"
        tree = tree_of(two_table_db, text)
        engine_rows = frozenset(two_table_db.query(text).rows)
        assert evaluate_tree(tree, two_table_db) == engine_rows

    def test_roundtrip_through_sql(self, two_table_db):
        text = "SELECT * FROM r WHERE a >= 2 EXCEPT SELECT * FROM s"
        tree = tree_of(two_table_db, text)
        rendered = tree_to_sql(tree)
        tree_again = tree_of(two_table_db, rendered)
        assert evaluate_tree(tree, two_table_db) == evaluate_tree(
            tree_again, two_table_db
        )


class TestClassicalAlgebra:
    def test_schema_inference(self, two_table_db):
        expr = Product(
            Rename.prefix(Relation("r"), "x", ("a", "b")),
            Rename.prefix(Relation("s"), "y", ("a", "b")),
        )
        assert schema_of(expr, two_table_db) == ("x.a", "x.b", "y.a", "y.b")

    def test_product_requires_disjoint_attributes(self, two_table_db):
        with pytest.raises(AlgebraError, match="Rename"):
            schema_of(Product(Relation("r"), Relation("s")), two_table_db)

    def test_selection_evaluation(self, two_table_db):
        expr = Selection(Relation("r"), parse_expression("a = 1"))
        assert evaluate(expr, two_table_db) == {(1, 1), (1, 2)}

    def test_projection_with_constant(self, two_table_db):
        expr = Projection(Relation("s"), (("a", "a"), ("tag", ast.Literal("s"))))
        assert evaluate(expr, two_table_db) == {(2, "s"), (4, "s"), (9, "s")}

    def test_projection_unknown_attribute(self, two_table_db):
        with pytest.raises(AlgebraError):
            schema_of(Projection(Relation("r"), (("z", "z"),)), two_table_db)

    def test_union_difference(self, two_table_db):
        union = Union(Relation("r"), Relation("s"))
        assert (9, 9) in evaluate(union, two_table_db)
        diff = Difference(Relation("r"), Relation("s"))
        assert evaluate(diff, two_table_db) == {(1, 1), (1, 2), (3, 7)}

    def test_union_arity_check(self, db):
        db.create_table("one", [("a", SQLType.INTEGER)])
        db.create_table("two", [("a", SQLType.INTEGER), ("b", SQLType.INTEGER)])
        with pytest.raises(AlgebraError):
            schema_of(Union(Relation("one"), Relation("two")), db)

    def test_rename_unknown_attribute(self, two_table_db):
        with pytest.raises(AlgebraError):
            schema_of(Rename(Relation("r"), (("zz", "yy"),)), two_table_db)

    def test_rename_collision(self, two_table_db):
        with pytest.raises(AlgebraError, match="duplicate"):
            schema_of(Rename(Relation("r"), (("a", "b"),)), two_table_db)


SJUD_QUERIES = [
    "SELECT * FROM r WHERE a > 1",
    "SELECT x.a, x.b, y.b FROM r x, s y WHERE x.a = y.a",
    "SELECT * FROM r UNION SELECT * FROM s",
    "SELECT * FROM r EXCEPT SELECT * FROM s WHERE b > 4",
    "SELECT a, b FROM r WHERE b = 5 UNION SELECT a, b FROM s",
]


#: Shapes whose plan hangs on the access-path choice; run with r(b) indexed.
INDEXED_QUERIES = [
    "SELECT * FROM r WHERE b = 5",
    "SELECT x.a, x.b, Y.a, Y.b FROM s x, r Y"
    " WHERE x.a = Y.a AND Y.b = 5 AND x.b <= Y.b",
    "SELECT * FROM s EXCEPT SELECT * FROM r WHERE b = 4 AND a = 4",
]


class TestCrossCheck:
    """The SJUD compiler and the naive classical algebra must agree."""

    @pytest.mark.parametrize("text", SJUD_QUERIES + INDEXED_QUERIES)
    def test_sjud_matches_algebra_oracle(self, two_table_db, text):
        if text in INDEXED_QUERIES:
            two_table_db.create_index("r", ["b"])
        tree = tree_of(two_table_db, text)
        fast = evaluate_tree(tree, two_table_db)
        oracle = evaluate(sjud_to_algebra(tree, two_table_db), two_table_db)
        assert fast == oracle
