"""Tests for rendering SJUD trees back to SQL.

Covers the display form (``tree_to_sql``), the ``?``-parameterized
pushdown form (``render_tree`` / ``render_query``),
the residual-join form conflict detection pushes to SQL backends, and
the quoting/DDL helpers -- plus a round-trip suite asserting rendered
SQL for every SJUD node shape re-parses and re-compiles to an
equivalent tree.
"""

import pytest

from repro.errors import AlgebraError
from repro.ra import (
    Atom,
    Difference,
    OutputColumn,
    SJUDCore,
    Union_,
    evaluate_tree,
    from_sql_query,
    render_core_tids,
    render_query,
    render_tree,
    tree_to_query,
    tree_to_sql,
)
from repro.ra.to_sql import (
    create_index_sql,
    create_table_sql,
    delete_by_key_sql,
    drop_table_sql,
    insert_sql,
)
from repro.sql import ast
from repro.sql.formatter import format_identifier
from repro.sql.parser import parse_query


def tree_of(db, text):
    return from_sql_query(parse_query(text), db.catalog)


class TestRendering:
    def test_core_renders_distinct_select(self, two_table_db):
        tree = tree_of(two_table_db, "SELECT * FROM r WHERE a > 1")
        sql = tree_to_sql(tree)
        assert sql.startswith("SELECT DISTINCT")
        assert "FROM r" in sql and "WHERE" in sql

    def test_alias_rendered_only_when_needed(self, two_table_db):
        tree = tree_of(two_table_db, "SELECT x.a, x.b FROM r x WHERE x.b = 1")
        sql = tree_to_sql(tree)
        assert "r AS x" in sql
        plain = tree_of(two_table_db, "SELECT a, b FROM r")
        assert " AS r" not in tree_to_sql(plain).split("FROM")[1]

    def test_union_and_difference_structure(self, two_table_db):
        tree = Union_(
            tree_of(two_table_db, "SELECT * FROM r"),
            tree_of(two_table_db, "SELECT * FROM s"),
        )
        assert "UNION" in tree_to_sql(tree)
        diff = Difference(tree, tree_of(two_table_db, "SELECT * FROM s"))
        assert "EXCEPT" in tree_to_sql(diff)

    def test_constant_output_rendered(self, two_table_db):
        core = SJUDCore(
            (Atom("t", "r"),),
            None,
            (
                OutputColumn("a", ast.ColumnRef("t", "a")),
                OutputColumn("b", ast.ColumnRef("t", "b")),
                OutputColumn("tag", ast.Literal("x")),
            ),
        )
        sql = tree_to_sql(core)
        assert "'x' AS tag" in sql

    def test_query_ast_shape(self, two_table_db):
        tree = tree_of(two_table_db, "SELECT * FROM r UNION SELECT * FROM s")
        query = tree_to_query(tree)
        assert isinstance(query, ast.Query)
        assert isinstance(query.body, ast.SetOperation)

    def test_unknown_node_rejected(self):
        with pytest.raises(TypeError):
            tree_to_sql("not a tree")  # type: ignore[arg-type]


#: One query per SJUD node shape: every comparison operator, the boolean
#: connectives, IS [NOT] NULL, [NOT] IN, [NOT] BETWEEN, joins, unions and
#: differences (LIKE needs a text column and lives in TestLikeShape).
NODE_SHAPE_QUERIES = [
    "SELECT * FROM r WHERE a = 1",
    "SELECT * FROM r WHERE a <> 1",
    "SELECT * FROM r WHERE a < 3",
    "SELECT * FROM r WHERE a <= 2",
    "SELECT * FROM r WHERE b > 4",
    "SELECT * FROM r WHERE b >= 5",
    "SELECT * FROM r WHERE a >= 2 AND b < 6",
    "SELECT * FROM r WHERE a = 1 OR b = 4",
    "SELECT * FROM r WHERE NOT a = 1",
    "SELECT * FROM r WHERE a IS NULL",
    "SELECT * FROM r WHERE b IS NOT NULL",
    "SELECT * FROM r WHERE a IN (1, 2, 4)",
    "SELECT * FROM r WHERE a NOT IN (5, 6)",
    "SELECT * FROM r WHERE a BETWEEN 1 AND 3",
    "SELECT * FROM r WHERE b NOT BETWEEN 2 AND 9",
    "SELECT x.a, x.b, y.a, y.b FROM r x, s y WHERE x.a = y.a AND x.b <> y.b",
    "SELECT * FROM r UNION SELECT * FROM s",
    "SELECT * FROM r EXCEPT SELECT * FROM s WHERE a = 1",
    "SELECT a, b FROM r WHERE b = 2 UNION SELECT a, b FROM s WHERE b = 3",
    "SELECT * FROM r WHERE a IN (1, 9) UNION SELECT * FROM s"
    " EXCEPT SELECT * FROM s WHERE a BETWEEN 3 AND 5",
]


class TestRoundTrip:
    QUERIES = [
        "SELECT * FROM r WHERE a >= 2 AND b < 3",
        "SELECT x.a, x.b, y.b FROM r x, s y WHERE x.a = y.a",
        "SELECT * FROM r UNION SELECT * FROM s",
        "SELECT * FROM r EXCEPT SELECT * FROM s WHERE a = 1",
        "SELECT a, b FROM r WHERE b = 2 UNION SELECT a, b FROM s WHERE b = 3",
    ] + NODE_SHAPE_QUERIES

    @pytest.mark.parametrize("text", QUERIES)
    def test_semantics_preserved(self, two_table_db, text):
        tree = tree_of(two_table_db, text)
        rendered = tree_to_sql(tree)
        reparsed = tree_of(two_table_db, rendered)
        assert evaluate_tree(tree, two_table_db) == evaluate_tree(
            reparsed, two_table_db
        )

    @pytest.mark.parametrize("text", QUERIES)
    def test_recompiles_to_equivalent_tree(self, two_table_db, text):
        """Rendering is a fixed point: rendered SQL re-compiles to a tree
        whose own rendering is identical."""
        tree = tree_of(two_table_db, text)
        rendered = tree_to_sql(tree)
        assert tree_to_sql(tree_of(two_table_db, rendered)) == rendered

    @pytest.mark.parametrize("text", QUERIES)
    def test_engine_accepts_rendered_sql(self, two_table_db, text):
        tree = tree_of(two_table_db, text)
        two_table_db.query(tree_to_sql(tree))  # must parse and run


class TestLikeShape:
    @pytest.fixture
    def text_db(self, db):
        db.execute("CREATE TABLE t (name TEXT, tag TEXT)")
        db.execute(
            "INSERT INTO t VALUES ('alpha','x'), ('beta','y'), ('Alto','x')"
        )
        return db

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT * FROM t WHERE name LIKE 'al%'",
            "SELECT * FROM t WHERE name NOT LIKE '%a'",
            "SELECT * FROM t WHERE name LIKE 'a_t%' AND tag = 'x'",
        ],
    )
    def test_like_round_trips(self, text_db, text):
        tree = tree_of(text_db, text)
        rendered = tree_to_sql(tree)
        reparsed = tree_of(text_db, rendered)
        assert evaluate_tree(tree, text_db) == evaluate_tree(reparsed, text_db)
        assert tree_to_sql(reparsed) == rendered

    def test_like_pattern_is_parameterized(self, text_db):
        tree = tree_of(text_db, "SELECT * FROM t WHERE name LIKE 'al%'")
        rendered = render_tree(tree)
        assert "al%" not in rendered.text
        assert rendered.params == ("al%",)


class TestParameterized:
    @pytest.mark.parametrize("text", TestRoundTrip.QUERIES)
    def test_inline_matches_display_form(self, two_table_db, text):
        tree = tree_of(two_table_db, text)
        assert render_tree(tree).inline() == tree_to_sql(tree)

    @pytest.mark.parametrize("text", TestRoundTrip.QUERIES)
    def test_inline_reparses_equivalently(self, two_table_db, text):
        tree = tree_of(two_table_db, text)
        reparsed = tree_of(two_table_db, render_tree(tree).inline())
        assert evaluate_tree(tree, two_table_db) == evaluate_tree(
            reparsed, two_table_db
        )

    def test_placeholders_match_param_count(self, two_table_db):
        tree = tree_of(
            two_table_db,
            "SELECT * FROM r WHERE a IN (1, 2) AND b BETWEEN 3 AND 4 OR a = 5",
        )
        rendered = render_tree(tree)
        assert rendered.text.count("?") == len(rendered.params) == 5

    def test_params_follow_text_order(self, two_table_db):
        tree = tree_of(
            two_table_db,
            "SELECT * FROM r WHERE b BETWEEN 30 AND 40 AND a IN (10, 20)",
        )
        rendered = render_tree(tree)
        assert rendered.params == (30, 40, 10, 20)

    def test_no_literals_means_no_params(self, two_table_db):
        rendered = render_tree(tree_of(two_table_db, "SELECT * FROM r"))
        assert rendered.params == ()
        assert "?" not in rendered.text

    def test_render_query_accepts_plain_ast(self, two_table_db):
        query = parse_query("SELECT a FROM r WHERE a > 7")
        rendered = render_query(query)
        assert rendered.params == (7,)
        assert "?" in rendered.text


class TestResidualJoinForm:
    def core(self):
        condition = ast.BinaryOp(
            "AND",
            ast.BinaryOp(
                "=",
                ast.ColumnRef("t0", "a"),
                ast.ColumnRef("t1", "a"),
            ),
            ast.BinaryOp(
                "<>",
                ast.ColumnRef("t0", "b"),
                ast.ColumnRef("t1", "b"),
            ),
        )
        return SJUDCore((Atom("t0", "r"), Atom("t1", "r")), condition, ())

    def test_one_tid_per_atom_in_order(self):
        rendered = render_core_tids(self.core(), "rowid")
        assert "t0.rowid AS tid_0" in rendered.text
        assert "t1.rowid AS tid_1" in rendered.text
        assert rendered.text.index("tid_0") < rendered.text.index("tid_1")
        assert rendered.params == ()

    def test_custom_tid_column(self):
        rendered = render_core_tids(self.core(), "_tid")
        assert "t0._tid AS tid_0" in rendered.text
        assert "rowid" not in rendered.text

    def test_literals_still_parameterized(self):
        core = SJUDCore(
            (Atom("t0", "r"),),
            ast.BinaryOp(">", ast.ColumnRef("t0", "b"), ast.Literal(5)),
            (),
        )
        rendered = render_core_tids(core, "rowid")
        assert rendered.params == (5,)
        assert "5" not in rendered.text


class TestQuotingHelpers:
    def test_create_table_quotes_identifiers(self):
        sql = create_table_sql("order", [("from", "INTEGER"), ("b", "TEXT")])
        assert format_identifier("order") in sql
        assert format_identifier("from") in sql
        assert "INTEGER" in sql and "TEXT" in sql

    def test_drop_table_is_idempotent_form(self):
        assert drop_table_sql("r").startswith("DROP TABLE IF EXISTS")

    def test_create_index_names_all_columns(self):
        sql = create_index_sql("idx_r_0", "r", ["a", "b"])
        assert "CREATE INDEX" in sql
        assert format_identifier("a") in sql and format_identifier("b") in sql

    def test_insert_placeholders(self):
        assert insert_sql("r", 2).endswith("VALUES (?, ?)")

    def test_insert_named_columns(self):
        sql = insert_sql("r", 3, columns=["rowid", "a", "b"])
        assert "rowid" in sql and sql.count("?") == 3

    def test_insert_validates(self):
        with pytest.raises(AlgebraError, match="arity"):
            insert_sql("r", 2, columns=["a"])

    def test_delete_by_key_binds_one_parameter(self):
        sql = delete_by_key_sql("order", "rowid")
        assert sql.startswith(f"DELETE FROM {format_identifier('order')}")
        assert sql.endswith("rowid = ?") and sql.count("?") == 1
