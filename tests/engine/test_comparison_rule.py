"""One SQL comparison rule on every access path.

``a op b`` is TRUE, unknown (NULL) or a type error, and which one is
decided once, by :func:`repro.engine.types.compare_values`: values of the
same type, or two numbers, compare; NULL makes the answer unknown; NaN
equals NaN and sorts above every other number (PostgreSQL's rule).
Anything else raises :class:`~repro.errors.TypeError_`.

The table-driven test below stores one value in ``a.x`` and one in
``b.y`` (each column declared with its value's type) and asks every
path the engine has for each of the six operators -- a ``Filter`` over a
literal, a nested-loop and a hash join, an index lookup, a decorrelated
``EXISTS``, an ``IN`` list and ``IN (subquery)``, and each mirrored --
and checks they all give the answer of an independent oracle.  A column
declared INTEGER, TEXT or BOOLEAN compared with a constant of exactly
that type filters by a row test (no per-row dispatch); the matrix checks
that the test is attached there and nowhere else, so the oracle covers
both forms.  The
second test does the same for the orders the rule induces: ORDER BY,
MIN / MAX, DISTINCT and GROUP BY over every insertion order.  The third
checks that a NaN an expression computes is one hash key with every
other NaN, as a stored one is.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.database import Database
from repro.engine.expressions import ExpressionCompiler, Scope
from repro.engine.plan import Filter, HashJoin
from repro.engine.types import SQLType, compare_values
from repro.errors import TypeError_
from repro.sql import ast
from repro.sql.parser import parse_statement

NAN = float("nan")
INF = float("inf")

VALUES = [None, True, False, -1, 0, 1, -0.0, 1.0, INF, -INF, NAN, "", "a"]

OPERATORS = ["=", "<>", "<", "<=", ">", ">="]
MIRRORED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

ERROR = "error"


def declared(value) -> str:
    """The column type a value is stored under (NULL: INTEGER)."""
    if isinstance(value, bool):
        return "BOOLEAN"
    if isinstance(value, float):
        return "REAL"
    if isinstance(value, str):
        return "TEXT"
    return "INTEGER"


def oracle(left, op, right, literal=False):
    """Whether ``left op right`` selects a row, or ERROR -- written from
    the rule's statement, not from the engine's code.

    Both operands' types are known before any row is read -- a column's
    declared type (an ``IN`` subquery's first output column included), or
    a literal's own (``literal``: the right side is one; a NULL literal
    has no type) -- and types that do not compare are an error whatever
    the values, a stored NULL included.
    """
    types = {declared(left), declared(right)}
    if not (literal and right is None):
        if len(types) > 1 and not types <= {"INTEGER", "REAL"}:
            return ERROR
    if left is None or right is None:
        return False
    numbers = (int, float)
    both_numbers = (
        isinstance(left, numbers)
        and isinstance(right, numbers)
        and not isinstance(left, bool)
        and not isinstance(right, bool)
    )
    if type(left) is not type(right) and not both_numbers:
        return ERROR

    def key(value):
        return (1, 0) if isinstance(value, float) and math.isnan(value) else (0, value)

    lk, rk = key(left), key(right)
    return {
        "=": lk == rk,
        "<>": lk != rk,
        "<": lk < rk,
        "<=": lk <= rk,
        ">": lk > rk,
        ">=": lk >= rk,
    }[op]


def outcome(db: Database, query) -> object:
    """Whether the query returns a row, or ERROR when it raises."""
    try:
        if isinstance(query, str):
            rows = db.execute(query).rows
        else:
            rows = db.execute_statement(query).rows
    except TypeError_:
        return ERROR
    return bool(rows)


def with_where(sql: str, condition: ast.Expression) -> ast.SelectStatement:
    """``sql`` (a SELECT without WHERE) with ``condition`` as its WHERE;
    the way to put a NaN or infinite literal in a query."""
    statement = parse_statement(sql)
    query = statement.query
    body = replace(query.body, where=condition)
    return replace(statement, query=replace(query, body=body))


def make_db(left, right, indexed: bool = False) -> Database:
    db = Database()
    db.execute(f"CREATE TABLE a (k INTEGER, x {declared(left)})")
    db.execute(f"CREATE TABLE b (k INTEGER, y {declared(right)})")
    if indexed:
        db.execute("CREATE INDEX a_x ON a (x)")
    db.table("a").insert((1, left))
    db.table("b").insert((2, right))
    return db


def row_tested(db: Database, query) -> object:
    """Whether the query's one ``Filter`` decides rows by a row test, or
    ERROR when planning raises."""
    statement = parse_statement(query) if isinstance(query, str) else query
    try:
        nodes = [db.plan(statement.query).plan]
    except TypeError_:
        return ERROR
    filters = []
    while nodes:
        node = nodes.pop()
        filters += [node] if isinstance(node, Filter) else []
        nodes.extend(node.children())
    assert len(filters) == 1
    return filters[0].row_test is not None


def has_row_test(left, right) -> bool:
    """The rule: a column declared INTEGER, TEXT or BOOLEAN against a
    constant of exactly that type (a NULL constant has none); REAL never."""
    return right is not None and declared(left) == declared(right) != "REAL"


X = ast.ColumnRef("a", "x")
LITERAL_PATHS = {"filter", "filter mirrored", "in list", "index", "index mirrored"}


@pytest.mark.parametrize(
    "left, right",
    list(itertools.product(VALUES, VALUES)),
    ids=[f"{l!r}-{r!r}" for l, r in itertools.product(VALUES, VALUES)],
)
def test_every_path_gives_the_oracle_answer(left, right):
    db = make_db(left, right)
    indexed = make_db(left, right, indexed=True)
    for op in OPERATORS:
        mirror = MIRRORED[op]
        literal = ast.Literal(right)
        paths = {
            "filter": with_where(
                "SELECT a.k FROM a", ast.BinaryOp(op, X, literal)
            ),
            "filter mirrored": with_where(
                "SELECT a.k FROM a", ast.BinaryOp(mirror, literal, X)
            ),
            "nested loop": f"SELECT a.k FROM a, b WHERE a.x {op} b.y OR a.k = 99",
            "nested loop mirrored": (
                f"SELECT a.k FROM a, b WHERE b.y {mirror} a.x OR a.k = 99"
            ),
            "join": f"SELECT a.k FROM a JOIN b ON a.x {op} b.y",
            "join mirrored": f"SELECT a.k FROM a JOIN b ON b.y {mirror} a.x",
            "exists": (
                f"SELECT a.k FROM a WHERE EXISTS"
                f" (SELECT * FROM b WHERE b.y {mirror} a.x)"
            ),
            "exists mirrored": (
                f"SELECT a.k FROM a WHERE EXISTS"
                f" (SELECT * FROM b WHERE a.x {op} b.y)"
            ),
        }
        if op == "=":
            paths["in list"] = with_where(
                "SELECT a.k FROM a", ast.InList(X, (literal,))
            )
            paths["in subquery"] = "SELECT a.k FROM a WHERE a.x IN (SELECT y FROM b)"
            paths["in subquery mirrored"] = (
                "SELECT b.k FROM b WHERE b.y IN (SELECT x FROM a)"
            )
        answers = {name: outcome(db, query) for name, query in paths.items()}
        answers["index"] = outcome(indexed, paths["filter"])
        answers["index mirrored"] = outcome(indexed, paths["filter mirrored"])
        expected = {
            name: oracle(left, op, right, literal=name in LITERAL_PATHS)
            for name in answers
        }
        assert answers == expected, op
        for name in ("filter", "filter mirrored"):
            tested = row_tested(db, paths[name])
            rule = ERROR if expected[name] == ERROR else has_row_test(left, right)
            assert tested == rule, (name, op)


def test_row_tests_compose_only_where_every_part_has_one():
    db = Database()
    db.execute("CREATE TABLE t (n INTEGER, s TEXT, r REAL, f BOOLEAN)")
    tested = {
        "n < 3 AND s = 'a'": True,
        "n BETWEEN 0 AND 2": True,
        "f = TRUE AND n <> 1 AND s >= 'a'": True,
        "n NOT BETWEEN 0 AND 2": False,
        "n < 3 OR s = 'a'": False,
        "n < 3 AND r < 1.0": False,
        "n < 3 AND n + 0 < 3": False,
        "n < 1.5": False,
        "n <> n": False,
    }
    for condition, expected in tested.items():
        query = f"SELECT * FROM t WHERE {condition}"
        assert row_tested(db, query) is expected, condition
    # A derived table's computed column has no declared type.
    derived = "SELECT * FROM (SELECT n + 0 AS m FROM t) x WHERE x.m < 3"
    assert row_tested(db, derived) is False
    # Conjunctions and BETWEEN agree with the interpreted predicate.
    values = [None, -1, 0, 1, 2, 3]
    for n, s in itertools.product(values, [None, "", "a", "b"]):
        db.execute("DELETE FROM t")
        db.table("t").insert((n, s, None, None))
        for condition in ("n < 3 AND s = 'a'", "n BETWEEN 0 AND 2", "s >= 'a'"):
            query = f"SELECT * FROM t WHERE {condition}"
            interpreted = f"SELECT * FROM t WHERE ({condition}) = TRUE"
            assert row_tested(db, interpreted) is False
            assert db.execute(query).rows == db.execute(interpreted).rows


@pytest.mark.parametrize("left, right", [(1, True), (1, "1"), (1.0, "a"), (NAN, True)])
def test_incomparable_column_types_are_never_hashed(left, right):
    """Python hashes ``1`` and ``TRUE`` alike: such an equality is no
    hash key but a comparison, which raises before any row is read."""
    db = make_db(left, right)
    join = "SELECT a.k FROM a JOIN b ON a.x = b.y"
    exists = "SELECT a.k FROM a WHERE EXISTS (SELECT * FROM b WHERE b.y = a.x)"
    for query in (join, exists):
        with pytest.raises(TypeError_, match="cannot compare"):
            db.explain(query)
        with pytest.raises(TypeError_):
            db.execute(query)


# Two distinct NaN objects: storage keeps one NaN, so they still hash alike.
@pytest.mark.parametrize("left, right", [(1, 1.0), (NAN, math.nan), ("a", "a")])
def test_comparable_column_types_are_hashed(left, right):
    db = make_db(left, right)
    join = "SELECT a.k FROM a JOIN b ON a.x = b.y"
    exists = "SELECT a.k FROM a WHERE EXISTS (SELECT * FROM b WHERE b.y = a.x)"
    assert "HashJoin" in db.explain(join)
    assert "HashSemiJoin" in db.explain(exists)
    assert db.execute(join).rows == db.execute(exists).rows == [(1,)]


def test_an_index_serves_only_a_comparable_literal():
    db = make_db(1, 1, indexed=True)
    assert "IndexScan" in db.explain("SELECT a.k FROM a WHERE a.x = 1.0")
    with pytest.raises(TypeError_, match="cannot compare INTEGER with BOOLEAN"):
        db.explain("SELECT a.k FROM a WHERE a.x = TRUE")
    with pytest.raises(TypeError_):
        db.execute("SELECT a.k FROM a WHERE a.x = TRUE")


@pytest.mark.parametrize(
    "query",
    [
        f"SELECT * FROM t WHERE {condition}"
        for condition in (
            "name < 1",
            "1 > name",
            "name = n",
            "n BETWEEN 'a' AND 'b'",
            "n IN (1, 'a')",
            "name IN (SELECT n FROM t)",
            "n IN (SELECT 'a' FROM t)",
            "n IN (SELECT u.name FROM t u WHERE u.n = t.n)",
            "n IN (SELECT name FROM t UNION SELECT name FROM t)",
            "(n > 1) = n",  # a predicate is BOOLEAN
            "n IN (SELECT name IS NULL FROM t)",
        )
    ]
    # A derived table's columns keep their declared types.
    + ["SELECT * FROM (SELECT name FROM t) x WHERE x.name < 1"],
)
def test_known_incomparable_types_raise_at_plan_time(query):
    """Declared and literal types decide before any row exists: the
    table is empty, and the error is the one a row would raise."""
    db = Database()
    db.execute("CREATE TABLE t (name TEXT, n INTEGER)")
    with pytest.raises(TypeError_, match=r"cannot compare \w+ with \w+ \("):
        db.execute(query)


def test_unknown_types_are_checked_per_row():
    db = Database()
    db.execute("CREATE TABLE t (name TEXT, n INTEGER)")
    computed = "SELECT * FROM t WHERE name < n + 0"  # no declared type
    subquery = "SELECT * FROM t WHERE name IN (SELECT n + 0 FROM t)"
    # A union's column has a type only where both branches agree on one.
    mixed = "SELECT * FROM t WHERE name IN (SELECT name FROM t UNION SELECT n FROM t)"
    for query in (computed, subquery, mixed):
        assert db.execute(query).rows == []
    assert db.execute("SELECT * FROM t WHERE name = NULL").rows == []
    db.execute("INSERT INTO t VALUES ('a', 1)")
    for query in (computed, subquery):
        with pytest.raises(TypeError_, match="cannot compare TEXT with INTEGER"):
            db.execute(query)
    assert db.execute(mixed).rows == [("a", 1)]  # 'a' meets 'a' first


ORDERS = sorted(
    set(itertools.permutations([1.0, NAN, 2.0, None, NAN])),
    key=lambda order: [repr(value) for value in order],
)


def shown(rows) -> list:
    """Rows as comparable text (NaN is unequal to itself as a float)."""
    return [tuple(repr(value) for value in row) for row in rows]


@pytest.mark.parametrize(
    "order", ORDERS, ids=["-".join(map(repr, order)) for order in ORDERS]
)
def test_orders_do_not_depend_on_insertion_order(order):
    db = Database()
    db.execute("CREATE TABLE r (k INTEGER, x REAL)")
    for k, value in enumerate(order):
        db.table("r").insert((k, value))
    assert shown(db.execute("SELECT x FROM r ORDER BY x").rows) == shown(
        [(None,), (1.0,), (2.0,), (NAN,), (NAN,)]
    )
    assert shown(db.execute("SELECT x FROM r ORDER BY x DESC").rows) == shown(
        [(NAN,), (NAN,), (2.0,), (1.0,), (None,)]
    )
    assert shown(db.execute("SELECT MIN(x), MAX(x) FROM r").rows) == shown(
        [(1.0, NAN)]
    )
    assert sorted(shown(db.execute("SELECT DISTINCT x FROM r").rows)) == sorted(
        shown([(None,), (1.0,), (2.0,), (NAN,)])
    )
    assert sorted(
        shown(db.execute("SELECT x, COUNT(*) FROM r GROUP BY x").rows)
    ) == sorted(shown([(None, 1), (1.0, 1), (2.0, 1), (NAN, 2)]))
    nans = tuple(k for k, value in enumerate(order) if value != value)
    for join in ("a.x = b.x", "(a.x = b.x OR a.k = 99)"):
        pairs = f"SELECT a.k, b.k FROM r a JOIN r b ON {join} AND a.k < b.k"
        assert db.execute(pairs).rows == [nans]


@pytest.fixture
def computed():
    """``f``: two groups whose ``x * 10`` is +inf and -inf (so ``x * 10 -
    x * 10``, their SUM and their AVG are NaN); ``n``: two stored NaNs."""
    db = Database()
    db.execute("CREATE TABLE f (k INTEGER, x REAL)")
    db.execute(
        "INSERT INTO f VALUES (1, 1e308), (1, -1e308), (2, 1e308), (2, -1e308)"
    )
    db.execute("CREATE TABLE n (k INTEGER, x REAL)")
    db.table("n").insert((1, NAN))
    db.table("n").insert((2, math.nan))
    return db


# (table, expression) pairs computing one NaN per row (or per group).
COMPUTED_NANS = {
    "arithmetic": ("f", "(x * 10) - (x * 10)"),
    "negation": ("n", "-x"),
    "ABS": ("n", "ABS(x)"),
    "ROUND": ("n", "ROUND(x)"),
    "SUM": ("(SELECT k, SUM(x * 10) AS x FROM f GROUP BY k) g", "x"),
    "AVG": ("(SELECT k, AVG(x * 10) AS x FROM f GROUP BY k) g", "x"),
}


@pytest.mark.parametrize("case", COMPUTED_NANS)
def test_a_computed_nan_is_one_hash_key(computed, case):
    source, expr = COMPUTED_NANS[case]
    select = f"SELECT {expr} FROM {source}"
    rows = computed.execute(select).rows
    assert len(rows) > 1 and all(value != value for (value,) in rows)
    distinct = computed.execute(f"SELECT DISTINCT {expr} FROM {source}").rows
    assert shown(distinct) == shown([(NAN,)])
    grouped = f"SELECT {expr}, COUNT(*) FROM {source} GROUP BY {expr}"
    assert shown(computed.execute(grouped).rows) == shown([(NAN, len(rows))])
    counted = f"SELECT COUNT(DISTINCT {expr}) FROM {source}"
    assert computed.execute(counted).rows == [(1,)]
    assert computed.execute(f"{select} EXCEPT {select}").rows == []


#: Values of each type a column stores as one exact Python type.
STORED = {
    SQLType.INTEGER: st.integers(-3, 3),
    SQLType.TEXT: st.text("ab", max_size=2),
    SQLType.BOOLEAN: st.booleans(),
}


@st.composite
def column_values(draw):
    """A declared type and two values such a column may hold (NULL too)."""
    declared = draw(st.sampled_from(sorted(STORED, key=str)))
    values = st.none() | STORED[declared]
    return declared, draw(values), draw(values)


@settings(max_examples=400, deadline=None)
@given(column_values(), st.sampled_from(OPERATORS))
def test_row_and_pair_tests_follow_compare_values(case, op):
    """Two columns of one stored type compare by a row test (both in the
    current row) or a pair test (one in the row a subquery is correlated
    with), each TRUE exactly where ``compare_values`` says so."""
    declared, left, right = case
    truth = {
        "=": operator.eq, "<>": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    }[op]

    def expected(lhs, rhs):
        if lhs is None or rhs is None:
            return False
        return truth(compare_values(lhs, rhs), 0)

    x, y = ast.ColumnRef("t", "x"), ast.ColumnRef("t", "y")
    o = ast.ColumnRef("o", "y")
    row_scope = Scope([("t", "x"), ("t", "y")], types=[declared, declared])
    compare = ExpressionCompiler(row_scope).compile(ast.BinaryOp(op, x, y))
    assert compare.row_test((left, right)) is expected(left, right)
    assert (compare(((left, right),)) is True) is expected(left, right)

    outer = Scope([("o", "y")], types=[declared])
    inner = Scope([("t", "x")], parent=outer, level=1, types=[declared])
    for lhs, rhs, node in (
        (left, right, ast.BinaryOp(op, x, o)),
        (right, left, ast.BinaryOp(op, o, x)),  # the outer column first
    ):
        compare = ExpressionCompiler(inner).compile(node)
        assert compare.pair_test((left,), (right,)) is expected(lhs, rhs)
        assert (compare(((left,), (right,))) is True) is expected(lhs, rhs)


def test_same_typed_columns_get_a_row_test_only_for_one_stored_type():
    db = Database()
    db.execute("CREATE TABLE t (n INTEGER, m INTEGER, s TEXT, u TEXT, r REAL, q REAL)")
    tested = {
        "n < m": True,
        "s <> u": True,
        "n < m AND s = 'a'": True,
        "m BETWEEN n AND n": True,
        "r <> q": False,
        "n < r": False,
        "n < m + 0": False,
    }
    for condition, expected in tested.items():
        assert row_tested(db, f"SELECT * FROM t WHERE {condition}") is expected, (
            condition
        )


@pytest.mark.parametrize("indexed", [False, True], ids=["hash", "live-index"])
def test_join_residual_runs_as_a_row_test(indexed):
    db = Database()
    db.execute("CREATE TABLE l (a INTEGER, b INTEGER)")
    db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
    db.execute("INSERT INTO l VALUES (1, 1), (1, 5), (2, NULL), (3, 3), (NULL, 1)")
    db.execute("INSERT INTO r VALUES (1, 2), (1, 9), (2, 4), (3, NULL), (3, 1)")
    if indexed:
        db.execute("CREATE INDEX r_a ON r (a)")
    sql = "SELECT l.a, l.b, r.b FROM l JOIN r ON l.a = r.a AND l.b < r.b"
    interpreted = sql.replace("l.b < r.b", "(l.b < r.b) = TRUE")
    joins = []
    nodes = [db.plan(parse_statement(sql).query).plan]
    while nodes:
        node = nodes.pop()
        joins += [node] if isinstance(node, HashJoin) else []
        nodes.extend(node.children())
    assert len(joins) == 1 and joins[0].residual.row_test is not None
    assert ("IndexProbe" in db.explain(sql)) is indexed
    assert db.execute(sql).rows == db.execute(interpreted).rows
    assert db.execute(sql).rows == [(1, 1, 2), (1, 1, 9), (1, 5, 9)]
    left = sql.replace(" JOIN ", " LEFT JOIN ")
    assert "HashJoin(left" in db.explain(left)
    assert db.execute(left).rows == db.execute(
        interpreted.replace(" JOIN ", " LEFT JOIN ")
    ).rows
