"""``[NOT] EXISTS`` conjuncts as :class:`~repro.engine.plan.HashSemiJoin`.

The reference is the generic memoized subplan: the same SQL with the
correlating equality written ``inner = outer + 0``, which the
decorrelator declines (a computed outer key), evaluated per outer row.
Each case runs once with an index on the key columns (the node probes
the partner's live index) and once without (it hashes the partner).
"""

import itertools
import sqlite3

import pytest

from repro.engine import Database
from repro.engine.plan import HashSemiJoin
from repro.errors import TypeError_
from repro.sql.parser import parse_statement


@pytest.fixture
def db():
    database = Database()
    for table in ("r", "s", "e"):
        database.execute(f"CREATE TABLE {table} (a INTEGER, b INTEGER)")
    database.execute(
        "INSERT INTO r VALUES (1,10), (1,20), (2,5), (NULL,7), (3,NULL), (4,4)"
    )
    database.execute("INSERT INTO s VALUES (1,10), (2,6), (NULL,7), (3,NULL), (5,5)")
    return database


# (inner table, key equalities as (inner, outer) pairs, other conjuncts)
SHAPES = {
    "one key": ("s", [("s.a", "r.a")], []),
    "null keys on both sides": ("s", [("s.b", "r.b")], []),
    "multi-column key": ("s", [("s.a", "r.a"), ("s.b", "r.b")], []),
    "residual on the outer row": ("s", [("s.a", "r.a")], ["s.b <> r.b"]),
    "residual with null operands": ("s", [("s.a", "r.a")], ["s.b < r.b"]),
    "local filter": ("s", [("s.a", "r.a")], ["s.b > 5"]),
    "computed inner key": ("s", [("s.a + 1", "r.a")], []),
    "computed multi-column key": ("s", [("s.a + 1", "r.a"), ("s.b", "r.b")], []),
    "self partner (the FD residue)": ("r t", [("t.a", "r.a")], ["t.b <> r.b"]),
    "empty inner": ("e", [("e.a", "r.a")], []),
}


# A filtered partner is no longer a bare scan of its table, and a
# computed key is no column of an index: both hash, indexed or not.  The
# computed multi-column key probes the index on s.b instead, and its
# computed equality stays a residual.
HASHED = {"local filter", "computed inner key"}


def _query(shape: str, negated: bool, hidden: bool) -> str:
    inner, keys, others = SHAPES[shape]
    suffix = " + 0" if hidden else ""
    conjuncts = [f"{left} = {right}{suffix}" for left, right in keys] + others
    return (
        f"SELECT r.a, r.b FROM r WHERE {'NOT ' if negated else ''}EXISTS"
        f" (SELECT * FROM {inner} WHERE {' AND '.join(conjuncts)})"
    )


def index_keys(database):
    """An index on every column a shape keys on: the live-index access."""
    for table, column in (("r", "a"), ("s", "a"), ("s", "b"), ("e", "a")):
        database.execute(f"CREATE INDEX {table}_{column} ON {table} ({column})")


@pytest.mark.parametrize("indexed", [False, True], ids=["hash", "live-index"])
@pytest.mark.parametrize("negated", [False, True], ids=["exists", "not-exists"])
@pytest.mark.parametrize("shape", SHAPES)
def test_semi_join_matches_generic_subplan(db, shape, negated, indexed):
    if indexed:
        index_keys(db)
    node, reference = _query(shape, negated, False), _query(shape, negated, True)
    plan = db.explain(node)
    assert "HashSemiJoin" in plan
    probed = indexed and shape not in HASHED
    assert ("IndexProbe" in plan) is probed and ("Hash(" in plan) is not probed
    assert "HashSemiJoin" not in db.explain(reference)
    # Same rows in the same (scan) order: the node only drops rows.
    assert db.query(node).rows == db.query(reference).rows


def test_expected_rows_of_the_fd_residue(db):
    rows = db.query(_query("self partner (the FD residue)", True, False)).rows
    assert rows == [(2, 5), (None, 7), (3, None), (4, 4)]


def test_randomized_differential(rng):
    # REAL columns, so keys hold NULLs and NaNs as well as numbers.
    domain = [None, float("nan"), 0.0, 1.0, 2.0, 3.0]
    data = {
        table: [(rng.choice(domain), rng.choice(domain)) for _ in range(40)]
        for table in ("r", "s")
    }
    hashed, indexed = Database(), Database()
    for database in (hashed, indexed):
        for table in ("r", "s", "e"):
            database.execute(f"CREATE TABLE {table} (a REAL, b REAL)")
        for table, rows in data.items():
            database.insert_rows(table, rows)
    index_keys(indexed)
    for shape in SHAPES:
        if shape == "empty inner":
            continue
        for negated in (False, True):
            node, reference = (_query(shape, negated, h) for h in (False, True))
            probed = shape not in HASHED
            assert ("IndexProbe" in indexed.explain(node)) is probed
            assert "IndexProbe" not in hashed.explain(node)
            expected = hashed.query(reference).rows
            assert hashed.query(node).rows == expected, node
            assert indexed.query(node).rows == expected, node
            assert indexed.query(reference).rows == expected, node


@pytest.mark.parametrize("indexed", [False, True], ids=["hash", "live-index"])
def test_counters_stay_exact(db, indexed):
    if indexed:
        index_keys(db)
    db.stats.reset()
    db.query(_query("residual on the outer row", True, False))
    # One hash build (a live index builds nothing, and a probe of it scans
    # nothing); one probe per outer row, whatever its bucket held.
    assert db.stats.subquery_evaluations == (0 if indexed else 1)
    assert db.stats.subquery_cache_hits == 6
    assert db.stats.rows_scanned == (6 if indexed else 6 + 5)
    # A pass that stops early counts the rows it consumed (Limit pulls
    # one row past its bound before it returns).
    db.stats.reset()
    rows = db.query(_query("one key", False, False) + " LIMIT 1").rows
    assert rows == [(1, 10)]
    assert db.stats.subquery_cache_hits == 2


@pytest.mark.parametrize("indexed", [False, True], ids=["hash", "live-index"])
def test_join_and_in_counters_stay_exact(db, indexed):
    # The other keyed reads of an access count as the node does: a hash
    # scans its source once per build, a live index scans nothing.
    if indexed:
        index_keys(db)
    db.stats.reset()
    rows = db.query("SELECT r.a, s.b FROM r JOIN s ON r.a = s.a").rows
    assert rows == [(1, 10), (1, 10), (2, 6), (3, None)]
    assert db.stats.rows_scanned == (6 if indexed else 6 + 5)
    assert db.stats.subquery_evaluations == 0
    assert db.stats.subquery_cache_hits == 0
    # IN: one build for the statement, one probe per non-NULL operand.
    db.stats.reset()
    sql = "SELECT r.a, r.b FROM r WHERE r.b IN (SELECT s.b FROM s WHERE s.a = r.a)"
    assert db.query(sql).rows == [(1, 10)]
    assert db.stats.rows_scanned == (6 if indexed else 6 + 5)
    assert db.stats.subquery_evaluations == (0 if indexed else 1)
    assert db.stats.subquery_cache_hits == 5


@pytest.mark.parametrize("indexed", [False, True], ids=["hash", "live-index"])
def test_each_node_sits_over_its_own_scan_below_the_join(indexed):
    database = Database()
    database.execute("CREATE TABLE jl (a INTEGER, b0 INTEGER)")
    database.execute("CREATE TABLE jr (a INTEGER, b0 INTEGER)")
    database.execute("INSERT INTO jl VALUES (1,1), (1,2), (2,3), (3,4)")
    database.execute("INSERT INTO jr VALUES (1,7), (3,8), (3,9), (4,0)")
    if indexed:
        database.execute("CREATE INDEX jl_a ON jl (a)")
        database.execute("CREATE INDEX jr_a ON jr (a)")
    sql = (
        "SELECT l.a, l.b0, r.b0 FROM jl l, jr r WHERE l.b0 = r.a"
        " AND NOT EXISTS (SELECT * FROM jl t WHERE t.a = l.a AND t.b0 <> l.b0)"
        " AND NOT EXISTS (SELECT * FROM jr t WHERE t.a = r.a AND t.b0 <> r.b0)"
    )
    # Each residue probes its partner's index on the key when there is
    # one, else one hash of it.  The join's right input is a semi join,
    # not a scan, so the join hashes it either way.
    partners = (
        ["IndexProbe(jl on [a])", "IndexProbe(jr on [a])"]
        if indexed
        else ["Hash(1 keys)\n        Scan(jl)", "Hash(1 keys)\n          Scan(jr)"]
    )
    assert database.explain(sql) == "\n".join(
        [
            "Project",
            "  HashJoin(inner, 1 keys)",
            "    HashSemiJoin(anti, 1 keys)",
            "      Scan(jl)",
            "      " + partners[0],
            "    Hash(1 keys)",
            "      HashSemiJoin(anti, 1 keys)",
            "        Scan(jr)",
            "        " + partners[1],
        ]
    )
    assert database.query(sql).rows == [(3, 4, 0)]


def test_conjunct_over_two_sources_goes_above_their_join(db):
    sql = (
        "SELECT r.a, s.b FROM r, s WHERE r.a = s.a AND NOT EXISTS"
        " (SELECT * FROM r t WHERE t.a = r.a AND t.b = s.b)"
    )
    assert db.explain(sql).splitlines()[1:3] == [
        "  HashSemiJoin(anti, 2 keys)",
        "    HashJoin(inner, 1 keys)",
    ]
    assert db.query(sql).rows == [(2, 6), (3, None)]


PER_ROW = {
    "exists under OR": (
        "SELECT r.a, r.b FROM r WHERE r.b > 15 OR EXISTS"
        " (SELECT * FROM s WHERE s.a = r.a AND s.b <> r.b)",
        [(1, 20), (2, 5)],
    ),
    "exists under a double NOT": (
        "SELECT r.a, r.b FROM r WHERE NOT (NOT EXISTS"
        " (SELECT * FROM s WHERE s.a = r.a AND s.b <> r.b))",
        [(1, 20), (2, 5)],
    ),
    "IN (subquery)": (
        "SELECT r.a, r.b FROM r WHERE r.b IN (SELECT s.b FROM s WHERE s.a = r.a)",
        [(1, 10)],
    ),
}


@pytest.mark.parametrize("shape", PER_ROW)
def test_other_subquery_shapes_stay_per_row(db, shape):
    sql, expected = PER_ROW[shape]
    assert db.explain(sql) == "Project\n  Filter\n    Scan(r)"
    db.stats.reset()
    assert db.query(sql).rows == expected
    # Still decorrelated: one hash build, probed from the Filter's closure.
    assert db.stats.subquery_evaluations == 1


def test_reference_to_an_enclosing_query_declines_the_node(db):
    # The inner NOT EXISTS is correlated with s (its own FROM list) and
    # with r (the enclosing query): no single source resolves both.
    template = (
        "SELECT r.a, r.b FROM r WHERE EXISTS (SELECT * FROM s WHERE s.a = r.a"
        " AND NOT EXISTS (SELECT * FROM r t WHERE t.a = s.a{hide} AND t.b = r.b))"
    )
    node, reference = template.format(hide=""), template.format(hide=" + 0")
    assert db.explain(node).count("HashSemiJoin") == 1  # the outer EXISTS only
    assert db.query(node).rows == [(3, None)]
    assert db.query(reference).rows == [(3, None)]


NAN = float("nan")


@pytest.fixture
def typed_db():
    """``tr`` (outer) and ``ts`` (inner) with one column per declared type:
    NULLs on either side, a NaN, and keys that several rows share, so a
    bucket has several owners."""
    database = Database()
    for table in ("tr", "ts"):
        database.execute(
            f"CREATE TABLE {table}"
            " (k INTEGER, n INTEGER, t TEXT, f BOOLEAN, x REAL)"
        )
    database.insert_rows(
        "tr",
        [
            (1, 10, "a", True, 1.0),
            (1, 20, "b", False, NAN),
            (2, 5, None, True, None),
            (2, None, "c", None, 2.0),
            (3, 7, "a", False, 3.0),
            (None, 7, "z", True, 0.0),
            (4, 4, "d", True, 4.0),
        ],
    )
    database.insert_rows(
        "ts",
        [
            (1, 10, "a", True, 1.0),
            (1, 11, "a", False, NAN),
            (1, None, "b", None, 2.0),
            (2, 5, "c", True, NAN),
            (2, 6, None, False, None),
            (3, 7, "a", False, 3.0),
            (None, 1, "z", True, 0.0),
            (5, 5, "e", True, 5.0),
        ],
    )
    return database


# (inner table, key equalities as (inner, outer) pairs, other conjuncts,
# whether the residual is decided by a pair test): a pair test needs two
# columns whose declared types are stored as one exact Python type.
TYPED_SHAPES = {
    "TEXT <>": ("ts", [("ts.k", "tr.k")], ["ts.t <> tr.t"], True),
    "BOOLEAN <": ("ts", [("ts.k", "tr.k")], ["ts.f < tr.f"], True),
    "INTEGER, the outer column first": (
        "ts", [("ts.k", "tr.k")], ["tr.n >= ts.n"], True
    ),
    "BETWEEN two outer columns": (
        "ts", [("ts.k", "tr.k")], ["ts.n BETWEEN tr.k AND tr.n"], True
    ),
    "two pair tests": (
        "ts", [("ts.k", "tr.k")], ["ts.n <> tr.n", "ts.t <= tr.t"], True
    ),
    "self partner over duplicate keys": (
        "tr t", [("t.k", "tr.k")], ["t.n <> tr.n"], True
    ),
    "a key left as residual": (
        "ts", [("ts.k", "tr.k"), ("ts.n", "tr.n")], ["ts.t < tr.t"], True
    ),
    "REAL <> with NaN": ("ts", [("ts.k", "tr.k")], ["ts.x <> tr.x"], False),
    "INTEGER vs REAL": ("ts", [("ts.k", "tr.k")], ["ts.n < tr.x"], False),
    "a pair test and a REAL one": (
        "ts", [("ts.k", "tr.k")], ["ts.n <> tr.n", "ts.x < tr.x"], False
    ),
    "a pair test and a computed one": (
        "ts", [("ts.k", "tr.k")], ["ts.n <> tr.n", "ts.n + 0 > tr.n"], False
    ),
}


def _typed_query(shape: str, negated: bool, hidden: bool) -> str:
    inner, keys, others, _tested = TYPED_SHAPES[shape]
    suffix = " + 0" if hidden else ""
    conjuncts = [f"{left} = {right}{suffix}" for left, right in keys] + others
    return (
        f"SELECT tr.k, tr.n FROM tr WHERE {'NOT ' if negated else ''}EXISTS"
        f" (SELECT * FROM {inner} WHERE {' AND '.join(conjuncts)})"
    )


def semi_join_of(database, sql):
    """The one :class:`HashSemiJoin` of ``sql``'s plan."""
    nodes = [database.plan(parse_statement(sql).query).plan]
    found = []
    while nodes:
        node = nodes.pop()
        found += [node] if isinstance(node, HashSemiJoin) else []
        nodes.extend(node.children())
    assert len(found) == 1
    return found[0]


@pytest.mark.parametrize("indexed", [False, True], ids=["hash", "live-index"])
@pytest.mark.parametrize("negated", [False, True], ids=["exists", "not-exists"])
@pytest.mark.parametrize("shape", TYPED_SHAPES)
def test_typed_residual_matches_generic_subplan(typed_db, shape, negated, indexed):
    if indexed:
        typed_db.execute("CREATE INDEX tr_k ON tr (k)")
        typed_db.execute("CREATE INDEX ts_k ON ts (k)")
    node, reference = (_typed_query(shape, negated, h) for h in (False, True))
    residual = semi_join_of(typed_db, node).residual
    assert (getattr(residual, "pair_test", None) is not None) is TYPED_SHAPES[shape][3]
    assert ("IndexProbe" in typed_db.explain(node)) is indexed
    assert "HashSemiJoin" not in typed_db.explain(reference)
    expected = typed_db.query(reference).rows
    assert typed_db.query(node).rows == expected
    # The per-row form of the same subquery (EXISTS under OR) decides by
    # the same rule.
    per_row = node.replace(" WHERE ", " WHERE tr.k = -1 OR ", 1)
    assert "HashSemiJoin" not in typed_db.explain(per_row)
    assert typed_db.query(per_row).rows == expected


def test_typed_residual_counters_stay_exact(typed_db):
    typed_db.execute("CREATE INDEX ts_k ON ts (k)")
    for sql in (
        _typed_query("TEXT <>", True, False),
        _typed_query("TEXT <>", True, False).replace(" WHERE ", " WHERE 1 = 0 OR ", 1),
    ):
        typed_db.stats.reset()
        typed_db.query(sql)
        # A live index builds nothing; one probe per outer row.
        assert typed_db.stats.subquery_evaluations == 0
        assert typed_db.stats.subquery_cache_hits == 7


SAMPLES = {"INTEGER": 1, "TEXT": "a", "BOOLEAN": True, "REAL": 1.0}


@pytest.mark.parametrize(
    "inner, outer", list(itertools.product(SAMPLES, SAMPLES)),
    ids=[f"{i}-{o}" for i, o in itertools.product(SAMPLES, SAMPLES)],
)
def test_pair_test_needs_one_stored_type(inner, outer):
    database = Database()
    database.execute(f"CREATE TABLE a (k INTEGER, x {outer})")
    database.execute(f"CREATE TABLE b (k INTEGER, y {inner})")
    database.insert_rows("a", [(1, SAMPLES[outer])])
    database.insert_rows("b", [(1, SAMPLES[inner])])
    sql = (
        "SELECT a.k FROM a WHERE EXISTS"
        " (SELECT * FROM b WHERE b.k = a.k AND b.y <= a.x)"
    )
    if inner != outer and {inner, outer} != {"INTEGER", "REAL"}:
        with pytest.raises(TypeError_, match="cannot compare"):
            database.explain(sql)
        return
    residual = semi_join_of(database, sql).residual
    tested = getattr(residual, "pair_test", None) is not None
    assert tested is (inner == outer != "REAL")
    assert database.query(sql).rows == [(1,)]


def sqlite_rows(db, sql):
    """``sql`` over the same ``r`` and ``s`` in stdlib sqlite3."""
    conn = sqlite3.connect(":memory:")
    for table in ("r", "s"):
        conn.execute(f"CREATE TABLE {table} (a INTEGER, b INTEGER)")
        conn.executemany(
            f"INSERT INTO {table} VALUES (?, ?)",
            [row for _tid, row in db.catalog.table(table).items()],
        )
    try:
        return conn.execute(sql).fetchall()
    finally:
        conn.close()


# (query, rows, probes): neither is lifted into a HashSemiJoin, so each
# row that reaches the EXISTS probes the one hash build.
DECIDED_ON_THE_LEFT = {
    "OR": (
        "SELECT r.a, r.b FROM r WHERE r.b > 0 OR EXISTS"
        " (SELECT * FROM s WHERE s.a = r.a AND s.b + 0 > r.b)",
        [(1, 10), (1, 20), (2, 5), (None, 7), (4, 4)],
        1,  # only (3, NULL) leaves r.b > 0 undecided
    ),
    "AND under NOT": (
        "SELECT r.a, r.b FROM r WHERE NOT (r.b < 6 AND EXISTS"
        " (SELECT * FROM s WHERE s.a = r.a AND s.b + 0 > r.b))",
        [(1, 10), (1, 20), (None, 7), (3, None), (4, 4)],
        3,  # r.b < 6 is FALSE on the other three rows
    ),
}


@pytest.mark.parametrize("shape", DECIDED_ON_THE_LEFT)
def test_a_decided_left_operand_skips_the_right(db, shape):
    sql, expected, probes = DECIDED_ON_THE_LEFT[shape]
    assert "HashSemiJoin" not in db.explain(sql)
    db.stats.reset()
    assert db.query(sql).rows == expected == sqlite_rows(db, sql)
    assert db.stats.subquery_evaluations == 1
    assert db.stats.subquery_cache_hits == probes


@pytest.mark.parametrize(
    "condition",
    [
        "NULL AND FALSE",
        "NOT (NULL AND FALSE)",
        "FALSE AND NULL",
        "NULL AND TRUE",
        "NULL OR TRUE",
        "TRUE OR NULL",
        "NOT (NULL OR FALSE)",
        "NOT (r.b > 5 AND r.a > 3)",
        "r.b > 5 OR r.a = 3",
    ],
)
def test_three_valued_connectives_match_sqlite(db, condition):
    sql = f"SELECT r.a, r.b FROM r WHERE {condition}"
    assert db.query(sql).rows == sqlite_rows(db, sql)


def test_an_operand_the_left_decides_raises_nothing(db):
    # r.a is no boolean: it raises wherever it is evaluated.
    assert db.query("SELECT r.a FROM r WHERE r.a > 9 AND r.a").rows == []
    rows = db.query("SELECT r.a FROM r WHERE r.b IS NULL OR r.b > 0 OR r.a").rows
    assert len(rows) == 6
    with pytest.raises(TypeError_, match="boolean"):
        db.query("SELECT r.a FROM r WHERE r.a = 1 AND r.a")
