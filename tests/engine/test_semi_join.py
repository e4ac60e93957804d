"""``[NOT] EXISTS`` conjuncts as :class:`~repro.engine.plan.HashSemiJoin`.

The reference is the generic memoized subplan: the same SQL with the
correlating equality written ``inner = outer + 0``, which the
decorrelator declines (a computed outer key), evaluated per outer row.
Each case runs once with an index on the key columns (the node probes
the partner's live index) and once without (it hashes the partner).
"""

import pytest

from repro.engine import Database


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
