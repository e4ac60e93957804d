"""Property-based tests for the engine's algebraic invariants."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.engine import Database
from repro.ra import Atom, OutputColumn, SJUDCore, evaluate_core
from repro.ra.compile import compile_core
from repro.sql import ast

value = st.integers(min_value=0, max_value=4)
rows = st.lists(st.tuples(value, value), max_size=10)


def build_db(r_rows, s_rows) -> Database:
    db = Database()
    db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
    db.execute("CREATE TABLE s (a INTEGER, b INTEGER)")
    db.insert_rows("r", r_rows)
    db.insert_rows("s", s_rows)
    return db


@settings(max_examples=100, deadline=None)
@given(rows, rows)
def test_hash_join_equals_nested_loop(r_rows, s_rows):
    """The planner's equi-join fast path must not change results."""
    db = build_db(r_rows, s_rows)
    # Equality written as r=s triggers the hash join...
    fast = db.query(
        "SELECT r.a, r.b, s.a, s.b FROM r, s WHERE r.a = s.a"
    ).rows
    # ...an opaque equivalent (arithmetic) forces a nested loop.
    slow = db.query(
        "SELECT r.a, r.b, s.a, s.b FROM r, s WHERE r.a - s.a = 0"
    ).rows
    assert sorted(fast) == sorted(slow)


@settings(max_examples=100, deadline=None)
@given(rows, rows)
def test_set_operation_laws(r_rows, s_rows):
    db = build_db(r_rows, s_rows)
    r_set = set(db.query("SELECT DISTINCT * FROM r").rows)
    s_set = set(db.query("SELECT DISTINCT * FROM s").rows)
    union = set(db.query("SELECT * FROM r UNION SELECT * FROM s").rows)
    except_ = set(db.query("SELECT * FROM r EXCEPT SELECT * FROM s").rows)
    intersect = set(db.query("SELECT * FROM r INTERSECT SELECT * FROM s").rows)
    assert union == r_set | s_set
    assert except_ == r_set - s_set
    assert intersect == r_set & s_set


@settings(max_examples=100, deadline=None)
@given(rows)
def test_exists_equals_in_for_key_membership(r_rows):
    db = build_db(r_rows, r_rows[:3])
    via_exists = db.query(
        "SELECT DISTINCT r.a, r.b FROM r WHERE EXISTS"
        " (SELECT * FROM s WHERE s.a = r.a)"
    ).rows
    via_in = db.query(
        "SELECT DISTINCT r.a, r.b FROM r WHERE r.a IN (SELECT a FROM s)"
    ).rows
    assert sorted(via_exists) == sorted(via_in)


@settings(max_examples=100, deadline=None)
@given(rows)
def test_not_exists_is_complement(r_rows):
    db = build_db(r_rows, r_rows[1:4])
    positive = db.query(
        "SELECT r.a, r.b FROM r WHERE EXISTS (SELECT * FROM s WHERE s.b = r.b)"
    ).rows
    negative = db.query(
        "SELECT r.a, r.b FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.b = r.b)"
    ).rows
    everything = db.query("SELECT a, b FROM r").rows
    assert sorted(positive + negative) == sorted(everything)


@settings(max_examples=100, deadline=None)
@given(rows)
def test_group_by_count_partitions_table(r_rows):
    db = build_db(r_rows, [])
    counts = db.query("SELECT a, COUNT(*) FROM r GROUP BY a").rows
    assert sum(count for _a, count in counts) == len(r_rows)
    assert len(counts) == len({a for a, _b in r_rows})


@settings(max_examples=100, deadline=None)
@given(rows)
def test_order_by_sorts(r_rows):
    db = build_db(r_rows, [])
    ordered = db.query("SELECT a, b FROM r ORDER BY a, b DESC").rows
    assert len(ordered) == len(r_rows)
    for previous, current in zip(ordered, ordered[1:]):
        assert previous[0] <= current[0]
        if previous[0] == current[0]:
            assert previous[1] >= current[1]


@settings(max_examples=100, deadline=None)
@given(rows, st.integers(0, 5), st.integers(0, 5))
def test_limit_offset_window(r_rows, limit, offset):
    db = build_db(r_rows, [])
    full = db.query("SELECT a, b FROM r ORDER BY a, b").rows
    window = db.query(
        f"SELECT a, b FROM r ORDER BY a, b LIMIT {limit} OFFSET {offset}"
    ).rows
    assert window == full[offset : offset + limit]


@settings(max_examples=60, deadline=None)
@given(rows)
def test_delete_then_count(r_rows):
    db = build_db(r_rows, [])
    removed = db.execute("DELETE FROM r WHERE a = 0").rowcount
    remaining = db.query("SELECT COUNT(*) FROM r").scalar()
    assert removed + remaining == len(r_rows)
    assert db.query("SELECT COUNT(*) FROM r WHERE a = 0").scalar() == 0


# Index-probe joins read the posting lists in one pass; the same query over
# a copy without the index takes the hash path.  Keys repeat (several
# owners per posting), hold NULL (filed nowhere) and NaN (one stored
# object, matched by identity).
NAN = float("nan")
join_key = st.sampled_from([None, 0.0, 1.0, NAN])
join_rows = st.lists(st.tuples(value, join_key), max_size=8)

# Each keyed read, as (query, the access its indexed plan shows; None
# where the plan shows none: ``IN`` probes its partner from a Filter).
INDEX_JOINS = [
    ("SELECT * FROM r JOIN s ON r.k = s.k", "IndexProbe(s on [k])"),
    ("SELECT * FROM r JOIN s ON r.k = s.k AND r.a < s.a", "IndexProbe(s on [k])"),
    ("SELECT * FROM r LEFT JOIN s ON r.k = s.k", "IndexProbe(s on [k])"),
    (
        "SELECT * FROM r LEFT JOIN s ON r.k = s.k AND r.a <> s.a",
        "IndexProbe(s on [k])",
    ),
    (
        "SELECT r.a, s.a FROM r, s WHERE s.k = r.k AND s.a = r.a",
        "IndexProbe(s on [k, a])",
    ),
    ("SELECT * FROM r WHERE r.a IN (SELECT s.a FROM s WHERE s.k = r.k)", None),
    # A residual without a pair test runs interpreted over the partner rows.
    (
        "SELECT * FROM r WHERE EXISTS"
        " (SELECT * FROM s WHERE s.k = r.k AND s.a + 0 > r.a)",
        "IndexProbe(s on [k])",
    ),
    (
        "SELECT * FROM r WHERE NOT EXISTS"
        " (SELECT * FROM s WHERE s.k = r.k AND s.a + 0 > r.a)",
        "IndexProbe(s on [k])",
    ),
    # A constant key: an IndexScan against its Filter(Scan).
    ("SELECT * FROM s WHERE s.k = 1.0", "IndexScan(s on [k])"),
    ("SELECT * FROM s WHERE s.k = 0.0 AND s.a = 2", "IndexScan(s on [k, a])"),
]


def build_keyed(r_rows, s_rows, deleted, indexed: bool) -> Database:
    db = Database()
    db.execute("CREATE TABLE r (a INTEGER, k REAL)")
    db.execute("CREATE TABLE s (a INTEGER, k REAL)")
    if indexed:
        db.execute("CREATE INDEX s_k ON s (k)")
        db.execute("CREATE INDEX s_ka ON s (k, a)")
    db.insert_rows("r", r_rows)
    db.insert_rows("s", s_rows)
    db.execute(f"DELETE FROM s WHERE a = {deleted}")  # tids with gaps
    db.execute(f"UPDATE s SET a = a + 1 WHERE a = {(deleted + 1) % 5}")
    return db


@settings(max_examples=100, deadline=None)
@given(join_rows, join_rows, value)
def test_index_join_equals_hash_join(r_rows, s_rows, deleted):
    indexed = build_keyed(r_rows, s_rows, deleted, indexed=True)
    hashed = build_keyed(r_rows, s_rows, deleted, indexed=False)
    for sql, access in INDEX_JOINS:
        if access is not None:
            assert access in indexed.explain(sql)
        assert "Index" not in hashed.explain(sql)
        # Same rows in the same order; NaN is one object, so == holds.
        assert indexed.query(sql).rows == hashed.query(sql).rows, sql
    # The provenance form (+tid on both sides), as a core joins.
    core = SJUDCore(
        (Atom("x", "r"), Atom("y", "s")),
        ast.BinaryOp("=", ast.ColumnRef("x", "k"), ast.ColumnRef("y", "k")),
        tuple(
            OutputColumn(f"c{i}", ast.ColumnRef(alias, column))
            for i, (alias, column) in enumerate(
                [("x", "a"), ("x", "k"), ("y", "a")]
            )
        ),
    )
    assert "IndexProbe(s on [k] +tid)" in compile_core(core, indexed).explain()
    assert list(evaluate_core(core, indexed).items()) == list(
        evaluate_core(core, hashed).items()
    )
