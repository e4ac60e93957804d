"""Property tests over randomly *generated* SJUD trees.

The template-based properties exercise common SQL shapes; this module
builds arbitrary nested union/difference trees over random selection
cores directly in the SJUD representation, then checks

* Hippo == repair enumeration (the definition),
* SJUD compilation == the independently-written classical-algebra
  evaluator (two implementations of plain evaluation must agree),
* the SQL round-trip (tree -> SQL -> tree) preserves semantics.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import Database, HippoEngine
from repro.constraints import FunctionalDependency
from repro.ra import (
    Atom,
    Difference,
    OutputColumn,
    SJUDCore,
    Union_,
    evaluate_tree,
    from_sql_query,
    tree_to_sql,
)
from repro.ra.algebra import evaluate as algebra_evaluate, sjud_to_algebra
from repro.repairs import ground_truth_consistent_answers
from repro.sql import ast
from repro.sql.parser import parse_query

value = st.integers(min_value=0, max_value=3)
rows = st.lists(st.tuples(value, value), min_size=0, max_size=6)

_COMPARISONS = ["<", "<=", "=", "<>", ">", ">="]


@st.composite
def selection_cores(draw):
    """A random single-atom core: sigma over r or s, both columns kept."""
    relation = draw(st.sampled_from(["r", "s"]))
    atom = Atom("t", relation)
    conjuncts = []
    for column in ("a", "b"):
        if draw(st.booleans()):
            op = draw(st.sampled_from(_COMPARISONS))
            constant = draw(value)
            conjuncts.append(
                ast.BinaryOp(
                    op, ast.ColumnRef("t", column), ast.Literal(constant)
                )
            )
    condition = ast.conjunction(conjuncts)
    outputs = (
        OutputColumn("a", ast.ColumnRef("t", "a")),
        OutputColumn("b", ast.ColumnRef("t", "b")),
    )
    return SJUDCore((atom,), condition, outputs)


@st.composite
def sjud_trees(draw, depth: int = 3):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(selection_cores())
    combinator = draw(st.sampled_from([Union_, Difference]))
    left = draw(sjud_trees(depth=depth - 1))
    right = draw(sjud_trees(depth=depth - 1))
    return combinator(left, right)


def build_db(r_rows, s_rows) -> Database:
    db = Database()
    db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
    db.execute("CREATE TABLE s (a INTEGER, b INTEGER)")
    db.insert_rows("r", r_rows)
    db.insert_rows("s", s_rows)
    return db


CONSTRAINTS = [
    FunctionalDependency("r", ["a"], ["b"]),
    FunctionalDependency("s", ["a"], ["b"]),
]


@settings(max_examples=120, deadline=None)
@given(rows, rows, sjud_trees())
def test_random_tree_hippo_matches_enumeration(r_rows, s_rows, tree):
    db = build_db(r_rows, s_rows)
    hippo = HippoEngine(db, CONSTRAINTS)
    truth = ground_truth_consistent_answers(db, hippo.hypergraph, tree)
    assert hippo.consistent_answers(tree).as_set() == truth


@settings(max_examples=150, deadline=None)
@given(rows, rows, sjud_trees())
def test_random_tree_two_evaluators_agree(r_rows, s_rows, tree):
    db = build_db(r_rows, s_rows)
    fast = evaluate_tree(tree, db)
    oracle = algebra_evaluate(sjud_to_algebra(tree, db), db)
    assert fast == oracle


@settings(max_examples=150, deadline=None)
@given(rows, rows, sjud_trees())
def test_random_tree_sql_roundtrip_preserves_semantics(r_rows, s_rows, tree):
    db = build_db(r_rows, s_rows)
    sql = tree_to_sql(tree)
    reparsed = from_sql_query(parse_query(sql), db.catalog)
    assert evaluate_tree(reparsed, db) == evaluate_tree(tree, db)


@settings(max_examples=80, deadline=None)
@given(rows, rows, sjud_trees())
def test_random_tree_possible_answers_match_definition(r_rows, s_rows, tree):
    from repro.repairs import all_repairs, repair_restriction

    db = build_db(r_rows, s_rows)
    hippo = HippoEngine(db, CONSTRAINTS)
    union_truth = frozenset()
    for repair in all_repairs(db, hippo.hypergraph):
        union_truth |= evaluate_tree(tree, db, repair_restriction(repair))
    assert hippo.possible_answers(tree).as_set() == union_truth
