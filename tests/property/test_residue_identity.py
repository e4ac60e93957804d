"""Merging residues must never change the rewriting's answers (hypothesis).

The rewriting keeps one ``NOT EXISTS`` per *distinct* residue condition,
judging two conditions the same when they differ only in the order of a
commutative operator's operands.  On random binary denial constraints
with operators drawn from ``=, <>, <, <=`` -- symmetric ones, asymmetric
ones and mixtures -- its answers must equal the definition's: the
intersection over all repairs.  Treating ``<`` or ``<=`` as commutative,
or forgetting which relation a residue ranges over, fails here.

The generator also draws what the rewriting cannot answer -- constraints
one tuple violates against itself, and unary denials next to binary
ones -- and there ``classify()`` must refuse: whatever it accepts is
exact, and the prover is exact on everything.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, HippoEngine
from repro.constraints import ConstraintAtom, DenialConstraint
from repro.repairs import ground_truth_consistent_answers
from repro.errors import RewritingError
from repro.rewriting import RewritingEngine, classify
from repro.sql.parser import parse_expression

value = st.integers(min_value=0, max_value=2)
rows = st.lists(st.tuples(value, value), max_size=4, unique=True)
column = st.sampled_from(["a", "b"])
OPERATORS = ["=", "<>", "<", "<="]
comparison = st.builds(
    "t1.{} {} t2.{}".format, column, st.sampled_from(OPERATORS), column
)
# No tuple is its own partner under one of these.
irreflexive = st.builds(
    "t1.{0} {1} t2.{0}".format, column, st.sampled_from(["<>", "<"])
)


@st.composite
def binary_denials(draw):
    """``NOT (left(t1) AND right(t2) AND comparisons)``.

    The residues say "no conflict partner", which is "in every repair"
    only while every conflict has two tuples: a tuple that violates a
    constraint paired with itself is in no repair, and its other partners
    lose nothing by it.  So a constraint over one relation mostly gets a
    conjunct that no tuple satisfies against itself; the ones drawn
    without it are the self-violating shape ``classify()`` refuses.
    """
    left, right = draw(st.sampled_from([("r", "r"), ("r", "s"), ("s", "r")]))
    guarded = left == right and draw(st.sampled_from([True, True, False]))
    conjuncts = draw(
        st.lists(comparison, min_size=0 if guarded else 1, max_size=2)
    )
    if guarded:
        conjuncts.insert(draw(st.integers(0, len(conjuncts))), draw(irreflexive))
    condition = " AND ".join(conjuncts)
    return DenialConstraint(
        f"{left}-{right}: {condition}",
        (ConstraintAtom("t1", left), ConstraintAtom("t2", right)),
        parse_expression(condition),
    )


unary_denials = st.builds(
    lambda relation, col, op, bound: DenialConstraint(
        f"{relation}: {col} {op} {bound}",
        (ConstraintAtom("t", relation),),
        parse_expression(f"t.{col} {op} {bound}"),
    ),
    st.sampled_from(["r", "s"]),
    column,
    st.sampled_from(["=", "<"]),
    value,
)


QUERIES = [
    "SELECT * FROM r",
    "SELECT * FROM s WHERE a <= 1",
    "SELECT r.a, r.b, s.b FROM r, s WHERE r.a = s.a",
    "SELECT u1.a, u1.b, u2.b FROM r u1, r u2 WHERE u1.a = u2.a",
    "SELECT * FROM r EXCEPT SELECT * FROM s",
]


@settings(max_examples=150, deadline=None)
@given(
    rows,
    rows,
    st.lists(binary_denials(), min_size=1, max_size=2),
    st.lists(unary_denials, max_size=1),
    st.data(),
)
def test_rewriting_matches_repair_enumeration(
    r_rows, s_rows, binary, unary, data
):
    constraints = binary + unary
    db = Database()
    db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
    db.execute("CREATE TABLE s (a INTEGER, b INTEGER)")
    db.insert_rows("r", r_rows)
    db.insert_rows("s", s_rows)
    hippo = HippoEngine(db, constraints)
    rewriting = RewritingEngine(db, constraints)
    text = data.draw(st.sampled_from(QUERIES))
    truth = ground_truth_consistent_answers(
        db, hippo.hypergraph, hippo.parse(text)[0]
    )
    assert hippo.consistent_answers(text).as_set() == truth
    if classify(text, constraints, schema=db).rewritable:
        assert rewriting.consistent_answers(text).as_set() == truth, (
            rewriting.rewrite_sql(text)
        )
    else:
        with pytest.raises(RewritingError):
            rewriting.rewrite(text)
