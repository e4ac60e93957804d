"""Property-based validation of the whole CQA stack (hypothesis).

The oracle is the *definition*: enumerate every repair (maximal
independent set of the conflict hypergraph), evaluate the query on each,
intersect.  On random small instances, random constraint sets and random
SJUD queries, Hippo's polynomial-time pipeline must agree exactly -- for
every membership strategy and with the core optimization on or off.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import Database, HippoEngine
from repro.constraints import (
    ConstraintAtom,
    DenialConstraint,
    ExclusionConstraint,
    FunctionalDependency,
)
from repro.core.envelope import Enveloper
from repro.ra import from_sql_query
from repro.repairs import (
    TooManyRepairsError,
    all_repairs,
    ground_truth_consistent_answers,
    is_repair,
)
from repro.rewriting import RewritingEngine
from repro.sql.parser import parse_expression, parse_query

# ---------------------------------------------------------------------------
# Instance / constraint / query strategies
# ---------------------------------------------------------------------------

value = st.integers(min_value=0, max_value=3)
rows = st.lists(st.tuples(value, value), min_size=0, max_size=7)


@st.composite
def instances(draw):
    r_rows = draw(rows)
    s_rows = draw(rows)
    return r_rows, s_rows


def build_db(r_rows, s_rows) -> Database:
    db = Database()
    db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
    db.execute("CREATE TABLE s (a INTEGER, b INTEGER)")
    db.insert_rows("r", r_rows)
    db.insert_rows("s", s_rows)
    return db


CONSTRAINT_SETS = [
    [FunctionalDependency("r", ["a"], ["b"])],
    [FunctionalDependency("r", ["b"], ["a"])],
    [
        FunctionalDependency("r", ["a"], ["b"]),
        FunctionalDependency("s", ["a"], ["b"]),
    ],
    [ExclusionConstraint("r", "s", [("a", "a")])],
    [
        FunctionalDependency("r", ["a"], ["b"]),
        ExclusionConstraint("r", "s", [("a", "a"), ("b", "b")]),
    ],
    [
        FunctionalDependency("r", ["a"], ["b"]),
        DenialConstraint(
            "no-three",
            (ConstraintAtom("t", "s"),),
            parse_expression("t.a = 3 AND t.b = 3"),
        ),
    ],
    [
        DenialConstraint(
            "ternary",
            (
                ConstraintAtom("x", "r"),
                ConstraintAtom("y", "r"),
                ConstraintAtom("z", "s"),
            ),
            parse_expression("x.a = y.a AND x.b < y.b AND z.a = x.a"),
        )
    ],
]

QUERY_TEMPLATES = [
    "SELECT * FROM r",
    "SELECT * FROM r WHERE a <= {c}",
    "SELECT * FROM r WHERE a = {c} OR b > {d}",
    "SELECT a FROM r WHERE b = {c}",
    "SELECT r.a, r.b, s.b FROM r, s WHERE r.a = s.a",
    "SELECT * FROM r UNION SELECT * FROM s",
    "SELECT a FROM r WHERE b = {c} UNION SELECT a FROM s WHERE b = {d}",
    "SELECT * FROM r WHERE a <= {c} EXCEPT SELECT * FROM s",
    "SELECT * FROM r EXCEPT (SELECT * FROM s EXCEPT SELECT * FROM r WHERE b = {d})",
    "SELECT * FROM r INTERSECT SELECT * FROM s",
]

constraint_sets = st.sampled_from(CONSTRAINT_SETS)
query_cases = st.tuples(st.sampled_from(QUERY_TEMPLATES), value, value)


def oracle(db, hippo, text):
    tree, _ = hippo.parse(text)
    try:
        return ground_truth_consistent_answers(db, hippo.hypergraph, tree, 50_000)
    except TooManyRepairsError:  # pragma: no cover - sizes prevent this
        assume(False)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(instances(), constraint_sets, query_cases)
def test_hippo_matches_repair_enumeration(instance, constraints, query_case):
    """The headline theorem: Hippo == intersection over all repairs."""
    template, c, d = query_case
    text = template.format(c=c, d=d)
    db = build_db(*instance)
    hippo = HippoEngine(db, constraints)
    truth = oracle(db, hippo, text)
    assert hippo.consistent_answers(text).as_set() == truth


@settings(max_examples=60, deadline=None)
@given(
    instances(),
    constraint_sets,
    query_cases,
    st.sampled_from(["query", "cached", "provenance"]),
    st.booleans(),
)
def test_strategies_and_core_agree(
    instance, constraints, query_case, strategy, use_core
):
    """Optimizations must never change the answer set."""
    template, c, d = query_case
    text = template.format(c=c, d=d)
    db = build_db(*instance)
    hippo = HippoEngine(db, constraints, membership=strategy, use_core=use_core)
    truth = oracle(db, hippo, text)
    assert hippo.consistent_answers(text).as_set() == truth


@settings(max_examples=80, deadline=None)
@given(instances(), constraint_sets, query_cases)
def test_envelope_sandwich(instance, constraints, query_case):
    """down(Q) <= consistent(Q) <= up(Q) on every instance and query."""
    template, c, d = query_case
    text = template.format(c=c, d=d)
    db = build_db(*instance)
    hippo = HippoEngine(db, constraints)
    tree = from_sql_query(
        parse_query(text), db.catalog
    )
    evaluation = Enveloper(db, hippo.hypergraph).evaluate(tree)
    truth = oracle(db, hippo, text)
    assert evaluation.certain <= truth
    assert truth <= frozenset(evaluation.candidates)


@settings(max_examples=80, deadline=None)
@given(instances(), constraint_sets)
def test_enumerated_repairs_are_repairs(instance, constraints):
    """Every enumerated repair is consistent and maximal; none repeat."""
    db = build_db(*instance)
    hippo = HippoEngine(db, constraints)
    try:
        repairs = all_repairs(db, hippo.hypergraph, 50_000)
    except TooManyRepairsError:  # pragma: no cover
        assume(False)
    assert repairs, "at least one repair always exists"
    seen = set()
    for repair in repairs:
        key = tuple(sorted((rel, tuple(sorted(tids))) for rel, tids in repair.items()))
        assert key not in seen, "duplicate repair"
        seen.add(key)
        assert is_repair(db, constraints, hippo.hypergraph, repair)


@settings(max_examples=80, deadline=None)
@given(instances(), st.sampled_from(QUERY_TEMPLATES[:5]), value, value)
def test_rewriting_agrees_on_supported_class(instance, template, c, d):
    """PODS'99 rewriting == ground truth on SJ queries under one key FD."""
    text = template.format(c=c, d=d)
    db = build_db(*instance)
    constraints = [FunctionalDependency("r", ["a"], ["b"])]
    hippo = HippoEngine(db, constraints)
    rewriting = RewritingEngine(db, constraints)
    truth = oracle(db, hippo, text)
    assert rewriting.consistent_answers(text).as_set() == truth


@settings(max_examples=60, deadline=None)
@given(instances(), constraint_sets, query_cases)
def test_cleaning_is_sound_for_monotone_queries(instance, constraints, query_case):
    """Evaluating over the conflict-free instance under-approximates the
    consistent answers for union-of-cores (monotone) queries."""
    template, c, d = query_case
    text = template.format(c=c, d=d)
    assume("EXCEPT" not in text and "INTERSECT" not in text)
    db = build_db(*instance)
    hippo = HippoEngine(db, constraints)
    truth = oracle(db, hippo, text)
    assert hippo.cleaned_answers(text).as_set() <= truth


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(value, st.integers(0, 9)), min_size=1, max_size=8),
    st.sampled_from(["COUNT", "SUM", "MIN", "MAX", "AVG"]),
)
def test_aggregate_ranges_match_brute_force(pay_rows, function):
    """Range-consistent aggregation == min/max over enumerated repairs."""
    from repro.aggregates import aggregate_range, brute_force_range
    from repro.engine.types import SQLType

    db = Database()
    db.create_table("pay", [("k", SQLType.INTEGER), ("v", SQLType.INTEGER)])
    db.insert_rows("pay", pay_rows)
    fd = FunctionalDependency("pay", ["k"], ["v"])
    column = None if function == "COUNT" else "v"
    fast = aggregate_range(db, fd, function, column)
    slow = brute_force_range(db, fd, function, column)
    assert fast.glb == pytest.approx(slow.glb)
    assert fast.lub == pytest.approx(slow.lub)
