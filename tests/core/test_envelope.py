"""Tests for Enveloping: the Q-up / Q-down approximations."""

import pytest

from repro.conflicts import detect_conflicts
from repro.constraints import FunctionalDependency
from repro.core.envelope import Enveloper, provenance_hints
from repro.conflicts.hypergraph import vertex
from repro.core.grounding import GroundQuery
from repro.ra import from_sql_query
from repro.repairs import ground_truth_consistent_answers
from repro.sql.parser import parse_query


@pytest.fixture
def setup(emp_db):
    fd = FunctionalDependency("emp", ["name"], ["dept", "salary"])
    graph = detect_conflicts(emp_db, [fd]).hypergraph
    return emp_db, graph, Enveloper(emp_db, graph)


def tree_of(db, text):
    return from_sql_query(parse_query(text), db.catalog)


class TestConflictFreeTids:
    def test_memoized_and_correct(self, setup):
        db, graph, enveloper = setup
        clean = enveloper.conflict_free_tids("emp")
        assert len(clean) == 2  # bob, dave
        conflicting = graph.conflicting_tids("emp")
        assert clean.isdisjoint(conflicting)
        assert enveloper.conflict_free_tids("EMP") == clean  # cache, case


class TestEnvelopeBounds:
    """down(Q)  <=  consistent(Q)  <=  up(Q), on several query shapes."""

    QUERIES = [
        "SELECT * FROM emp",
        "SELECT * FROM emp WHERE salary > 11",
        "SELECT name, dept FROM emp WHERE salary = 15",
        "SELECT * FROM emp WHERE dept = 'cs' UNION SELECT * FROM emp WHERE dept = 'me'",
        "SELECT name, dept FROM emp WHERE salary = 10"
        " UNION SELECT name, dept FROM emp WHERE salary = 12",
        "SELECT * FROM emp EXCEPT SELECT * FROM emp WHERE salary > 14",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_sandwich(self, setup, text):
        db, graph, enveloper = setup
        tree = tree_of(db, text)
        evaluation = enveloper.evaluate(tree)
        truth = ground_truth_consistent_answers(db, graph, tree)
        candidates = frozenset(evaluation.candidates)
        assert evaluation.certain <= truth, "core must be sound"
        assert truth <= candidates, "envelope must be complete"

    def test_core_skip_counts(self, setup):
        db, _graph, enveloper = setup
        tree = tree_of(db, "SELECT * FROM emp")
        evaluation = enveloper.evaluate(tree)
        # bob and dave are conflict-free: they land in the certain core.
        assert evaluation.certain == {("bob", "ee", 20), ("dave", "ee", 18)}

    def test_core_disabled(self, setup):
        db, _graph, enveloper = setup
        tree = tree_of(db, "SELECT * FROM emp")
        evaluation = enveloper.evaluate(tree, compute_core=False)
        assert evaluation.certain == frozenset()
        assert evaluation.candidate_count == 6

    def test_difference_envelope_uses_core_of_right(self, setup):
        db, _graph, enveloper = setup
        tree = tree_of(
            db, "SELECT * FROM emp EXCEPT SELECT * FROM emp WHERE salary <= 12"
        )
        candidates = frozenset(enveloper.evaluate(tree).candidates)
        # ann's tuples conflict, so they are not *certainly* in the
        # right-hand side (not in down(right)); the envelope must keep
        # them as candidates even though raw evaluation would drop one.
        assert ("ann", "cs", 10) in candidates
        assert ("ann", "cs", 12) in candidates
        # dave is conflict-free with salary 18: certainly in the left,
        # certainly not in the right -> a certain answer.
        evaluation = enveloper.evaluate(tree)
        assert ("dave", "ee", 18) in evaluation.certain


class TestProvenance:
    def test_every_core_keeps_its_witness_tids(self, setup):
        db, _graph, enveloper = setup
        tree = tree_of(db, "SELECT * FROM emp WHERE salary = 15")
        evaluation = enveloper.evaluate(tree)
        (witnesses,) = evaluation.witnesses
        assert list(witnesses) == list(evaluation.candidates)
        for value, provenance in witnesses.items():
            (tid,) = provenance
            assert db.table("emp").get(tid) == value

    def test_union_and_difference_keep_both_branches(self, setup):
        """The right branch of a union is not folded into the left, and a
        difference keeps ``up(B)`` although only ``down(B)`` bounds it."""
        db, _graph, enveloper = setup
        emp = db.table("emp")
        for op in ("UNION", "EXCEPT"):
            tree = tree_of(
                db,
                f"SELECT * FROM emp WHERE dept = 'cs' {op}"
                " SELECT * FROM emp WHERE salary > 14",
            )
            left, right = enveloper.evaluate(tree).witnesses
            assert {row[1] for row in left} == {"cs"}
            assert all(row[2] > 14 for row in right)
            assert right and all(
                emp.get(tid) == row for row, (tid,) in right.items()
            )

    def test_provenance_hints_translation(self, setup):
        db, _graph, enveloper = setup
        tree = tree_of(db, "SELECT * FROM emp")
        (witnesses,) = enveloper.evaluate(tree).witnesses
        tid = next(iter(db.table("emp").lookup(("bob", "ee", 20))))
        hints = provenance_hints([witnesses], ("bob", "ee", 20))
        assert hints == [(tid,)]
        # The grounder pairs each tid with its atom's relation.
        assert GroundQuery(tree).formula_for(hints).vertices == [vertex("emp", tid)]

    def test_provenance_hints_empty(self, setup):
        assert provenance_hints([], ("bob", "ee", 20)) == []
        assert provenance_hints([{}], ("bob", "ee", 20)) == [None]

    def test_provenance_hints_name_only_the_producing_cores(self, setup):
        """A candidate of one union branch has no witness in the other: that
        core is false for it in every repair, and nothing is looked up."""
        db, _graph, enveloper = setup
        tree = tree_of(
            db,
            "SELECT * FROM emp WHERE dept = 'cs'"
            " UNION SELECT * FROM emp WHERE dept = 'ee'",
        )
        evaluation = enveloper.evaluate(tree)
        lookups = db.stats.point_lookups
        left, right = provenance_hints(evaluation.witnesses, ("bob", "ee", 20))
        assert left is None
        assert right == evaluation.witnesses[1][("bob", "ee", 20)]
        assert db.stats.point_lookups == lookups
