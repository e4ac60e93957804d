"""Tests for possible answers, explanations and repair counting."""

import pytest

from repro import Database, HippoEngine
from repro.conflicts import ConflictHypergraph, detect_conflicts, vertex
from repro.constraints import FunctionalDependency
from repro.errors import UnsupportedQueryError
from repro.ra import evaluate_tree
from repro.repairs import (
    all_repairs,
    conflict_components,
    count_repairs_exact,
    repair_restriction,
)
from repro.workloads import generate_key_conflict_table


@pytest.fixture
def hippo(emp_db):
    fd = FunctionalDependency("emp", ["name"], ["dept", "salary"])
    return HippoEngine(emp_db, [fd])


class TestPossibleAnswers:
    def test_possible_superset_of_consistent(self, hippo):
        text = "SELECT * FROM emp"
        consistent = hippo.consistent_answers(text).as_set()
        possible = hippo.possible_answers(text).as_set()
        assert consistent <= possible
        # Every stored tuple of this instance survives in some repair.
        assert possible == hippo.raw_answers(text).as_set()

    def test_possible_matches_repair_enumeration(self, hippo):
        for text in [
            "SELECT * FROM emp WHERE dept = 'cs'",
            "SELECT * FROM emp EXCEPT SELECT * FROM emp WHERE salary >= 15",
            "SELECT name, dept FROM emp WHERE salary = 12",
        ]:
            tree, _ = hippo.parse(text)
            truth = frozenset()
            for repair in all_repairs(hippo.db, hippo.hypergraph):
                truth |= evaluate_tree(
                    tree, hippo.db, repair_restriction(repair)
                )
            assert hippo.possible_answers(text).as_set() == truth, text

    def test_difference_possible_vs_consistent_gap(self):
        db = Database()
        db.execute("CREATE TABLE p (a INTEGER, b INTEGER)")
        db.execute("CREATE TABLE q (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO p VALUES (1, 5)")
        db.execute("INSERT INTO q VALUES (1, 5), (1, 6)")
        fd = FunctionalDependency("q", ["a"], ["b"])
        hippo = HippoEngine(db, [fd])
        text = "SELECT * FROM p EXCEPT SELECT * FROM q"
        # Not consistent (the repair keeping q(1,5) kills it) but possible
        # (the repair keeping q(1,6) admits it).
        assert hippo.consistent_answers(text).rows == []
        assert hippo.possible_answers(text).rows == [(1, 5)]


class TestExplainCandidate:
    def test_consistent_candidate(self, hippo):
        report = hippo.explain_candidate("SELECT * FROM emp", ("bob", "ee", 20))
        assert report["consistent"] and report["possible"]
        assert report["facts"] == ["emp(bob, ee, 20)"]

    def test_inconsistent_candidate_names_counterexample(self, hippo):
        report = hippo.explain_candidate("SELECT * FROM emp", ("ann", "cs", 10))
        assert not report["consistent"]
        assert report["possible"]
        assert report["falsifying_repair_excludes"] == ["emp(ann, cs, 10)"]

    def test_impossible_candidate(self, hippo):
        report = hippo.explain_candidate("SELECT * FROM emp", ("zoe", "cs", 1))
        assert not report["possible"]
        assert not report["consistent"]

    def test_a_tuple_no_core_produces_is_reported_as_such(self, hippo):
        """Not in the database, so false in every repair: no facts, no
        counterexample -- the report says no core produces it."""
        report = hippo.explain_candidate("SELECT * FROM emp", ("zoe", "cs", 1))
        assert report["produced"] is False
        assert report["facts"] == []
        assert "falsifying_repair_excludes" not in report
        produced = hippo.explain_candidate("SELECT * FROM emp", ("ann", "cs", 10))
        assert produced["produced"] is True

    def test_decided_by_names_the_stage_that_decides(self, hippo, emp_db):
        candidates = [("bob", "ee", 20), ("ann", "cs", 10), ("zoe", "cs", 1)]
        decided = [
            hippo.explain_candidate("SELECT * FROM emp", candidate)["decided_by"]
            for candidate in candidates
        ]
        assert decided == ["core", "refuted", "envelope"]
        # ann's two rows feed the two branches: neither rule decides it.
        union = (
            "SELECT name, dept FROM emp WHERE salary = 10"
            " UNION SELECT name, dept FROM emp WHERE salary = 12"
        )
        report = hippo.explain_candidate(union, ("ann", "cs"))
        assert report["consistent"] and report["decided_by"] == "prover"
        fd = FunctionalDependency("emp", ["name"], ["dept", "salary"])
        without_core = HippoEngine(emp_db, [fd], use_core=False)
        report = without_core.explain_candidate("SELECT * FROM emp", ("bob", "ee", 20))
        assert report["decided_by"] == "prover"

    @pytest.mark.parametrize("candidate", [(2, 5, 6), (2,), ()])
    def test_wrong_arity_is_refused_naming_the_columns(
        self, two_table_db, candidate
    ):
        """An extra value used to be ignored silently ("(2, 5, 6):
        consistent"); a missing one died with a bare IndexError."""
        engine = HippoEngine(two_table_db, [])
        with pytest.raises(UnsupportedQueryError, match=r"returns 2: \(a, b\)"):
            engine.explain_candidate("SELECT * FROM r", candidate)
        # The same check covers set operations (arity of the left branch).
        with pytest.raises(UnsupportedQueryError, match="returns 2"):
            engine.explain_candidate(
                "SELECT * FROM r EXCEPT SELECT * FROM s", candidate
            )
        assert engine.explain_candidate("SELECT * FROM r", (2, 5))["consistent"]

    def test_report_dedupes_a_fact_filling_two_slots(self, two_table_db):
        """``r EXCEPT r``: both slots carry r(2, 5); the report names it once."""
        engine = HippoEngine(two_table_db, [])
        report = engine.explain_candidate(
            "SELECT * FROM r EXCEPT SELECT * FROM r WHERE a > 0", (2, 5)
        )
        assert not report["consistent"] and not report["possible"]
        assert report["facts"] == ["r(2, 5)"]


class TestConflictComponents:
    def test_components_partition_conflicting_vertices(self, hippo):
        components = conflict_components(hippo.hypergraph)
        assert len(components) == 2  # ann's pair, carol's pair
        union = frozenset().union(*components)
        assert union == frozenset(hippo.hypergraph.conflicting_vertices())

    def test_chain_is_one_component(self):
        a, b, c = vertex("r", 1), vertex("r", 2), vertex("r", 3)
        graph = ConflictHypergraph([frozenset({a, b}), frozenset({b, c})])
        assert len(conflict_components(graph)) == 1


class TestRepairCounting:
    def test_matches_enumeration_on_small_instance(self, hippo):
        count = count_repairs_exact(hippo.hypergraph)
        assert count.total == len(all_repairs(hippo.db, hippo.hypergraph))
        assert count.component_counts == (2, 2)

    def test_consistent_db_has_one_repair(self, two_table_db):
        fd = FunctionalDependency("s", ["a"], ["b"])
        graph = detect_conflicts(two_table_db, [fd]).hypergraph
        count = count_repairs_exact(graph)
        assert count.total == 1 and count.components == 0

    def test_counts_astronomical_instances_without_enumerating(self):
        """2^200 repairs: enumeration is hopeless, factorization is not."""
        db = Database()
        table = generate_key_conflict_table(db, "r", 1000, 0.4, seed=41)
        graph = detect_conflicts(db, [table.fd]).hypergraph
        count = count_repairs_exact(graph)
        assert count.components == 200  # 400 conflicting tuples in pairs
        assert count.total == 2 ** 200
