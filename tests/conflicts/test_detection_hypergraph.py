"""Tests for conflict detection and the conflict hypergraph."""

import pytest

from repro.conflicts import (
    ConflictHypergraph,
    detect_conflicts,
    vertex,
    violations_of,
)
from repro.constraints import (
    ConstraintAtom,
    DenialConstraint,
    ExclusionConstraint,
    FunctionalDependency,
)
from repro.core import HippoEngine
from repro.engine import Database
from repro.sql.parser import parse_expression


@pytest.fixture
def emp_fd():
    return FunctionalDependency("emp", ["name"], ["dept", "salary"])


class TestDetection:
    def test_fd_violations(self, emp_db, emp_fd):
        report = detect_conflicts(emp_db, [emp_fd])
        hypergraph = report.hypergraph
        # ann's pair (salary differs) + carol's pair (dept differs).
        assert len(hypergraph) == 2
        assert hypergraph.vertex_count == 4
        assert all(len(edge) == 2 for edge in hypergraph.edges)

    def test_no_violations_on_consistent_db(self, two_table_db):
        fd = FunctionalDependency("s", ["a"], ["b"])
        report = detect_conflicts(two_table_db, [fd])
        assert len(report.hypergraph) == 0

    def test_exclusion_violations(self, two_table_db):
        excl = ExclusionConstraint("r", "s", [("a", "a"), ("b", "b")])
        report = detect_conflicts(two_table_db, [excl])
        # r(2,5)~s(2,5) and r(4,4)~s(4,4).
        assert len(report.hypergraph) == 2
        relations = {v.relation for v in report.hypergraph.conflicting_vertices()}
        assert relations == {"r", "s"}

    def test_unary_denial_gives_singleton_edges(self, two_table_db):
        denial = DenialConstraint(
            "no-nines", (ConstraintAtom("t", "s"),), parse_expression("t.a = 9")
        )
        report = detect_conflicts(two_table_db, [denial])
        assert len(report.hypergraph) == 1
        assert report.hypergraph.summary()["singleton_edges"] == 1
        assert len(report.hypergraph.always_deleted()) == 1

    def test_ternary_denial(self, two_table_db):
        denial = DenialConstraint(
            "triangle",
            (
                ConstraintAtom("x", "r"),
                ConstraintAtom("y", "r"),
                ConstraintAtom("z", "s"),
            ),
            parse_expression("x.a = y.a AND x.b < y.b AND z.a = x.a"),
        )
        violations = violations_of(two_table_db, denial)
        assert violations == []  # r(1,*) pairs have no s(1,*) partner
        two_table_db.execute("INSERT INTO s VALUES (1, 0)")
        violations = violations_of(two_table_db, denial)
        assert len(violations) == 1
        assert len(violations[0]) == 3

    def test_per_constraint_counts(self, emp_db, emp_fd):
        report = detect_conflicts(emp_db, [emp_fd])
        assert sum(report.per_constraint.values()) == 2
        assert report.seconds >= 0

    def test_violation_sets_deduplicated(self, emp_db, emp_fd):
        # The FD produces symmetric pairs (t1,t2)/(t2,t1): stored once.
        denials = emp_fd.to_denials()
        for denial in denials:
            violations = violations_of(emp_db, denial)
            assert len(violations) == len(set(violations))


class TestHypergraph:
    def test_incidence_and_degree(self):
        a, b, c = vertex("r", 1), vertex("r", 2), vertex("r", 3)
        graph = ConflictHypergraph([frozenset({a, b}), frozenset({b, c})])
        assert graph.degree(b) == 2
        assert graph.degree(a) == 1
        assert graph.degree(vertex("r", 99)) == 0
        assert graph.is_conflicting(a)
        assert not graph.is_conflicting(vertex("r", 99))
        assert len(graph.edges_of(b)) == 2

    def test_independence(self):
        a, b, c = vertex("r", 1), vertex("r", 2), vertex("r", 3)
        graph = ConflictHypergraph([frozenset({a, b, c})])
        assert graph.is_independent({a, b})  # proper subset of an edge
        assert not graph.is_independent({a, b, c})
        assert graph.is_independent(set())

    def test_duplicate_edges_collapsed(self):
        a, b = vertex("r", 1), vertex("r", 2)
        graph = ConflictHypergraph([frozenset({a, b}), frozenset({b, a})])
        assert len(graph) == 1

    def test_empty_edge_rejected(self):
        with pytest.raises(ValueError):
            ConflictHypergraph([frozenset()])

    def test_conflicting_tids_per_relation(self):
        graph = ConflictHypergraph(
            [frozenset({vertex("r", 1), vertex("s", 2)})]
        )
        assert graph.conflicting_tids("R") == frozenset({1})
        assert graph.conflicting_tids("s") == frozenset({2})
        assert graph.conflicting_tids("t") == frozenset()

    def test_conflicting_tids_follow_adds_and_retractions(self):
        """The per-relation memo is dropped by every edge change -- also
        through an engine maintaining the graph incrementally."""
        a, b, c = vertex("r", 1), vertex("r", 2), vertex("r", 3)
        graph = ConflictHypergraph([frozenset({a, b})])
        first = graph.conflicting_tids("r")
        assert first == frozenset({1, 2})
        assert graph.conflicting_tids("r") is first  # memoized, not re-derived
        assert not graph.add_edge({a, b})  # a duplicate changes nothing
        graph.add_edge({b, c})
        assert graph.conflicting_tids("r") == frozenset({1, 2, 3})
        assert first == frozenset({1, 2})  # the old value was not mutated
        graph.remove_edge({a, b})
        assert graph.conflicting_tids("r") == frozenset({2, 3})
        graph.remove_edge({b, c})
        assert graph.conflicting_tids("r") == frozenset()

        db = Database()
        db.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 1), (2, 2)")
        engine = HippoEngine(db, [FunctionalDependency("t", ["k"], ["v"])])
        assert engine.consistent_answers("SELECT * FROM t").rows == [(1, 1), (2, 2)]
        db.execute("INSERT INTO t VALUES (1, 9)")
        assert engine.consistent_answers("SELECT * FROM t").rows == [(2, 2)]
        assert engine.detection.mode == "incremental"
        assert len(engine.hypergraph.conflicting_tids("t")) == 2
        db.execute("DELETE FROM t WHERE v = 9")
        assert engine.consistent_answers("SELECT * FROM t").rows == [(1, 1), (2, 2)]
        assert engine.hypergraph.conflicting_tids("t") == frozenset()

    def test_summary(self):
        graph = ConflictHypergraph(
            [frozenset({vertex("r", 1)}), frozenset({vertex("r", 2), vertex("s", 1)})]
        )
        summary = graph.summary()
        assert summary["edges"] == 2
        assert summary["singleton_edges"] == 1
        assert summary["max_edge_size"] == 2
        assert summary["conflicting_per_relation"] == {"r": 2, "s": 1}


class TestDetectionUsesHashJoin:
    def test_detection_scales_linearly_in_scans(self, db):
        """FD self-join detection must not scan O(n^2) rows."""
        from repro.workloads import generate_key_conflict_table

        table = generate_key_conflict_table(db, "r", 500, 0.1, seed=0)
        db.stats.reset()
        detect_conflicts(db, [table.fd])
        # Two scans of the table (hash join sides), far below 500^2.
        assert db.stats.rows_scanned <= 4 * 500
