"""Tests for repair enumeration and checking (the ground-truth oracle)."""

import pytest

from repro.conflicts import ConflictHypergraph, detect_conflicts, vertex
from repro.constraints import ConstraintAtom, DenialConstraint, FunctionalDependency
from repro.ra import from_sql_query
from repro.repairs import (
    TooManyRepairsError,
    all_repairs,
    ground_truth_consistent_answers,
    is_repair,
    maximal_independent_sets,
    satisfies_constraints,
)
from repro.sql.parser import parse_expression, parse_query


@pytest.fixture
def emp_setup(emp_db):
    fd = FunctionalDependency("emp", ["name"], ["dept", "salary"])
    report = detect_conflicts(emp_db, [fd])
    return emp_db, fd, report.hypergraph


class TestMaximalIndependentSets:
    def test_single_edge_graph(self):
        a, b = vertex("r", 1), vertex("r", 2)
        graph = ConflictHypergraph([frozenset({a, b})])
        sets = maximal_independent_sets(graph)
        assert sorted(sets, key=sorted) == [frozenset({a}), frozenset({b})]

    def test_triangle_hyperedge(self):
        a, b, c = vertex("r", 1), vertex("r", 2), vertex("r", 3)
        graph = ConflictHypergraph([frozenset({a, b, c})])
        sets = maximal_independent_sets(graph)
        # Any 2 of 3 vertices: three maximal independent sets.
        assert len(sets) == 3
        assert all(len(s) == 2 for s in sets)

    def test_chain_graph(self):
        a, b, c = vertex("r", 1), vertex("r", 2), vertex("r", 3)
        graph = ConflictHypergraph([frozenset({a, b}), frozenset({b, c})])
        sets = set(maximal_independent_sets(graph))
        assert sets == {frozenset({a, c}), frozenset({b})}

    def test_limit_enforced(self):
        edges = [
            frozenset({vertex("r", 2 * i), vertex("r", 2 * i + 1)})
            for i in range(12)
        ]
        graph = ConflictHypergraph(edges)
        with pytest.raises(TooManyRepairsError):
            maximal_independent_sets(graph, limit=100)


class TestAllRepairs:
    def test_count_matches_conflict_structure(self, emp_setup):
        db, _fd, graph = emp_setup
        repairs = all_repairs(db, graph)
        # Two independent binary conflicts: 2 * 2 = 4 repairs.
        assert len(repairs) == 4

    def test_repairs_keep_conflict_free_tuples(self, emp_setup):
        db, _fd, graph = emp_setup
        bob_tid = next(iter(db.table("emp").lookup(("bob", "ee", 20))))
        for repair in all_repairs(db, graph):
            assert bob_tid in repair["emp"]

    def test_each_repair_is_a_repair(self, emp_setup):
        db, fd, graph = emp_setup
        for repair in all_repairs(db, graph):
            assert satisfies_constraints(db, [fd], repair)
            assert is_repair(db, [fd], graph, repair)

    def test_dropping_a_tuple_breaks_maximality(self, emp_setup):
        db, fd, graph = emp_setup
        repair = all_repairs(db, graph)[0]
        tid = next(iter(repair["emp"]))
        smaller = {"emp": repair["emp"] - {tid}}
        assert not is_repair(db, [fd], graph, smaller)

    def test_full_db_not_a_repair_when_inconsistent(self, emp_setup):
        db, fd, graph = emp_setup
        everything = {"emp": frozenset(db.table("emp").tids())}
        assert not satisfies_constraints(db, [fd], everything)

    def test_consistent_db_has_one_repair(self, two_table_db):
        fd = FunctionalDependency("s", ["a"], ["b"])
        graph = detect_conflicts(two_table_db, [fd]).hypergraph
        repairs = all_repairs(two_table_db, graph)
        assert len(repairs) == 1
        assert repairs[0]["s"] == frozenset(two_table_db.table("s").tids())

    def test_singleton_edge_tuple_in_no_repair(self, two_table_db):
        denial = DenialConstraint(
            "no-nines",
            (ConstraintAtom("t", "s"),),
            parse_expression("t.a = 9"),
        )
        graph = detect_conflicts(two_table_db, [denial]).hypergraph
        bad_tid = next(iter(two_table_db.table("s").lookup((9, 9))))
        for repair in all_repairs(two_table_db, graph):
            assert bad_tid not in repair["s"]


class TestGroundTruth:
    def test_selection_drops_disputed(self, emp_setup):
        db, _fd, graph = emp_setup
        tree = from_sql_query(
            parse_query("SELECT * FROM emp WHERE salary >= 10"),
            db.catalog,
        )
        truth = ground_truth_consistent_answers(db, graph, tree)
        assert truth == {("bob", "ee", 20), ("dave", "ee", 18)}

    def test_union_recovers_disjunctive_info(self, emp_setup):
        db, _fd, graph = emp_setup
        tree = from_sql_query(
            parse_query(
                "SELECT name, dept FROM emp WHERE salary = 10"
                " UNION SELECT name, dept FROM emp WHERE salary = 12"
            ),
            db.catalog,
        )
        truth = ground_truth_consistent_answers(db, graph, tree)
        assert truth == {("ann", "cs")}

    def test_empty_when_no_common_answers(self, emp_setup):
        db, _fd, graph = emp_setup
        tree = from_sql_query(
            parse_query("SELECT * FROM emp WHERE salary = 12"),
            db.catalog,
        )
        assert ground_truth_consistent_answers(db, graph, tree) == frozenset()


class TestMixedCaseNames:
    """Repairs key relations by ``name.lower()`` while the catalog keeps
    declared case; the whole oracle must bridge the two."""

    def build(self):
        from repro.engine.database import Database

        db = Database()
        db.execute("CREATE TABLE Emp (Name TEXT, Salary INTEGER)")
        db.execute(
            "INSERT INTO Emp VALUES ('ann', 10), ('ann', 20), ('bob', 5)"
        )
        fd = FunctionalDependency("Emp", ["Name"], ["Salary"])
        report = detect_conflicts(db, [fd])
        return db, fd, report.hypergraph

    def test_repairs_are_keyed_lowercase_and_complete(self):
        db, fd, graph = self.build()
        # Vertices are normalized to lower-case relation names...
        assert {v.relation for e in graph.edges for v in e} == {"emp"}
        repairs = all_repairs(db, graph)
        # ...and so are the repair keys, even though the catalog answers
        # to the declared mixed-case name.
        assert all(set(r) == {"emp"} for r in repairs)
        assert len(repairs) == 2
        bob = next(iter(db.table("Emp").lookup(("bob", 5))))
        assert all(bob in r["emp"] for r in repairs)
        for repair in repairs:
            assert satisfies_constraints(db, [fd], repair)
            assert is_repair(db, [fd], graph, repair)

    def test_ground_truth_resolves_mixed_case_queries(self):
        db, _fd, graph = self.build()
        tree = from_sql_query(
            parse_query("SELECT * FROM Emp WHERE Salary > 0"),
            db.catalog,
        )
        truth = ground_truth_consistent_answers(db, graph, tree)
        assert truth == {("bob", 5)}


class TestShardedGroundTruth:
    """Consistent answers computed over the *merged shard view* must
    equal the repair-enumeration ground truth (and the primary engine)
    for the demo workloads -- including mixed-case relation names and a
    cross-shard foreign key."""

    QUERIES = [
        "SELECT * FROM Emp WHERE salary >= 10",
        "SELECT * FROM Emp WHERE dept = 'cs'",
        "SELECT name, dept FROM Emp WHERE salary = 10"
        " UNION SELECT name, dept FROM Emp WHERE salary = 12",
        "SELECT * FROM Dept",
    ]

    def build(self, tmp_path, workers, assignment):
        from repro.conflicts import ShardCoordinator
        from repro.engine.database import Database
        from repro.engine.feed import ChangeFeed
        from repro.constraints.foreign_key import ForeignKeyConstraint

        feed = ChangeFeed(tmp_path / "feed")
        db = Database(feed=feed)
        db.execute("CREATE TABLE Dept (dname TEXT)")
        db.execute(
            "CREATE TABLE Emp (name TEXT, dept TEXT, salary INTEGER)"
        )
        db.execute("INSERT INTO Dept VALUES ('cs'), ('ee')")
        db.execute(
            "INSERT INTO Emp VALUES"
            " ('ann', 'cs', 10),"
            " ('ann', 'cs', 12),"
            " ('bob', 'ee', 20),"
            " ('carol', 'me', 15),"  # dangling: 'me' is not a Dept
            " ('dave', 'ee', 18)"
        )
        feed.flush()
        constraints = [
            FunctionalDependency("Emp", ["name"], ["dept", "salary"]),
            ForeignKeyConstraint("Emp", ["dept"], "Dept", ["dname"]),
        ]
        coordinator = ShardCoordinator(
            feed, constraints, workers=workers, assignment=assignment
        )
        coordinator.drain()
        return feed, db, constraints, coordinator

    @pytest.mark.parametrize(
        "workers,assignment",
        [(2, None), (2, {"emp": 0, "Dept": 1})],  # co-located / cross-shard
    )
    def test_sharded_answers_equal_ground_truth(
        self, tmp_path, workers, assignment
    ):
        from repro.core.hippo import HippoEngine

        feed, db, constraints, coordinator = self.build(
            tmp_path, workers, assignment
        )
        full = detect_conflicts(db, constraints)
        assert coordinator.graph.as_dict() == full.hypergraph.as_dict()
        sharded = coordinator.engine()
        primary = HippoEngine(db, constraints)
        for query in self.QUERIES:
            tree = from_sql_query(parse_query(query), db.catalog)
            truth = ground_truth_consistent_answers(
                db, full.hypergraph, tree
            )
            assert sharded.consistent_answers(query).as_set() == truth
            assert primary.consistent_answers(query).as_set() == truth
        coordinator.close()
        feed.close()
