"""Tests for sharded per-topic hypergraph maintenance."""

from __future__ import annotations

import pytest

from repro.conflicts import (
    ShardCoordinator,
    derivation_order,
    detect_conflicts,
    merge_graphs,
    plan_assignment,
    vertex,
)
from repro.conflicts.hypergraph import ConflictHypergraph
from repro.conflicts.shard import constraint_relations
from repro.constraints import (
    ConstraintAtom,
    DenialConstraint,
    FunctionalDependency,
)
from repro.constraints.foreign_key import ForeignKeyConstraint
from repro.engine.database import Database
from repro.engine.feed import SCHEMA_TOPIC, ChangeFeed
from repro.errors import ConstraintError
from repro.sql.parser import parse_expression


def fd(relation, lhs, rhs):
    return FunctionalDependency(relation, lhs, rhs)


def cross_denial(name, left, right, condition):
    return DenialConstraint(
        name,
        (ConstraintAtom("t1", left), ConstraintAtom("t2", right)),
        parse_expression(condition),
    )


class TestPlanAssignment:
    def test_co_referenced_relations_share_a_worker(self):
        constraints = [
            ForeignKeyConstraint("c", ["pid"], "p", ["id"]),
            fd("u", ["id"], ["v"]),
        ]
        plan = plan_assignment(constraints, workers=2)
        assert plan.topic_owner["c"] == plan.topic_owner["p"]
        assert plan.topic_owner["u"] != plan.topic_owner["c"]
        assert plan.cross_shard == ()

    def test_components_balance_across_workers(self):
        constraints = [fd(name, ["id"], ["v"]) for name in "abcd"]
        plan = plan_assignment(constraints, workers=2)
        assert sorted(len(spec.owned) for spec in plan.shards) == [2, 2]
        # Deterministic: planning twice gives the same assignment.
        again = plan_assignment(constraints, workers=2)
        assert again.topic_owner == plan.topic_owner

    def test_unconstrained_relations_still_get_owners(self):
        plan = plan_assignment([], workers=2, relations=["r", "s"])
        assert set(plan.topic_owner) == {"r", "s"}

    def test_explicit_assignment_flags_cross_shard(self):
        constraint = ForeignKeyConstraint("c", ["pid"], "p", ["id"])
        plan = plan_assignment(
            [constraint], workers=2, assignment={"c": 0, "p": 1}
        )
        owner = plan.shards[0]  # the referencing side anchors ownership
        assert owner.constraints == (constraint,)
        assert owner.cross_shard == (str(constraint),)
        assert owner.foreign == ("p",)
        assert "p" in owner.subscribed
        assert plan.shards[1].constraints == ()

    def test_pinned_relation_drags_its_component(self):
        constraints = [ForeignKeyConstraint("c", ["pid"], "p", ["id"])]
        plan = plan_assignment(
            constraints, workers=2, assignment={"c": 1}
        )
        assert plan.topic_owner == {"c": 1, "p": 1}
        assert plan.cross_shard == ()

    def test_schema_topic_always_subscribed(self):
        plan = plan_assignment([fd("r", ["a"], ["b"])], workers=2)
        for spec in plan.shards:
            assert SCHEMA_TOPIC in spec.subscribed

    def test_rejects_bad_worker_counts_and_pins(self):
        with pytest.raises(ConstraintError):
            plan_assignment([], workers=0)
        with pytest.raises(ConstraintError):
            plan_assignment([], workers=2, assignment={"r": 5})

    def test_conflicting_pins_of_one_relation_rejected(self):
        with pytest.raises(ConstraintError, match="'Emp'.*'emp'"):
            plan_assignment(
                [], 2, relations=["emp"], assignment={"Emp": 0, "emp": 1}
            )
        plan = plan_assignment(
            [], 2, relations=["emp"], assignment={"Emp": 1, "emp": 1}
        )
        assert plan.topic_owner == {"emp": 1}

    def test_global_fk_cycle_rejected_at_plan_time(self):
        cyclic = [
            ForeignKeyConstraint("a", ["x"], "b", ["x"]),
            ForeignKeyConstraint("b", ["x"], "a", ["x"]),
        ]
        with pytest.raises(ConstraintError, match="cyclic"):
            plan_assignment(cyclic, workers=2, assignment={"a": 0, "b": 1})

    def test_constraint_relations_lowercase_and_anchor_first(self):
        constraint = ForeignKeyConstraint("Child", ["pid"], "Parent", ["id"])
        assert constraint_relations(constraint) == ("child", "parent")
        denial = cross_denial("x", "R", "S", "t1.a = t2.a")
        assert constraint_relations(denial) == ("r", "s")

    def test_derivation_order_denials_before_fks(self):
        constraints = [
            ForeignKeyConstraint("c", ["pid"], "p", ["id"]),
            fd("c", ["id"], ["v"]),
        ]
        names = derivation_order(constraints)
        assert names[0].startswith("fd:")
        assert names[-1].startswith("FK ")


def labelled(edge, label):
    graph = ConflictHypergraph()
    graph.add_edge(edge, label)
    return graph


class TestMergeGraphs:
    def test_duplicate_edges_dedup_to_the_earlier_label(self):
        edge = frozenset({vertex("r", 1), vertex("r", 2)})
        first = labelled(edge, "early")
        second = labelled(edge, "late")
        merged = merge_graphs([second, first], ["early", "late"])
        assert merged.as_dict() == {edge: "early"}

    def test_cross_shard_subsumption_drops_the_superset(self):
        small = frozenset({vertex("r", 1)})
        big = frozenset({vertex("r", 1), vertex("s", 2)})
        merged = merge_graphs(
            [labelled(big, "b"), labelled(small, "a")],
            ["a", "b"],
        )
        assert merged.as_dict() == {small: "a"}


def build_primary(directory, statements):
    feed = ChangeFeed(directory)
    db = Database(feed=feed)
    for statement in statements:
        db.execute(statement)
    feed.flush()
    return feed, db


TWO_TABLE_SETUP = [
    "CREATE TABLE p (id INTEGER)",
    "CREATE TABLE c (id INTEGER, pid INTEGER, v INTEGER)",
    "INSERT INTO p VALUES (0), (1)",
    "INSERT INTO c VALUES (0, 0, 2), (0, 0, 3), (1, 5, 2)",
]


class TestShardWorkers:
    def test_workers_hold_partial_databases(self, tmp_path):
        feed, db = build_primary(tmp_path / "feed", TWO_TABLE_SETUP)
        constraints = [fd("c", ["id"], ["v"])]
        coordinator = ShardCoordinator(
            feed, constraints, workers=2, assignment={"c": 0, "p": 1}
        )
        coordinator.drain()
        w0, w1 = coordinator.workers
        assert dict(w0.db.table("c").items()) == dict(db.table("c").items())
        assert dict(w0.db.table("p").items()) == {}  # not subscribed
        assert dict(w1.db.table("p").items()) == dict(db.table("p").items())
        coordinator.close()
        feed.close()

    def test_merged_equals_full_detection(self, tmp_path):
        feed, db = build_primary(tmp_path / "feed", TWO_TABLE_SETUP)
        constraints = [
            fd("c", ["id"], ["v"]),
            ForeignKeyConstraint("c", ["pid"], "p", ["id"]),
        ]
        coordinator = ShardCoordinator(feed, constraints, workers=2)
        coordinator.drain()
        assert coordinator.lag == 0
        assert (
            coordinator.graph.as_dict()
            == detect_conflicts(db, constraints).hypergraph.as_dict()
        )
        coordinator.close()
        feed.close()

    def test_worker_retention_floor_pins_only_its_topics(self, tmp_path):
        feed, db = build_primary(tmp_path / "feed", TWO_TABLE_SETUP)
        constraints = [fd("c", ["id"], ["v"])]
        coordinator = ShardCoordinator(
            feed, constraints, workers=2, assignment={"c": 0, "p": 1}
        )
        coordinator.drain()
        points = feed.recovery_points()
        shard0 = points["shard-0"]
        assert shard0.topics is not None
        assert "p" not in shard0.topics  # worker 0 never pins topic p
        assert "c" in shard0.topics and SCHEMA_TOPIC in shard0.topics
        coordinator.close()
        feed.close()

    def test_in_memory_feed_coordinator(self):
        db = Database()
        constraints = [fd("c", ["id"], ["v"])]
        coordinator = ShardCoordinator(db.changes.feed, constraints, workers=2)
        for statement in TWO_TABLE_SETUP:
            db.execute(statement)
        coordinator.drain()
        assert (
            coordinator.graph.as_dict()
            == detect_conflicts(db, constraints).hypergraph.as_dict()
        )
        coordinator.close()


class TestCrossShardConstraints:
    def constraints(self):
        return [
            fd("c", ["id"], ["v"]),
            ForeignKeyConstraint("c", ["pid"], "p", ["id"]),
        ]

    def split(self, feed):
        return ShardCoordinator(
            feed, self.constraints(), workers=2, assignment={"c": 0, "p": 1}
        )

    def test_cross_shard_fk_edge_exactly_once(self, tmp_path):
        feed, db = build_primary(tmp_path / "feed", TWO_TABLE_SETUP)
        coordinator = self.split(feed)
        coordinator.drain()
        dangling = frozenset({vertex("c", 2)})  # pid 5 references nothing
        merged = coordinator.graph
        assert merged.as_dict()[dangling].startswith("FK ")
        # Exactly once: only the owner worker derived it.
        holders = [
            worker
            for worker in coordinator.workers
            if worker.ready and worker.graph.contains_edge(dangling)
        ]
        assert len(holders) == 1
        assert holders[0].spec.index == 0  # the referencing side's owner
        coordinator.close()
        feed.close()

    def test_curing_the_referenced_side_retracts_across_boundary(
        self, tmp_path
    ):
        feed, db = build_primary(tmp_path / "feed", TWO_TABLE_SETUP)
        coordinator = self.split(feed)
        coordinator.drain()
        dangling = frozenset({vertex("c", 2)})
        assert dangling in coordinator.graph.as_dict()
        db.execute("INSERT INTO p VALUES (5)")  # cure
        feed.flush()
        coordinator.drain()
        assert dangling not in coordinator.graph.as_dict()
        db.execute("DELETE FROM p WHERE id = 5")  # re-dangle
        feed.flush()
        coordinator.drain()
        assert dangling in coordinator.graph.as_dict()
        assert (
            coordinator.graph.as_dict()
            == detect_conflicts(db, self.constraints()).hypergraph.as_dict()
        )
        coordinator.close()
        feed.close()

    def test_cross_shard_two_relation_denial_exactly_once(self, tmp_path):
        statements = [
            "CREATE TABLE r (a INTEGER)",
            "CREATE TABLE s (a INTEGER)",
            "INSERT INTO r VALUES (1), (2)",
            "INSERT INTO s VALUES (2), (3)",
        ]
        feed, db = build_primary(tmp_path / "feed", statements)
        exclusion = cross_denial("no-overlap", "r", "s", "t1.a = t2.a")
        coordinator = ShardCoordinator(
            feed, [exclusion], workers=2, assignment={"r": 0, "s": 1}
        )
        coordinator.drain()
        spec = coordinator.workers[0].spec
        assert spec.cross_shard == (str(exclusion),)
        merged = coordinator.graph.as_dict()
        full = detect_conflicts(db, [exclusion]).hypergraph.as_dict()
        assert merged == full  # no duplicates, no silent drops
        assert len(merged) == 1
        # Curing the foreign (s) side retracts across the boundary.
        db.execute("DELETE FROM s WHERE a = 2")
        feed.flush()
        coordinator.drain()
        assert coordinator.graph.as_dict() == {}
        coordinator.close()
        feed.close()

    def test_cross_shard_duplicate_violation_dedups_by_global_order(
        self, tmp_path
    ):
        # The same pair violates two constraints owned by different
        # workers; the merged label must match the monolith's.
        statements = [
            "CREATE TABLE r (a INTEGER, b INTEGER)",
            "CREATE TABLE s (a INTEGER)",
            "INSERT INTO r VALUES (1, 1), (1, 2)",
        ]
        feed, db = build_primary(tmp_path / "feed", statements)
        first = fd("r", ["a"], ["b"])
        second = DenialConstraint(
            "pairs",
            (ConstraintAtom("t1", "r"), ConstraintAtom("t2", "r")),
            parse_expression("t1.a = t2.a AND t1.b < t2.b"),
        )
        # Two workers, both subscribing r: force by giving the second
        # constraint to a worker via a dummy cross-shard split.
        anchor = cross_denial("residue", "s", "r", "t1.a = t2.a AND t2.b < 0")
        coordinator = ShardCoordinator(
            feed,
            [first, second, anchor],
            workers=2,
            assignment={"r": 0, "s": 1},
        )
        coordinator.drain()
        merged = coordinator.graph.as_dict()
        full = detect_conflicts(
            db, [first, second, anchor]
        ).hypergraph.as_dict()
        assert merged == full
        coordinator.close()
        feed.close()

    def test_cross_boundary_subsumption_and_resurrection(self, tmp_path):
        # Worker 0 derives a singleton on r (its denial); worker 1
        # derives a pair {s, r} containing the same r tuple (its
        # cross-shard denial).  The merged view must subsume the pair
        # while the singleton lives and resurrect it when the
        # singleton is cured -- exactly like the monolith.
        statements = [
            "CREATE TABLE r (a INTEGER)",
            "CREATE TABLE s (a INTEGER)",
            "INSERT INTO r VALUES (1)",
            "INSERT INTO s VALUES (1)",
        ]
        feed, db = build_primary(tmp_path / "feed", statements)
        constraints = [
            DenialConstraint(
                "no-ones",
                (ConstraintAtom("t", "r"),),
                parse_expression("t.a = 1"),
            ),
            cross_denial("overlap", "s", "r", "t1.a = t2.a"),
        ]
        coordinator = ShardCoordinator(
            feed, constraints, workers=2, assignment={"r": 0, "s": 1}
        )
        coordinator.drain()
        singleton = frozenset({vertex("r", 0)})
        pair = frozenset({vertex("r", 0), vertex("s", 0)})
        # Worker 1 holds the pair, but the merged view subsumes it.
        assert coordinator.workers[1].graph.contains_edge(pair)
        assert coordinator.graph.as_dict() == {singleton: "no-ones"}
        assert (
            coordinator.graph.as_dict()
            == detect_conflicts(db, constraints).hypergraph.as_dict()
        )
        # Cure the singleton: the pair resurfaces across the boundary.
        db.execute("UPDATE r SET a = 2 WHERE a = 1")
        db.execute("INSERT INTO s VALUES (2)")
        feed.flush()
        coordinator.drain()
        assert (
            coordinator.graph.as_dict()
            == detect_conflicts(db, constraints).hypergraph.as_dict()
        )
        assert all(len(e) == 2 for e in coordinator.graph.as_dict())
        coordinator.close()
        feed.close()

    def test_restricted_class_check_stays_global(self, tmp_path):
        # A choice conflict on the FK-referenced relation must raise on
        # the shard that owns the denial, exactly like the monolith.
        statements = [
            "CREATE TABLE p (id INTEGER, v INTEGER)",
            "CREATE TABLE c (id INTEGER, pid INTEGER)",
            "INSERT INTO p VALUES (1, 1), (1, 2)",
        ]
        feed, db = build_primary(tmp_path / "feed", statements)
        constraints = [
            fd("p", ["id"], ["v"]),  # multi-tuple conflicts on p
            ForeignKeyConstraint("c", ["pid"], "p", ["id"]),
        ]
        with pytest.raises(ConstraintError, match="referenced"):
            detect_conflicts(db, constraints)
        with pytest.raises(ConstraintError, match="referenced"):
            coordinator = ShardCoordinator(
                feed, constraints, workers=2, assignment={"p": 0, "c": 1}
            )
            coordinator.drain()
        feed.close()


class TestCheckpointRestart:
    def test_worker_restarts_from_committed_cut(self, tmp_path):
        feed, db = build_primary(tmp_path / "feed", TWO_TABLE_SETUP)
        constraints = [
            fd("c", ["id"], ["v"]),
            ForeignKeyConstraint("c", ["pid"], "p", ["id"]),
        ]
        coordinator = ShardCoordinator(
            feed, constraints, workers=2, assignment={"c": 0, "p": 1}
        )
        coordinator.drain()
        before = coordinator.graph.as_dict()
        coordinator.restart(0)
        assert coordinator.workers[0].lag == 0  # resumed at the committed cut
        assert coordinator.graph.as_dict() == before
        coordinator.close()
        feed.close()

    def test_respawn_without_snapshots_writes_no_snapshot(self, tmp_path):
        feed, db = build_primary(tmp_path / "feed", TWO_TABLE_SETUP)
        constraints = [fd("c", ["id"], ["v"])]
        coordinator = ShardCoordinator(
            feed,
            constraints,
            workers=2,
            assignment={"c": 0, "p": 1},
            snapshots=False,
        )
        coordinator.drain()
        before = coordinator.graph.as_dict()
        coordinator.restart(0)  # the respawn path checkpoints -- or not
        assert coordinator.workers[0].lag == 0
        assert coordinator.graph.as_dict() == before
        assert feed.load_snapshot("shard-0") is None
        coordinator.close()
        assert feed.load_snapshot("shard-0") is None
        feed.close()

    def test_worker_restarts_from_shard_checkpoint_after_truncation(
        self, tmp_path
    ):
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory, segment_records=2, retention="compact")
        db = Database(feed=feed)
        for statement in TWO_TABLE_SETUP:
            db.execute(statement)
        feed.flush()
        constraints = [
            fd("c", ["id"], ["v"]),
            ForeignKeyConstraint("c", ["pid"], "p", ["id"]),
        ]
        coordinator = ShardCoordinator(
            feed, constraints, workers=2, assignment={"c": 0, "p": 1}
        )
        coordinator.drain()
        # Checkpoint every recovery participant, then let retention
        # reclaim the prefix behind the floors.
        coordinator.checkpoint()
        db.checkpoint()
        for key in range(10, 16):
            db.execute(f"INSERT INTO c VALUES ({key}, 0, {key})")
        feed.flush()
        coordinator.drain()
        coordinator.checkpoint()
        db.checkpoint()
        assert any(t.start > 0 for t in feed.topics())  # reclaim ran
        before = coordinator.graph.as_dict()
        for index in range(2):
            coordinator.restart(index)
        assert coordinator.graph.as_dict() == before
        assert (
            coordinator.graph.as_dict()
            == detect_conflicts(db, constraints).hypergraph.as_dict()
        )
        coordinator.close()
        feed.close()


class TestMixedCaseRelations:
    def test_mixed_case_tables_and_constraints_shard_cleanly(self, tmp_path):
        statements = [
            "CREATE TABLE Dept (dname TEXT)",
            "CREATE TABLE Emp (name TEXT, dept TEXT, salary INTEGER)",
            "INSERT INTO Dept VALUES ('cs'), ('ee')",
            "INSERT INTO Emp VALUES"
            " ('ann', 'cs', 10), ('ann', 'cs', 12), ('bob', 'me', 5)",
        ]
        feed, db = build_primary(tmp_path / "feed", statements)
        constraints = [
            FunctionalDependency("Emp", ["name"], ["salary"]),
            ForeignKeyConstraint("Emp", ["dept"], "Dept", ["dname"]),
        ]
        coordinator = ShardCoordinator(
            feed, constraints, workers=2, assignment={"EMP": 0, "dept": 1}
        )
        assert coordinator.plan.topic_owner == {"emp": 0, "dept": 1}
        coordinator.drain()
        assert (
            coordinator.graph.as_dict()
            == detect_conflicts(db, constraints).hypergraph.as_dict()
        )
        # The assembled database answers under the declared case.
        assembled = coordinator.database()
        assert dict(assembled.table("Emp").items()) == dict(
            db.table("Emp").items()
        )
        coordinator.close()
        feed.close()


class TestShardedEngine:
    def test_engine_answers_from_the_merged_view(self, tmp_path):
        feed, db = build_primary(tmp_path / "feed", TWO_TABLE_SETUP)
        constraints = [fd("c", ["id"], ["v"])]
        coordinator = ShardCoordinator(
            feed, constraints, workers=2, assignment={"c": 0, "p": 1}
        )
        coordinator.drain()
        engine = coordinator.engine()
        assert engine.detection.mode == "external"
        answers = engine.consistent_answers("SELECT * FROM c")
        # Tuple id 0 is disputed (two v values); id 1 survives every
        # repair.
        assert answers.as_set() == {(1, 5, 2)}
        coordinator.close()
        feed.close()
