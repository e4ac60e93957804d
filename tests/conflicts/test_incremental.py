"""Unit tests for incremental conflict-hypergraph maintenance.

The equivalence property suite (``tests/property``) checks the global
invariant -- incremental == full re-detection after arbitrary update
sequences; the tests here pin down the moving parts one by one: the
change log, hypergraph edge add/remove, edge retraction, FK cascade
re-derivation, subsumption bookkeeping and the engine-level fallbacks.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import Database, HippoEngine
from repro.conflicts import ConflictHypergraph, Vertex, detect_conflicts, vertex
from repro.conflicts.incremental import IncrementalDetector
from repro.constraints import (
    ConstraintAtom,
    DenialConstraint,
    ExclusionConstraint,
    FunctionalDependency,
)
from repro.constraints.foreign_key import ForeignKeyConstraint
from repro.engine.changelog import ChangeLog
from repro.engine.feed import ChangeFeed
from repro.errors import ConstraintError, TypeError_
from repro.sql.parser import parse_expression


def assert_equivalent(engine: HippoEngine, db: Database, constraints) -> None:
    """The maintained hypergraph equals full re-detection, field by field."""
    full = detect_conflicts(db, constraints)
    maintained = engine.hypergraph
    assert maintained.as_dict() == full.hypergraph.as_dict()
    assert engine.detection.per_constraint == full.per_constraint
    assert engine.detection.subsumed == full.subsumed
    # Adjacency agrees vertex by vertex.
    assert set(maintained.conflicting_vertices()) == set(
        full.hypergraph.conflicting_vertices()
    )
    for v in full.hypergraph.conflicting_vertices():
        assert set(maintained.edges_of(v)) == set(full.hypergraph.edges_of(v))
        assert len(maintained.edges_of(v)) == len(full.hypergraph.edges_of(v))


class TestChangeLog:
    def test_nothing_buffered_without_cursor(self):
        log = ChangeLog()
        log.record("r", 0, (1,), "insert")
        assert log.end == 0

    def test_consumer_sees_changes_once(self):
        log = ChangeLog()
        consumer = log.feed.consumer()
        log.record("r", 0, (1,), "insert")
        assert consumer.lag == 1
        records, lost = consumer.poll()
        assert not lost and [r.tid for r in records] == [0]
        assert consumer.poll() == ([], False)

    def test_two_consumers_compact_at_slowest(self):
        log = ChangeLog()
        fast, slow = log.feed.consumer(), log.feed.consumer()
        log.record("r", 0, (1,), "insert")
        fast.poll()
        fast.commit()
        assert slow.lag == 1
        records, lost = slow.poll()
        assert [r.tid for r in records] == [0] and not lost

    def test_overflow_marks_consumer_lost(self):
        log = ChangeLog(ChangeFeed(max_retained=2))
        consumer = log.feed.consumer()
        for tid in range(4):
            log.record("r", tid, (tid,), "insert")
        records, lost = consumer.poll()
        assert lost and records == []
        assert consumer.poll() == ([], False)  # repositioned at the end

    def test_update_emits_delete_then_insert(self):
        db = Database()
        db.execute("CREATE TABLE r (a INTEGER)")
        consumer = db.changes.feed.consumer()
        tid = db.insert_rows("r", [(1,)])[0]
        db.execute("UPDATE r SET a = 2")
        ops = [(r.op, r.tid, r.row) for r in consumer.poll()[0]]
        assert ops == [
            ("insert", tid, (1,)),
            ("delete", tid, (1,)),
            ("insert", tid, (2,)),
        ]

    def test_collected_engine_releases_its_cursor(self):
        import gc

        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        fd = FunctionalDependency("r", ["a"], ["b"])
        engine = HippoEngine(db, [fd])
        del engine  # dropped without detach()
        gc.collect()
        db.execute("INSERT INTO r VALUES (1, 2)")
        assert db.changes.end == 0  # nobody listening, nothing buffered

    @pytest.mark.parametrize("release", ["detach", "collect"])
    def test_released_engine_stops_pinning_retention(self, tmp_path, release):
        import gc

        feed = ChangeFeed(tmp_path / "feed", segment_records=4)
        db = Database(feed=feed)
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        engine = HippoEngine(
            db, [FunctionalDependency("r", ["a"], ["b"])], group="eng"
        )
        for a in range(3):
            db.execute(f"INSERT INTO r VALUES ({a}, 0)")
        engine.refresh()  # the group commits offset 3 on topic r
        if release == "detach":
            engine.detach()
        else:
            del engine
            gc.collect()
        for a in range(3, 20):
            db.execute(f"INSERT INTO r VALUES ({a}, 0)")
        db.checkpoint()
        # Only the writer's checkpoint holds retention now: the engine
        # never resumes from its position, so nothing pins offset 3.
        assert "eng" not in feed.recovery_points()
        assert feed.compact() == {"r": 16}  # every sealed segment
        feed.close()

    def test_ddl_bumps_schema_version(self):
        db = Database()
        before = db.changes.feed.schema_version
        db.execute("CREATE TABLE r (a INTEGER)")
        db.execute("DROP TABLE r")
        assert db.changes.feed.schema_version == before + 2


class TestMutableHypergraph:
    def edge(self, *tids: int) -> frozenset[Vertex]:
        return frozenset(vertex("r", tid) for tid in tids)

    def test_add_and_remove_keep_adjacency(self):
        graph = ConflictHypergraph()
        assert graph.add_edge(self.edge(1, 2), "c1")
        assert graph.add_edge(self.edge(2, 3), "c2")
        assert not graph.add_edge(self.edge(1, 2), "dup")
        assert len(graph.edges_of(vertex("r", 2))) == 2
        assert graph.label_of(self.edge(2, 3)) == "c2"
        assert graph.remove_edge(self.edge(1, 2))
        assert not graph.remove_edge(self.edge(1, 2))
        assert graph.edges_of(vertex("r", 1)) == []
        assert graph.edges_of(vertex("r", 2)) == [self.edge(2, 3)]
        assert graph.as_dict() == {self.edge(2, 3): "c2"}

    def test_remove_keeps_the_other_edges_in_order(self):
        graph = ConflictHypergraph()
        for tids, label in [((1, 2), "a"), ((3, 4), "b"), ((4, 5), "c")]:
            graph.add_edge(self.edge(*tids), label)
        graph.remove_edge(self.edge(1, 2))  # nothing moves into its place
        assert list(graph.edges) == [self.edge(3, 4), self.edge(4, 5)]
        assert graph.as_dict() == {
            self.edge(3, 4): "b",
            self.edge(4, 5): "c",
        }
        assert graph.label_of(self.edge(4, 5)) == "c"
        assert graph.remove_edge(self.edge(4, 5))
        assert graph.as_dict() == {self.edge(3, 4): "b"}

    def test_subset_and_superset_queries(self):
        graph = ConflictHypergraph()
        graph.add_edge(self.edge(1), "s")
        graph.add_edge(self.edge(2, 3), "p")
        assert graph.subset_edges(self.edge(1, 2, 3)) == [
            self.edge(1)
        ] or set(graph.subset_edges(self.edge(1, 2, 3))) == {
            self.edge(1),
            self.edge(2, 3),
        }
        assert graph.superset_edges(self.edge(2)) == [self.edge(2, 3)]
        assert graph.superset_edges(self.edge(2, 3)) == []


class TestIncrementalDenials:
    def fd_engine(self):
        db = Database()
        db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
        db.execute("INSERT INTO emp VALUES ('ann', 10), ('ann', 20), ('bob', 5)")
        fd = FunctionalDependency("emp", ["name"], ["salary"])
        return db, HippoEngine(db, [fd]), [fd]

    def test_insert_derives_new_edges(self):
        db, engine, constraints = self.fd_engine()
        db.execute("INSERT INTO emp VALUES ('bob', 6), ('bob', 7)")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert engine.detection.edges_added == 3  # (5,6), (5,7), (6,7)
        assert_equivalent(engine, db, constraints)

    def test_delete_retracts_incident_edges(self):
        db, engine, constraints = self.fd_engine()
        db.execute("DELETE FROM emp WHERE salary = 20")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert engine.detection.edges_retracted == 1
        assert len(engine.hypergraph) == 0
        assert_equivalent(engine, db, constraints)

    def test_update_retracts_and_rederives(self):
        db, engine, constraints = self.fd_engine()
        db.execute("UPDATE emp SET name = 'bob' WHERE salary = 20")
        engine.refresh()
        # ann's pair dissolves; ('bob', 20) now conflicts with ('bob', 5).
        assert engine.detection.mode == "incremental"
        assert_equivalent(engine, db, constraints)
        assert len(engine.hypergraph) == 1

    def test_noop_refresh_keeps_report(self):
        db, engine, constraints = self.fd_engine()
        engine.refresh()
        assert engine.detection.mode == "full"
        db.execute("DELETE FROM emp WHERE salary = 999")
        engine.refresh()
        assert engine.detection.mode == "full"  # nothing was pending
        assert_equivalent(engine, db, constraints)

    def test_queries_sync_automatically(self):
        db, engine, _ = self.fd_engine()
        db.execute("DELETE FROM emp WHERE salary = 20")
        answers = engine.consistent_answers("SELECT * FROM emp")
        assert ("ann", 10) in answers.rows  # recovered without refresh()
        assert engine.detection.mode == "incremental"

    def test_nan_key_matches_full_detection(self):
        # NaN equals NaN, so rows keyed NaN agree on the key: the
        # incremental matcher's index must pair them as full detection's
        # join does, whichever NaN object each insert carried.
        db = Database()
        db.execute("CREATE TABLE m (k REAL, v INTEGER)")
        fd = FunctionalDependency("m", ["k"], ["v"])
        engine = HippoEngine(db, [fd])
        table = db.table("m")
        tids = []
        for row in [(float("nan"), 1), (1.0, 2), (float("nan"), 3), (-float("nan"), 4)]:
            tids.append(table.insert(row))
            engine.refresh()
            assert engine.detection.mode == "incremental"
            assert_equivalent(engine, db, [fd])
        assert len(engine.hypergraph) == 3  # the three NaN-keyed rows pairwise
        for tid in tids:
            table.delete(tid)
            engine.refresh()
            assert_equivalent(engine, db, [fd])
        assert len(engine.hypergraph) == 0

    def test_full_refresh_escape_hatch(self):
        db, engine, constraints = self.fd_engine()
        db.execute("INSERT INTO emp VALUES ('bob', 6)")
        engine.refresh(full=True)
        assert engine.detection.mode == "full"
        assert_equivalent(engine, db, constraints)

    def test_overflow_falls_back_to_full(self):
        db = Database(feed=ChangeFeed(max_retained=3))
        db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
        fd = FunctionalDependency("emp", ["name"], ["salary"])
        engine, constraints = HippoEngine(db, [fd]), [fd]
        for salary in range(100, 110):
            db.execute(f"INSERT INTO emp VALUES ('x{salary}', {salary})")
        engine.refresh()
        assert engine.detection.mode == "full"
        assert_equivalent(engine, db, constraints)

    def test_constraint_change_falls_back_to_full(self):
        # An engine's constraints are fixed at construction; a changed
        # list is a new engine (the shell rebuilds its own), which starts
        # from full detection and then maintains the new list.
        db, engine, constraints = self.fd_engine()
        engine.detach()
        constraints = constraints + [
            FunctionalDependency("emp", ["salary"], ["name"])
        ]
        engine = HippoEngine(db, constraints)
        assert engine.constraints == tuple(constraints)
        assert engine.detection.mode == "full"
        db.execute("INSERT INTO emp VALUES ('carol', 5)")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert_equivalent(engine, db, constraints)

    def test_ddl_falls_back_to_full(self):
        db, engine, constraints = self.fd_engine()
        db.execute("CREATE TABLE other (a INTEGER)")
        db.execute("INSERT INTO emp VALUES ('bob', 6)")
        engine.refresh()
        assert engine.detection.mode == "full"
        assert_equivalent(engine, db, constraints)

    def test_exclusion_constraint_incremental(self):
        db = Database()
        db.execute("CREATE TABLE staff (ssn INTEGER)")
        db.execute("CREATE TABLE contractor (ssn INTEGER)")
        db.execute("INSERT INTO staff VALUES (1), (2)")
        db.execute("INSERT INTO contractor VALUES (3)")
        excl = ExclusionConstraint("staff", "contractor", [("ssn", "ssn")])
        engine = HippoEngine(db, [excl])
        assert len(engine.hypergraph) == 0
        db.execute("INSERT INTO contractor VALUES (2)")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert engine.detection.edges_added == 1
        assert_equivalent(engine, db, [excl])

    def test_unlinked_condition_scan_fallback(self):
        # No equality conjunct links the atoms: the matcher must fall
        # back to scanning the second relation.
        db = Database()
        db.execute("CREATE TABLE r (a INTEGER)")
        db.execute("INSERT INTO r VALUES (1), (5)")
        denial = DenialConstraint(
            "lt",
            (ConstraintAtom("t1", "r"), ConstraintAtom("t2", "r")),
            parse_expression("t1.a + 10 < t2.a"),
        )
        engine = HippoEngine(db, [denial])
        db.execute("INSERT INTO r VALUES (20)")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert_equivalent(engine, db, [denial])
        assert len(engine.hypergraph) == 2  # (1,20), (5,20)

    def cross_type_db(self, s_type):
        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute(f"CREATE TABLE s (a {s_type}, b INTEGER)")
        db.execute("INSERT INTO r VALUES (1, 2)")
        denial = DenialConstraint(
            "same-a",
            (ConstraintAtom("t1", "r"), ConstraintAtom("t2", "s")),
            parse_expression("t1.a = t2.a"),
        )
        return db, [denial]

    def cross_type_engine(self, s_type):
        db, constraints = self.cross_type_db(s_type)
        return db, HippoEngine(db, constraints), constraints

    def test_incomparable_link_raises_on_both_paths(self):
        # INTEGER = TEXT is no index key but a comparison of known types:
        # full detection and the incremental matchers both raise it when
        # they plan -- s is still empty -- never a silent empty delta.
        db, constraints = self.cross_type_db("TEXT")
        with pytest.raises(TypeError_, match="cannot compare") as full:
            detect_conflicts(db, constraints)
        with pytest.raises(TypeError_, match="cannot compare"):
            HippoEngine(db, constraints)
        # Past a detection that never plans the denial, the matchers do.
        detector = IncrementalDetector(
            db, constraints, lambda: detect_conflicts(db, [])
        )
        with pytest.raises(TypeError_) as incremental:
            detector.advance()
        assert str(incremental.value) == str(full.value)
        assert detector.report is None

    def test_comparable_cross_type_link_derives_the_same_edge(self):
        db, engine, constraints = self.cross_type_engine("REAL")
        db.execute("INSERT INTO s VALUES (1.0, 2)")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert engine.hypergraph.as_dict() == {
            frozenset({vertex("r", 0), vertex("s", 0)}): "same-a"
        }
        assert_equivalent(engine, db, constraints)


class TestSubsumption:
    def test_singleton_absorbs_pair_and_reports_subsumed(self):
        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO r VALUES (1, 7), (1, 8)")
        fd = FunctionalDependency("r", ["a"], ["b"])
        negative = DenialConstraint(
            "neg", (ConstraintAtom("t", "r"),), parse_expression("t.b < 0")
        )
        engine = HippoEngine(db, [fd, negative])
        assert engine.detection.subsumed == {"fd:r:a->b": 0, "neg": 0}
        # A negative row conflicts with (1, 7) via the FD *and* is a
        # singleton violation on its own: the pair is minimized away.
        db.execute("INSERT INTO r VALUES (1, -1)")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert_equivalent(engine, db, [fd, negative])
        assert engine.detection.subsumed["fd:r:a->b"] == 2
        assert sum(engine.detection.subsumed.values()) == 2

    def test_full_detection_reports_subsumed(self):
        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO r VALUES (1, 7), (1, -1)")
        fd = FunctionalDependency("r", ["a"], ["b"])
        negative = DenialConstraint(
            "neg", (ConstraintAtom("t", "r"),), parse_expression("t.b < 0")
        )
        report = detect_conflicts(db, [fd, negative])
        # The FD pair {(1,7),(1,-1)} is absorbed by the singleton.
        assert report.per_constraint == {"fd:r:a->b": 0, "neg": 1}
        assert report.subsumed == {"fd:r:a->b": 1, "neg": 0}


class TestForeignKeyCascades:
    def chain(self):
        """parent <- child <- grandchild with a unary denial on parent."""
        db = Database()
        db.execute("CREATE TABLE parent (id INTEGER, ok INTEGER)")
        db.execute("CREATE TABLE child (id INTEGER, pid INTEGER)")
        db.execute("CREATE TABLE gc (id INTEGER, cid INTEGER)")
        db.execute("INSERT INTO parent VALUES (1, 1), (2, 1)")
        db.execute("INSERT INTO child VALUES (10, 1), (11, 2)")
        db.execute("INSERT INTO gc VALUES (100, 10), (101, 11)")
        constraints = [
            DenialConstraint(
                "bad-parent",
                (ConstraintAtom("t", "parent"),),
                parse_expression("t.ok = 0"),
            ),
            ForeignKeyConstraint("child", ["pid"], "parent", ["id"]),
            ForeignKeyConstraint("gc", ["cid"], "child", ["id"]),
        ]
        return db, HippoEngine(db, constraints), constraints

    def test_parent_delete_cascades(self):
        db, engine, constraints = self.chain()
        db.execute("DELETE FROM parent WHERE id = 1")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert_equivalent(engine, db, constraints)
        dangling = {next(iter(e)) for e in engine.hypergraph.edges}
        assert dangling == {vertex("child", 0), vertex("gc", 0)}

    def test_parent_insert_cures_chain(self):
        db, engine, constraints = self.chain()
        db.execute("DELETE FROM parent WHERE id = 1")
        engine.refresh()
        db.execute("INSERT INTO parent VALUES (1, 1)")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert len(engine.hypergraph) == 0
        assert_equivalent(engine, db, constraints)

    def test_denial_singleton_feeds_chain(self):
        db, engine, constraints = self.chain()
        # Marking a parent bad deletes it in every repair, so its child
        # (and the grandchild) dangle -- without any FK-relation delta.
        db.execute("UPDATE parent SET ok = 0 WHERE id = 2")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert_equivalent(engine, db, constraints)
        assert len(engine.hypergraph) == 3  # bad parent + child + gc

    def test_resurrection_after_fk_cure(self):
        # An FD pair subsumed by an FK dangling singleton must resurface
        # when the dangling is cured by a parent insertion.
        db = Database()
        db.execute("CREATE TABLE p (id INTEGER)")
        db.execute("CREATE TABLE c (id INTEGER, pid INTEGER, v INTEGER)")
        db.execute("INSERT INTO p VALUES (1)")
        db.execute("INSERT INTO c VALUES (5, 2, 7), (5, 1, 8)")
        constraints = [
            FunctionalDependency("c", ["id"], ["v"]),
            ForeignKeyConstraint("c", ["pid"], "p", ["id"]),
        ]
        engine = HippoEngine(db, constraints)
        assert [len(e) for e in engine.hypergraph.edges] == [1]
        assert engine.detection.subsumed["fd:c:id->v"] == 1
        db.execute("INSERT INTO p VALUES (2)")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert [len(e) for e in engine.hypergraph.edges] == [2]
        assert_equivalent(engine, db, constraints)

    def test_counters_list_constraints_in_derivation_order(self):
        # Declared child-first; the derivation order resolves parents
        # first.  An incremental refresh must list the FKs the way full
        # detection does, or `.conflicts` reorders between refreshes.
        db = Database()
        db.execute("CREATE TABLE a (id INTEGER)")
        db.execute("CREATE TABLE b (id INTEGER, a_id INTEGER)")
        db.execute("CREATE TABLE c (id INTEGER, a_id INTEGER, b_id INTEGER)")
        db.execute("INSERT INTO a VALUES (1)")
        db.execute("INSERT INTO b VALUES (1, 1)")
        db.execute("INSERT INTO c VALUES (1, 1, 1)")
        constraints = [
            ForeignKeyConstraint("c", ["b_id"], "b", ["id"]),
            ForeignKeyConstraint("c", ["a_id"], "a", ["id"]),
            ForeignKeyConstraint("b", ["a_id"], "a", ["id"]),
        ]
        engine = HippoEngine(db, constraints)
        db.execute("DELETE FROM a")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        full = detect_conflicts(db, constraints)
        assert list(engine.detection.per_constraint.items()) == list(
            full.per_constraint.items()
        )
        assert list(engine.detection.subsumed.items()) == list(
            full.subsumed.items()
        )
        assert_equivalent(engine, db, constraints)

    def test_restricted_class_violation_raises(self):
        db, engine, constraints = self.chain()
        engine.detach()
        engine = HippoEngine(
            db, constraints + [FunctionalDependency("parent", ["id"], ["ok"])]
        )
        db.execute("INSERT INTO parent VALUES (1, 0)")
        with pytest.raises(ConstraintError, match="restricted"):
            engine.refresh()

    def test_failed_apply_recovers_with_full_detection(self):
        db, _stale_engine, constraints = self.chain()
        constraints = constraints + [
            FunctionalDependency("parent", ["id"], ["ok"])
        ]
        engine = HippoEngine(db, constraints)
        # Push a referenced relation into a choice conflict: the apply
        # fails mid-batch...
        db.execute("INSERT INTO parent VALUES (1, 0)")
        with pytest.raises(ConstraintError):
            engine.refresh()
        # ...and after the offending row is removed, the engine falls
        # back to full detection and is exact again.
        db.execute("DELETE FROM parent WHERE ok = 0 AND id = 1")
        engine.refresh()
        assert engine.detection.mode == "full"
        assert_equivalent(engine, db, constraints)

    def test_failed_full_detection_keeps_failing_not_stale(self):
        from repro.errors import CatalogError

        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO r VALUES (1, 7), (1, 8)")
        fd = FunctionalDependency("r", ["a"], ["b"])
        engine = HippoEngine(db, [fd])
        db.execute("DROP TABLE r")
        with pytest.raises(CatalogError):
            engine.refresh()
        # The failure must not be swallowed on retry (stale hypergraph
        # silently served) -- every refresh keeps raising until fixed.
        with pytest.raises(CatalogError):
            engine.refresh()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO r VALUES (2, 1)")
        engine.refresh()
        assert engine.detection.mode == "full"
        assert len(engine.hypergraph) == 0

    def test_detached_engine_is_static_but_refreshable(self):
        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO r VALUES (1, 7), (1, 8)")
        fd = FunctionalDependency("r", ["a"], ["b"])
        engine = HippoEngine(db, [fd])
        engine.detach()
        db.execute("DELETE FROM r WHERE b = 8")
        answers = engine.consistent_answers("SELECT * FROM r")
        assert answers.rows == []  # stale on purpose: no auto-sync
        engine.refresh()
        assert engine.detection.mode == "full"
        assert len(engine.hypergraph) == 0

    def test_incremental_restricted_check_matches_full(self):
        db = Database()
        db.execute("CREATE TABLE p (id INTEGER, v INTEGER)")
        db.execute("CREATE TABLE c (id INTEGER, pid INTEGER)")
        db.execute("INSERT INTO p VALUES (1, 5)")
        db.execute("INSERT INTO c VALUES (10, 1)")
        constraints = [
            FunctionalDependency("p", ["id"], ["v"]),
            ForeignKeyConstraint("c", ["pid"], "p", ["id"]),
        ]
        engine = HippoEngine(db, constraints)
        # A second p row with the same key creates a *choice* conflict on
        # a referenced relation: outside the restricted class, and the
        # incremental path must say so exactly like full detection.
        db.execute("INSERT INTO p VALUES (1, 6)")
        with pytest.raises(ConstraintError, match="referenced by a foreign key"):
            engine.refresh()
        with pytest.raises(ConstraintError, match="referenced by a foreign key"):
            detect_conflicts(db, constraints)


class TestDetectorInternals:
    def test_matcher_indexes_are_planned_eagerly_at_attach(self):
        # The first post-bulk-load delta must not absorb an O(N) index
        # build: attaching the engine (whose detector plans matcher
        # indexes from the constraint set) creates them up front.
        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO r VALUES (1, 7), (1, 8)")
        fd = FunctionalDependency("r", ["a"], ["b"])
        table = db.table("r")
        assert (0,) not in table.indexed_column_sets()
        engine = HippoEngine(db, [fd])
        assert (0,) in table.indexed_column_sets()  # planned at attach
        created = table.indexed_column_sets()
        db.execute("INSERT INTO r VALUES (2, 1)")
        engine.refresh()
        # The delta reused the planned index; nothing new was built.
        assert table.indexed_column_sets() == created

    def test_first_delta_builds_no_index(self, monkeypatch):
        from repro.engine.storage import Table

        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO r VALUES (1, 7), (1, 8)")
        engine = HippoEngine(db, [FunctionalDependency("r", ["a"], ["b"])])

        def forbid(self, positions):
            raise AssertionError(
                f"index {tuple(positions)} built lazily on a delta"
            )

        monkeypatch.setattr(Table, "create_index", forbid)
        db.execute("INSERT INTO r VALUES (2, 1)")
        engine.refresh()  # must not need any new index

    def test_planned_matcher_indexes_are_shared_with_the_planner(self):
        # Matcher indexes are ordinary storage hash indexes, so the
        # query planner's index-scan selection picks them up for free.
        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO r VALUES (1, 7), (1, 8), (2, 9)")
        HippoEngine(db, [FunctionalDependency("r", ["a"], ["b"])])
        assert "IndexScan" in db.explain("SELECT * FROM r WHERE a = 1")


class TestMaintainedCounters:
    """Per-constraint counters are maintained, not recounted (and the
    store's label index stays consistent with them)."""

    def build(self):
        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO r VALUES (1, 7), (1, 8)")
        constraints = [
            FunctionalDependency("r", ["a"], ["b"]),
            DenialConstraint(
                "neg", (ConstraintAtom("t", "r"),), parse_expression("t.b < 0")
            ),
        ]
        return db, HippoEngine(db, constraints), constraints

    def assert_counters_exact(self, engine, db, constraints):
        """Maintained counters == a brute-force recount == full detection."""
        store = engine._detector.report.store
        recount_stored = Counter(store.graph.as_dict().values())
        for name, stored in store.stored().items():
            assert stored == recount_stored[name]
            supported = {
                edge for edge, supports in store._support.items() if name in supports
            }
            assert set(store.supported_by(name)) == supported
        full = detect_conflicts(db, constraints)
        assert engine.detection.per_constraint == full.per_constraint
        assert engine.detection.subsumed == full.subsumed

    def test_counts_pinned_through_add_subsume_resurrect(self):
        db, engine, constraints = self.build()
        assert engine.detection.per_constraint == {"fd:r:a->b": 1, "neg": 0}

        # A negative row: singleton absorbs both FD pairs it joins.
        db.execute("INSERT INTO r VALUES (1, -1)")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert engine.detection.per_constraint == {"fd:r:a->b": 1, "neg": 1}
        assert engine.detection.subsumed == {"fd:r:a->b": 2, "neg": 0}
        self.assert_counters_exact(engine, db, constraints)

        # Curing the singleton resurrects the subsumed pairs.
        db.execute("UPDATE r SET b = 9 WHERE b = -1")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert engine.detection.per_constraint == {"fd:r:a->b": 3, "neg": 0}
        assert engine.detection.subsumed == {"fd:r:a->b": 0, "neg": 0}
        self.assert_counters_exact(engine, db, constraints)

        # Deletions retract stored edges and their counter entries.
        db.execute("DELETE FROM r WHERE b = 8")
        db.execute("DELETE FROM r WHERE b = 9")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert engine.detection.per_constraint == {"fd:r:a->b": 0, "neg": 0}
        self.assert_counters_exact(engine, db, constraints)

    def test_counters_exact_under_fk_rederivation(self):
        db = Database()
        db.execute("CREATE TABLE p (id INTEGER)")
        db.execute("CREATE TABLE c (id INTEGER, pid INTEGER, v INTEGER)")
        db.execute("INSERT INTO p VALUES (1)")
        db.execute("INSERT INTO c VALUES (5, 2, 7), (5, 1, 8)")
        constraints = [
            FunctionalDependency("c", ["id"], ["v"]),
            ForeignKeyConstraint("c", ["pid"], "p", ["id"]),
        ]
        engine = HippoEngine(db, constraints)
        db.execute("INSERT INTO p VALUES (2)")  # cure -> resurrection
        engine.refresh()
        assert engine.detection.mode == "incremental"
        self.assert_counters_exact(engine, db, constraints)
        db.execute("DELETE FROM p WHERE id = 1")  # new dangling chain
        engine.refresh()
        assert engine.detection.mode == "incremental"
        self.assert_counters_exact(engine, db, constraints)
