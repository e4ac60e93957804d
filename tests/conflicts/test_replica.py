"""Unit tests for replica hypergraph maintenance over the change feed.

A replica attaches to a (usually durable) feed, rebuilds the primary's
database from it -- tids included -- and keeps a conflict hypergraph
equal to full re-detection at every committed cut, across restarts and
torn segment tails.  The property suite
(``tests/property/test_replica_equivalence.py``) drives randomized
sequences; here we pin the mechanics one scenario at a time.
"""

from __future__ import annotations

import pytest

import repro.conflicts.replica as replica_module
from repro.conflicts import ReplicaHypergraph, ShardCoordinator, detect_conflicts
from repro.constraints import FunctionalDependency
from repro.constraints.foreign_key import ForeignKeyConstraint
from repro.engine.database import Database
from repro.engine.feed import ChangeFeed
from repro.errors import FeedError


def fd_primary(feed: ChangeFeed) -> tuple[Database, FunctionalDependency]:
    db = Database(feed=feed)
    db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
    db.execute("INSERT INTO emp VALUES ('ann', 10), ('ann', 20), ('bob', 5)")
    return db, FunctionalDependency("emp", ["name"], ["salary"])


def fail_replay_once(monkeypatch) -> None:
    """Make the replica's next record replay raise, once."""
    replay = replica_module.replay_feed_records

    def fail(*args):
        monkeypatch.setattr(replica_module, "replay_feed_records", replay)
        raise RuntimeError("replay failed")

    monkeypatch.setattr(replica_module, "replay_feed_records", fail)


def assert_converged(replica: ReplicaHypergraph, primary: Database, constraints):
    """Replica db == primary db, and the graph == full re-detection."""
    for name in primary.catalog.table_names():
        assert dict(replica.db.table(name).items()) == dict(
            primary.table(name).items()
        )
    full = detect_conflicts(primary, constraints)
    assert replica.graph.as_dict() == full.hypergraph.as_dict()


class TestReplicaFollowsPrimary:
    def test_bootstrap_then_incremental(self):
        feed = ChangeFeed()
        replica = ReplicaHypergraph(
            feed, [FunctionalDependency("emp", ["name"], ["salary"])],
            group="replica",
        )
        db, fd = fd_primary(feed)
        sync = replica.sync()
        assert sync.mode == "full"  # the bootstrap batch carries DDL
        assert_converged(replica, db, [fd])

        db.execute("INSERT INTO emp VALUES ('bob', 6)")
        sync = replica.sync()
        assert sync.mode == "incremental"
        assert sync.delta is not None and sync.delta.edges_added == 1
        assert_converged(replica, db, [fd])

    def test_intermediate_cuts_are_exact(self):
        feed = ChangeFeed()
        replica = ReplicaHypergraph(
            feed, [FunctionalDependency("emp", ["name"], ["salary"])],
            group="replica",
        )
        db, fd = fd_primary(feed)
        replica.sync()  # DDL -> full detection with the fd in place
        for salary in (6, 7, 8):
            db.execute(f"INSERT INTO emp VALUES ('bob', {salary})")
        db.execute("DELETE FROM emp WHERE name = 'ann'")
        # Consume one record at a time: every commit point must equal
        # full re-detection over the replica's own database.
        while replica.lag:
            replica.sync(limit=1)
            full = detect_conflicts(replica.db, [fd])
            assert replica.graph.as_dict() == full.hypergraph.as_dict()
        assert_converged(replica, db, [fd])

    def test_fk_cascades_replicate(self):
        feed = ChangeFeed()
        constraints = [ForeignKeyConstraint("c", ["pid"], "p", ["id"])]
        replica = ReplicaHypergraph(feed, constraints, group="replica")
        db = Database(feed=feed)
        db.execute("CREATE TABLE p (id INTEGER)")
        db.execute("CREATE TABLE c (id INTEGER, pid INTEGER)")
        db.execute("INSERT INTO p VALUES (1)")
        db.execute("INSERT INTO c VALUES (10, 1), (11, 2)")
        replica.sync()
        assert_converged(replica, db, constraints)
        db.execute("INSERT INTO p VALUES (2)")  # cures the dangling
        sync = replica.sync()
        assert sync.mode == "incremental"
        assert len(replica.graph) == 0
        assert_converged(replica, db, constraints)

    def test_overflow_is_unrecoverable(self):
        feed = ChangeFeed(max_retained=2)
        replica = ReplicaHypergraph(
            feed, [FunctionalDependency("emp", ["name"], ["salary"])],
            group="replica",
        )
        db, fd = fd_primary(feed)
        with pytest.raises(FeedError, match="cannot converge"):
            replica.sync()


class TestReplicaRestart:
    def test_reattach_resumes_from_committed_cut(self, tmp_path):
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory)
        db, fd = fd_primary(feed)
        replica = ReplicaHypergraph(feed, [fd], group="replica")
        replica.sync()
        db.execute("INSERT INTO emp VALUES ('bob', 6)")
        db.execute("INSERT INTO emp VALUES ('carol', 1)")
        replica.sync(limit=1)  # commit a cut strictly inside the stream
        committed = dict(replica._consumer.committed)
        feed.close()

        # "Restart": a fresh feed instance on the same directory and a
        # fresh replica under the same group.
        reopened = ChangeFeed(directory)
        resumed = ReplicaHypergraph(reopened, [fd], group="replica")
        assert resumed._consumer.committed == committed
        # Before syncing, the graph equals full detection at the cut...
        cut = detect_conflicts(resumed.db, [fd])
        assert resumed.graph.as_dict() == cut.hypergraph.as_dict()
        assert resumed.lag == 1
        # ...and after syncing it converges to the primary's state.
        resumed.sync()
        assert_converged(resumed, db, [fd])

    def test_replay_converges_after_torn_tail(self, tmp_path):
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory)
        db, fd = fd_primary(feed)
        db.execute("INSERT INTO emp VALUES ('bob', 6)")
        feed.flush()
        segment = directory / "topics" / "emp" / "000000000000.jsonl"
        data = segment.read_bytes()
        torn = data[: -(len(data.splitlines(True)[-1]) // 2)]
        segment.write_bytes(torn)  # crash mid-append: half a record

        reopened = ChangeFeed(directory)
        replica = ReplicaHypergraph(reopened, [fd], group="replica")
        replica.sync()
        # The torn insert never became durable: the replica converges on
        # the longest durable prefix (one fewer row than the primary).
        assert len(list(replica.db.table("emp").rows())) == 3
        full = detect_conflicts(replica.db, [fd])
        assert replica.graph.as_dict() == full.hypergraph.as_dict()

    def test_ddl_after_attach_forces_full_detection(self):
        feed = ChangeFeed()
        replica = ReplicaHypergraph(
            feed, [FunctionalDependency("emp", ["name"], ["salary"])],
            group="replica",
        )
        db, fd = fd_primary(feed)
        sync = replica.sync()
        assert sync.mode == "full"
        db.execute("CREATE TABLE other (a INTEGER)")
        db.execute("INSERT INTO emp VALUES ('bob', 6)")
        sync = replica.sync()
        assert sync.mode == "full"  # DDL in the batch
        assert_converged(replica, db, [fd])


class TestLiveTailing:
    def test_reader_instance_follows_the_writer_live(self, tmp_path):
        # The replica attaches through a *second* feed instance -- the
        # cross-process shape -- and before the writer appends anything.
        directory = tmp_path / "feed"
        writer = ChangeFeed(directory)
        reader = ChangeFeed(directory)
        fd = FunctionalDependency("emp", ["name"], ["salary"])
        replica = ReplicaHypergraph(reader, [fd], group="replica")
        assert not replica.ready  # nothing has been written yet

        db = Database(feed=writer)
        db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
        db.execute("INSERT INTO emp VALUES ('ann', 10), ('ann', 20)")
        writer.flush()
        assert replica.sync().mode == "full"
        assert_converged(replica, db, [fd])

        db.execute("INSERT INTO emp VALUES ('bob', 5)")
        db.execute("UPDATE emp SET salary = 30 WHERE salary = 20")
        writer.flush()
        sync = replica.sync()
        assert sync.mode == "incremental"
        assert_converged(replica, db, [fd])
        writer.close()
        reader.close()

    def test_follow_drains_then_stops_when_idle(self, tmp_path):
        directory = tmp_path / "feed"
        writer = ChangeFeed(directory)
        db, fd = fd_primary(writer)
        writer.flush()
        reader = ChangeFeed(directory)
        replica = ReplicaHypergraph(reader, [fd], group="replica")
        seen = []
        summary = replica.follow(
            poll_interval=0.01, idle_limit=2, on_sync=seen.append
        )
        assert summary.records == 4  # schema + 3 rows
        assert summary.syncs == len(seen) == 1
        assert replica.lag == 0
        assert_converged(replica, db, [fd])
        writer.close()
        reader.close()


class TestRetentionRecovery:
    def primary(self, feed):
        db = Database(feed=feed)
        db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
        db.execute("INSERT INTO emp VALUES ('ann', 10), ('ann', 20), ('bob', 5)")
        db.execute("INSERT INTO emp VALUES ('carol', 7), ('dan', 8)")
        db.execute("UPDATE emp SET salary = 9 WHERE name = 'dan'")
        return db, FunctionalDependency("emp", ["name"], ["salary"])

    def test_reattach_from_snapshot_after_truncation(self, tmp_path):
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory, segment_records=2, retention="compact")
        db, fd = self.primary(feed)
        replica = ReplicaHypergraph(feed, [fd], group="replica")
        replica.sync()
        replica.close()  # checkpoint at the committed cut
        # The close-time checkpoint is the group's recovery point; with
        # the *writer* checkpointed too (its registration would
        # otherwise pin the whole history), retention can reclaim every
        # sealed segment below both recovery points.
        db.checkpoint()
        feed.compact()
        (emp,) = [t for t in feed.topics() if t.name == "emp"]
        assert emp.start > 0  # sealed prefix actually reclaimed
        with pytest.raises(FeedError, match="no longer retained"):
            list(feed.iter_records(upto=feed.end_offsets()))
        feed.close()

        # Re-attach: replay is impossible, the snapshot takes over.
        reopened = ChangeFeed(directory, segment_records=2)
        resumed = ReplicaHypergraph(reopened, [fd], group="replica")
        assert_converged(resumed, db, [fd])
        reopened.close()

    def test_snapshot_plus_gap_replay(self, tmp_path):
        # Snapshot taken strictly *before* the committed cut: bootstrap
        # restores it and replays the still-retained gap on top.
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory, segment_records=2, retention="compact")
        db, fd = self.primary(feed)
        replica = ReplicaHypergraph(feed, [fd], group="replica")
        replica.sync(limit=4)
        replica.checkpoint()  # recovery point at an intermediate cut
        replica.sync()  # commit the rest (no further checkpoint)
        snapshot_cut = dict(replica._consumer.load_snapshot()[0])
        committed = dict(replica._consumer.committed)
        assert snapshot_cut != committed
        replica._consumer.close()  # detach *without* a fresh checkpoint
        db.checkpoint()  # release the writer's pin (and reclaim)
        feed.compact()
        (emp,) = [t for t in feed.topics() if t.name == "emp"]
        assert 0 < emp.start  # the replica's snapshot cut, not its
        assert emp.start <= snapshot_cut["emp"]  # committed cut, bounds
        feed.close()  # what was reclaimed

        reopened = ChangeFeed(directory, segment_records=2)
        resumed = ReplicaHypergraph(reopened, [fd], group="replica")
        assert resumed._consumer.committed == committed
        assert_converged(resumed, db, [fd])
        reopened.close()

    def test_truncation_racing_bootstrap_falls_back_to_the_snapshot(
        self, tmp_path
    ):
        # iter_records validates against the manifest eagerly, but reads
        # segment files lazily: a segment deleted *after* validation
        # surfaces as a FeedError mid-replay, which must still land in
        # the snapshot fallback (with the half-applied replay discarded).
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory, segment_records=2)
        db, fd = self.primary(feed)
        replica = ReplicaHypergraph(feed, [fd], group="replica")
        replica.sync()
        replica.close()  # snapshot at the committed cut
        feed.close()

        # Simulate the race: a sealed segment vanishes without the
        # manifest (validation's source of truth) knowing yet.
        victims = sorted((directory / "topics" / "emp").glob("*.jsonl"))
        victims[1].unlink()

        reopened = ChangeFeed(directory, segment_records=2)
        resumed = ReplicaHypergraph(reopened, [fd], group="replica")
        assert_converged(resumed, db, [fd])
        reopened.close()

    def test_reattach_without_snapshot_fails_loudly(self, tmp_path):
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory, segment_records=2, retention="compact")
        db, fd = self.primary(feed)
        replica = ReplicaHypergraph(feed, [fd], group="replica", snapshots=False)
        replica.sync()
        replica.close()  # no snapshot written
        db.checkpoint()  # the writer can recover -- the replica cannot
        feed.compact()
        feed.close()

        reopened = ChangeFeed(directory, segment_records=2)
        with pytest.raises(FeedError, match="no longer retained"):
            ReplicaHypergraph(reopened, [fd], group="replica", snapshots=False)
        reopened.close()

    def test_periodic_checkpoints_bound_recovery(self, tmp_path):
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory, segment_records=2, retention="compact")
        db, fd = self.primary(feed)
        replica = ReplicaHypergraph(feed, [fd], group="replica")
        db.checkpoint()  # release the writer's pin so retention can act
        while replica.lag:
            replica.sync(limit=3)
            replica.checkpoint()  # the caller's cadence: every 3 records
        assert replica._consumer.load_snapshot() is not None
        replica._consumer.close()  # crash-style detach: rely on the
        feed.close()  # periodic checkpoints alone

        reopened = ChangeFeed(directory, segment_records=2)
        resumed = ReplicaHypergraph(reopened, [fd], group="replica")
        assert_converged(resumed, db, [fd])
        reopened.close()


class TestFreshGroupSeeding:
    def test_fresh_group_seeds_from_the_writer_checkpoint(self, tmp_path):
        # A group born *after* retention reclaimed the prefix can never
        # replay offset 0 -- but the writer's checkpoint carries the
        # state at its cut, so a fresh replica seeds from it and
        # consumes only the retained records.
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory, segment_records=2, retention="compact")
        db = Database(feed=feed)
        db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
        db.execute("INSERT INTO emp VALUES ('ann', 10), ('bob', 5)")
        db.checkpoint()
        db.execute("INSERT INTO emp VALUES ('ann', 20)")  # retained suffix
        drain = feed.consumer("drain", start="beginning")
        drain.poll()
        drain.commit()  # reclaims the sealed prefix behind the checkpoint
        (emp,) = [t for t in feed.topics() if t.name == "emp"]
        assert emp.start > 0
        feed.flush()

        fd = FunctionalDependency("emp", ["name"], ["salary"])
        reader = ChangeFeed(directory, segment_records=2)
        fresh = ReplicaHypergraph(reader, [fd], group="fresh")
        while fresh.lag:
            fresh.sync()
        assert_converged(fresh, db, [fd])
        fresh._consumer.close()
        reader.close()
        feed.close()

    def test_stale_reader_instance_still_seeds(self, tmp_path):
        # The reader feed opened *before* the reclaim: its in-memory
        # bases are stale zeros, so seeding must judge replayability
        # from the live directory, not from memory.
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory, segment_records=2, retention="compact")
        db = Database(feed=feed)
        db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
        db.execute("INSERT INTO emp VALUES ('ann', 10), ('bob', 5)")
        db.checkpoint()
        db.execute("INSERT INTO emp VALUES ('ann', 20)")
        feed.flush()
        reader = ChangeFeed(directory, segment_records=2)  # pre-reclaim view
        drain = feed.consumer("drain", start="beginning")
        drain.poll()
        drain.commit()  # the foreign (writer-side) reclaim happens now
        feed.flush()

        fd = FunctionalDependency("emp", ["name"], ["salary"])
        fresh = ReplicaHypergraph(reader, [fd], group="fresh")
        while fresh.lag:
            fresh.sync()
        assert_converged(fresh, db, [fd])
        fresh._consumer.close()
        reader.close()
        feed.close()

    def test_fresh_group_without_checkpoint_still_reports_loss(self, tmp_path):
        # No writer checkpoint to seed from: the fresh group must keep
        # failing loudly rather than silently starting empty.
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory, segment_records=2, retention="compact")
        db = Database(feed=feed)
        db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
        db.execute("INSERT INTO emp VALUES ('ann', 10), ('bob', 5)")
        db.execute("INSERT INTO emp VALUES ('carol', 7), ('dan', 8)")
        drain = feed.consumer("drain", start="beginning")
        drain.poll()
        drain.commit()
        from repro.engine.database import WRITER_GROUP

        feed.drop_group(WRITER_GROUP)  # abandons the writer *and* reclaims
        (emp,) = [t for t in feed.topics() if t.name == "emp"]
        assert emp.start > 0
        feed.flush()

        fd = FunctionalDependency("emp", ["name"], ["salary"])
        reader = ChangeFeed(directory, segment_records=2)
        fresh = ReplicaHypergraph(reader, [fd], group="fresh")
        with pytest.raises(FeedError, match="dropped"):
            fresh.sync()
        reader.close()
        feed.close()


class TestMixedCaseNames:
    def test_snapshot_restore_bridges_topic_and_catalog_case(self, tmp_path):
        # Feed topics are lower-cased relation names; the snapshot keeps
        # the declared mixed case.  A snapshot restore followed by a
        # gap replay must resolve one onto the other.
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory, segment_records=2, retention="compact")
        db = Database(feed=feed)
        db.execute("CREATE TABLE Emp (Name TEXT, Salary INTEGER)")
        db.execute("INSERT INTO Emp VALUES ('ann', 10), ('ann', 20)")
        fd = FunctionalDependency("Emp", ["Name"], ["Salary"])
        replica = ReplicaHypergraph(feed, [fd], group="replica")
        replica.sync()
        replica.checkpoint()  # snapshot carries the mixed-case schema
        db.execute("INSERT INTO Emp VALUES ('bob', 5), ('ann', 30)")
        replica.sync()
        replica._consumer.close()  # keep the *older* snapshot cut
        db.checkpoint()
        feed.compact()
        feed.close()

        reopened = ChangeFeed(directory, segment_records=2)
        resumed = ReplicaHypergraph(reopened, [fd], group="replica")
        assert resumed.db.catalog.table_names() == ["Emp"]
        assert_converged(resumed, db, [fd])
        reopened.close()


class TestReplicaFailureModes:
    def test_replica_takes_no_checkpoint_records_argument(self):
        # Replicas checkpoint on close() and on request only.
        feed = ChangeFeed()
        fd = FunctionalDependency("emp", ["name"], ["salary"])
        with pytest.raises(TypeError):
            ReplicaHypergraph(  # type: ignore[call-arg]
                feed, [fd], group="replica", checkpoint_records=3
            )
        assert feed.groups() == {}  # nothing attached

    def test_follow_takes_no_limit_argument(self):
        feed = ChangeFeed()
        fd = FunctionalDependency("emp", ["name"], ["salary"])
        replica = ReplicaHypergraph(feed, [fd], group="replica")
        with pytest.raises(TypeError):
            replica.follow(idle_limit=1, limit=1)  # type: ignore[call-arg]

    def test_late_attach_to_lossy_inmemory_feed_is_rejected(self):
        # Records published before any consumer group exist are dropped
        # (zero-cost idle feed): a replica attaching afterwards could
        # never rebuild them, so the constructor must refuse.
        feed = ChangeFeed()
        db, fd = fd_primary(feed)  # no groups yet: history is dropped
        with pytest.raises(FeedError, match="dropped"):
            ReplicaHypergraph(feed, [fd], group="late")

    def test_deferred_replica_tolerates_empty_polls(self):
        feed = ChangeFeed()
        replica = ReplicaHypergraph(
            feed, [FunctionalDependency("emp", ["name"], ["salary"])],
            group="replica",
        )
        assert not replica.ready  # table not replicated yet
        sync = replica.sync()  # nothing pending: must not raise
        assert sync.mode == "deferred"
        db, fd = fd_primary(feed)
        assert replica.sync().mode == "full"
        assert_converged(replica, db, [fd])

    def test_failed_full_detection_does_not_strand_a_stale_graph(self):
        from repro.errors import ConstraintError

        feed = ChangeFeed()
        constraints = [
            FunctionalDependency("p", ["id"], ["v"]),
            ForeignKeyConstraint("c", ["pid"], "p", ["id"]),
        ]
        replica = ReplicaHypergraph(feed, constraints, group="replica")
        db = Database(feed=feed)
        db.execute("CREATE TABLE p (id INTEGER, v INTEGER)")
        db.execute("CREATE TABLE c (id INTEGER, pid INTEGER)")
        db.execute("INSERT INTO p VALUES (1, 5)")
        db.execute("INSERT INTO c VALUES (10, 1)")
        replica.sync()
        assert replica.ready
        # A key conflict on a referenced relation, arriving in the same
        # batch as DDL: full detection raises (outside the restricted
        # class) and the pre-DDL detector must NOT stay attached.
        db.execute("CREATE TABLE other (a INTEGER)")
        db.execute("INSERT INTO p VALUES (1, 6)")
        with pytest.raises(ConstraintError):
            replica.sync()
        assert not replica.ready  # no stale graph taking deltas
        # Curing the conflict lets the next sync recover via full
        # detection (the offsets were committed before the failure).
        db.execute("DELETE FROM p WHERE v = 6")
        sync = replica.sync()
        assert sync.mode == "full"
        assert_converged(replica, db, constraints)

    def test_failed_delta_batch_leaves_the_replica_not_ready(self):
        from repro.errors import ConstraintError

        feed = ChangeFeed()
        constraints = [
            FunctionalDependency("p", ["id"], ["v"]),
            ForeignKeyConstraint("c", ["pid"], "p", ["id"]),
        ]
        replica = ReplicaHypergraph(feed, constraints, group="replica")
        db = Database(feed=feed)
        db.execute("CREATE TABLE p (id INTEGER, v INTEGER)")
        db.execute("CREATE TABLE c (id INTEGER, pid INTEGER)")
        db.execute("INSERT INTO p VALUES (1, 5)")
        db.execute("INSERT INTO c VALUES (10, 1), (11, 2)")
        replica.sync()
        assert len(replica.graph) == 1  # the dangling child's FK edge
        # One delta batch: the dangling child goes, and a second p row
        # with id 1 makes a choice conflict on the referenced relation.
        db.execute("DELETE FROM c WHERE pid = 2")
        db.execute("INSERT INTO p VALUES (1, 6)")
        with pytest.raises(ConstraintError):
            replica.sync()
        # The half-applied graph must not be served as current.
        assert not replica.ready
        db.execute("DELETE FROM p WHERE v = 6")
        sync = replica.sync()
        assert sync.mode == "full"
        assert_converged(replica, db, constraints)


class TestFailedReplay:
    """A sync whose replay raised is loud: the replica is not ready, the
    batch stays uncommitted, and the next sync delivers it again."""

    def test_replica_converges_after_a_failed_replay(self, monkeypatch):
        feed = ChangeFeed()
        fd = FunctionalDependency("emp", ["name"], ["salary"])
        replica = ReplicaHypergraph(feed, [fd], group="replica")
        db = Database(feed=feed)
        db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
        db.execute("INSERT INTO emp VALUES ('ann', 10), ('bob', 5)")
        replica.sync()
        db.execute("INSERT INTO emp VALUES ('ann', 20)")
        assert replica.lag == 1
        fail_replay_once(monkeypatch)
        with pytest.raises(RuntimeError, match="replay failed"):
            replica.sync()
        assert not replica.ready
        assert replica.lag == 1  # unchanged: the batch stays uncommitted
        sync = replica.sync()
        assert (sync.records, sync.mode, sync.lag) == (1, "full", 0)
        assert replica.lag == 0
        assert_converged(replica, db, [fd])
        assert len(replica.graph) == 1

    def test_shard_worker_converges_after_a_failed_replay(
        self, tmp_path, monkeypatch
    ):
        feed = ChangeFeed(tmp_path / "feed")
        db = Database(feed=feed)
        db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
        db.execute("CREATE TABLE dept (name TEXT)")
        db.execute("INSERT INTO emp VALUES ('ann', 10), ('bob', 5)")
        feed.flush()
        fd = FunctionalDependency("emp", ["name"], ["salary"])
        coordinator = ShardCoordinator(
            feed, [fd], workers=2, assignment={"emp": 0, "dept": 1}
        )
        coordinator.drain()
        worker = coordinator.workers[0]
        db.execute("INSERT INTO emp VALUES ('ann', 20)")
        feed.flush()
        assert worker.lag == 1
        fail_replay_once(monkeypatch)
        with pytest.raises(RuntimeError, match="replay failed"):
            coordinator.sync()
        assert not worker.ready
        assert worker.lag == 1  # unchanged: the batch stays uncommitted
        coordinator.sync()
        assert worker.ready and worker.lag == 0 and coordinator.lag == 0
        assert dict(worker.db.table("emp").items()) == dict(
            db.table("emp").items()
        )
        full = detect_conflicts(db, [fd]).hypergraph.as_dict()
        assert worker.graph.as_dict() == coordinator.graph.as_dict() == full
        assert len(full) == 1
        coordinator.close()
        feed.close()
