"""Property suite: replica hypergraph == full re-detection at every cut.

A :class:`~repro.conflicts.replica.ReplicaHypergraph` replaying a
randomized DML sequence from the durable feed must equal full
re-detection at **every commit point** -- after each bounded ``sync``,
after fully catching up with the primary, after a simulated process
restart (a fresh feed instance on the same directory, re-attached from
the group's committed offsets), for a *reader* feed instance that
attached before the writer appended anything (live tailing), and across
retention reclaim + snapshot recovery.  Streams also carry batches that
push the FK-referenced relation into a choice conflict: a sync may then
raise, and a replica that still calls itself ``ready`` must hold exactly
what full detection computes.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.conflicts import ReplicaHypergraph, detect_conflicts
from repro.constraints import (
    ConstraintAtom,
    DenialConstraint,
    FunctionalDependency,
)
from repro.constraints.foreign_key import ForeignKeyConstraint
from repro.engine.database import Database
from repro.engine.feed import ChangeFeed
from repro.errors import ConstraintError
from repro.sql.parser import parse_expression

# One randomized mutation step over two FK-linked tables.
ops = st.lists(
    st.tuples(
        st.sampled_from(
            [
                ("insert", "p"),
                ("clash", "p"),
                ("delete", "p"),
                ("insert", "c"),
                ("delete", "c"),
                ("update", "c"),
            ]
        ),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=4),
    ),
    min_size=1,
    max_size=25,
)
# Records consumed per sync (randomized commit points).
strides = st.integers(min_value=1, max_value=4)
# Where in the sequence to simulate the replica process restart.
restarts = st.integers(min_value=0, max_value=20)


def constraint_set():
    return [
        FunctionalDependency("c", ["id"], ["v"]),
        DenialConstraint(
            "neg", (ConstraintAtom("t", "c"),), parse_expression("t.v < 1")
        ),
        ForeignKeyConstraint("c", ["pid"], "p", ["id"]),
    ]


def run_step(db: Database, step) -> None:
    (kind, table), key, value = step
    if kind == "insert" and table == "p":
        db.execute(f"INSERT INTO p VALUES ({key}, 0)")
    elif kind == "clash":  # a p row disagreeing with any (key, 0) on w
        db.execute(f"INSERT INTO p VALUES ({key}, {value + 1})")
    elif kind == "insert":
        db.execute(f"INSERT INTO c VALUES ({key}, {value}, {value})")
    elif kind == "update":
        db.execute(f"UPDATE c SET v = {value} WHERE id = {key}")
    else:
        db.execute(f"DELETE FROM {table} WHERE id = {key}")


def assert_exact_at_cut(replica: ReplicaHypergraph) -> None:
    """The invariant: graph == full re-detection over the replica db."""
    if not replica.ready:  # cut fell before the schema fully replicated
        return
    full = detect_conflicts(replica.db, replica.constraints)
    assert replica.graph.as_dict() == full.hypergraph.as_dict()


@settings(max_examples=20, deadline=None)
@given(sequence=ops, stride=strides, restart_after=restarts)
def test_replica_equals_full_detection_at_every_cut(
    tmp_path_factory, sequence, stride, restart_after
):
    directory = tmp_path_factory.mktemp("feed") / "segments"
    constraints = constraint_set()
    feed = ChangeFeed(directory, segment_records=8)
    db = Database(feed=feed)
    db.execute("CREATE TABLE p (id INTEGER, w INTEGER)")
    db.execute("CREATE TABLE c (id INTEGER, pid INTEGER, v INTEGER)")
    db.execute("INSERT INTO p VALUES (0, 0), (1, 0)")
    db.execute("INSERT INTO c VALUES (0, 0, 2), (1, 5, 2), (2, 1, 0)")
    for step in sequence:
        run_step(db, step)
    feed.flush()

    replica = ReplicaHypergraph(feed, constraints, group="replica")
    synced = 0
    while replica.lag:
        replica.sync(limit=stride)
        synced += 1
        assert_exact_at_cut(replica)
        if synced == restart_after:
            # Simulated process restart: fresh feed handle on the same
            # directory, fresh replica re-attached from the committed
            # cut.  It must come back *exactly* where it left off.
            before = replica.graph.as_dict() if replica.ready else None
            replica.close()
            feed.close()
            feed = ChangeFeed(directory, segment_records=8)
            replica = ReplicaHypergraph(feed, constraints, group="replica")
            if before is not None:
                assert replica.graph.as_dict() == before
            assert_exact_at_cut(replica)

    # Fully caught up: the replica must mirror the primary exactly.
    for name in db.catalog.table_names():
        assert dict(replica.db.table(name).items()) == dict(
            db.table(name).items()
        )
    primary_full = detect_conflicts(db, constraints)
    assert replica.graph.as_dict() == primary_full.hypergraph.as_dict()
    feed.close()


@settings(max_examples=12, deadline=None)
@given(sequence=ops, stride=strides, checkpoint_after=restarts)
def test_live_reader_with_truncation_equals_full_detection(
    tmp_path_factory, sequence, stride, checkpoint_after
):
    """The cross-process shape: a reader feed instance attached *before*
    the writer appends tails it live, stays exact at every cut, survives
    retention reclaim (its checkpoints are the recovery points), and
    re-attaches exactly after a restart."""
    directory = tmp_path_factory.mktemp("feed") / "segments"
    constraints = constraint_set()
    writer = ChangeFeed(directory, segment_records=4)
    # The *reader* instance runs the compaction: its commits
    # are the only ones that move the retention floor here.
    reader = ChangeFeed(directory, segment_records=4, retention="compact")
    replica = ReplicaHypergraph(reader, constraints, group="replica")
    assert not replica.ready  # attached before any append

    db = Database(feed=writer)
    db.execute("CREATE TABLE p (id INTEGER, w INTEGER)")
    db.execute("CREATE TABLE c (id INTEGER, pid INTEGER, v INTEGER)")
    db.execute("INSERT INTO p VALUES (0, 0), (1, 0)")
    db.execute("INSERT INTO c VALUES (0, 0, 2), (1, 5, 2), (2, 1, 0)")
    synced = 0
    for step in sequence:
        run_step(db, step)
        writer.flush()
        while replica.lag:  # live tailing: the reader re-scans on poll
            replica.sync(limit=stride)
            synced += 1
            assert_exact_at_cut(replica)
            if synced == checkpoint_after:
                # Checkpoint both recovery participants: the replica's
                # snapshot *and* the writer's (whose registration would
                # otherwise pin the whole history) let later commits
                # reclaim the prefix.
                replica.checkpoint()
                db.checkpoint()

    # Fully caught up: the replica mirrors the primary exactly.
    for name in db.catalog.table_names():
        assert dict(replica.db.table(name).items()) == dict(
            db.table(name).items()
        )
    primary_full = detect_conflicts(db, constraints)
    assert replica.graph.as_dict() == primary_full.hypergraph.as_dict()

    # Restart after (possible) reclaim: the snapshot written on
    # close is the recovery point; the re-attached replica must come
    # back exactly where it left off.
    before = replica.graph.as_dict()
    replica.close()
    reader.close()
    writer.close()
    reopened = ChangeFeed(directory, segment_records=4, retention="compact")
    resumed = ReplicaHypergraph(reopened, constraints, group="replica")
    assert resumed.graph.as_dict() == before
    reopened.close()


@settings(max_examples=10, deadline=None)
@given(
    sequence=ops,
    checkpoint_every=st.integers(min_value=1, max_value=8),
)
def test_writer_reopen_after_retention_equals_untruncated_replay(
    tmp_path_factory, sequence, checkpoint_every
):
    """The writer-side recovery shape: a durable database whose own
    retention policy reclaims sealed segments behind its checkpoints
    must, at every reopen, equal a full replay of a never-truncated
    twin feed -- tables, tids, and conflict hypergraph alike."""
    base = tmp_path_factory.mktemp("writer")
    constraints = constraint_set()

    def seed(database: Database) -> None:
        database.execute("CREATE TABLE p (id INTEGER, w INTEGER)")
        database.execute("CREATE TABLE c (id INTEGER, pid INTEGER, v INTEGER)")
        database.execute("INSERT INTO p VALUES (0, 0), (1, 0)")
        database.execute("INSERT INTO c VALUES (0, 0, 2), (1, 5, 2), (2, 1, 0)")

    feed = ChangeFeed(base / "reclaimed", segment_records=2, retention="compact")
    db = Database(feed=feed)
    shadow_feed = ChangeFeed(base / "keep", segment_records=2)  # never reclaims
    shadow = Database(feed=shadow_feed)
    seed(db)
    seed(shadow)

    steps = 0
    for step in sequence:
        run_step(db, step)
        run_step(shadow, step)
        steps += 1
        if steps % checkpoint_every:
            continue
        db.checkpoint()  # lets retention reclaim below this cut...
        feed.close()  # ...then simulate a crash + reopen
        feed = ChangeFeed(
            base / "reclaimed", segment_records=2, retention="compact"
        )
        db = Database(feed=feed)
        assert db.restore_mode == "snapshot"
        # The never-truncated twin replays its full history.
        shadow_feed.flush()
        replay_feed = ChangeFeed(base / "keep", segment_records=2)
        replayed = Database(feed=replay_feed)
        assert replayed.restore_mode == "replay"
        assert db.catalog.table_names() == replayed.catalog.table_names()
        for name in replayed.catalog.table_names():
            assert dict(db.table(name).items()) == dict(
                replayed.table(name).items()
            )
        assert (
            detect_conflicts(db, constraints).hypergraph.as_dict()
            == detect_conflicts(replayed, constraints).hypergraph.as_dict()
        )
        replay_feed.close()

    # Fully played out: the reclaimed-feed database equals the shadow.
    for name in shadow.catalog.table_names():
        assert dict(db.table(name).items()) == dict(shadow.table(name).items())
    feed.close()
    shadow_feed.close()


@settings(max_examples=20, deadline=None)
@given(sequence=ops, stride=strides)
@example(sequence=[(("clash", "p"), 1, 0), (("delete", "p"), 1, 0)], stride=1)
def test_ready_replica_is_exact_across_failed_syncs(sequence, stride):
    """With an FD on the referenced relation ``p``, a clash makes the
    state leave the restricted FK class and the sync carrying it raise.
    After every sync, raising or not, ``ready`` must imply that full
    detection over the replica database succeeds and equals the graph --
    a half-applied batch is never served."""
    constraints = constraint_set() + [FunctionalDependency("p", ["id"], ["w"])]
    feed = ChangeFeed()
    replica = ReplicaHypergraph(feed, constraints, group="replica")
    db = Database(feed=feed)
    db.execute("CREATE TABLE p (id INTEGER, w INTEGER)")
    db.execute("CREATE TABLE c (id INTEGER, pid INTEGER, v INTEGER)")
    db.execute("INSERT INTO p VALUES (0, 0), (1, 0)")
    db.execute("INSERT INTO c VALUES (0, 0, 2), (1, 5, 2), (2, 1, 0)")
    for step in sequence:
        run_step(db, step)
        while replica.lag:
            try:
                replica.sync(limit=stride)
            except ConstraintError:
                pass  # the cut was committed; the graph is owed
            if replica.ready:
                full = detect_conflicts(replica.db, constraints)
                assert replica.graph.as_dict() == full.hypergraph.as_dict()
