"""One recovery rule, asserted for every participant.

The durable writer, a replica and a shard worker all rebuild their
database through :func:`repro.engine.database.recover_database` -- the
writer under ``__writer__`` up to the feed's end, the followers under
their own group up to its committed offsets.  Each scenario here runs
for all three and ends with the conflict graph equal to full
re-detection on the primary.
"""

from __future__ import annotations

import pytest

from repro.conflicts import ReplicaHypergraph, detect_conflicts
from repro.conflicts.shard import ShardWorker, plan_assignment
from repro.constraints import FunctionalDependency
from repro.engine.database import (
    REPLAY_BATCH_RECORDS,
    WRITER_GROUP,
    Database,
)
from repro.engine.feed import ChangeFeed
from repro.engine.snapshot import snapshot_database
from repro.errors import FeedRetentionError

FD = FunctionalDependency("emp", ["name"], ["salary"])
#: More than one replay batch, so a replay interrupted past the first
#: batch has half-applied.
HISTORY = REPLAY_BATCH_RECORDS + 88
GAP = [("gap", 1), ("gap", 2), ("e0", 99)]
KINDS = ["writer", "replica", "shard"]


def primary(directory) -> tuple[ChangeFeed, Database]:
    feed = ChangeFeed(directory, segment_records=32)
    db = Database(feed=feed)
    db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
    db.execute("CREATE TABLE dept (name TEXT)")  # a topic the shard skips
    db.insert_rows("emp", [(f"e{i % 250}", i % 7) for i in range(HISTORY)])
    db.insert_rows("dept", [("d",)])
    return feed, db


def attach(kind: str, feed: ChangeFeed, **options):
    """Open the participant on ``feed`` -- never with a recovery option:
    there is none."""
    if kind == "writer":
        return Database(feed=feed)
    if kind == "replica":
        return ReplicaHypergraph(feed, [FD], group="follower", **options)
    plan = plan_assignment([FD], 2, assignment={"emp": 0, "dept": 1})
    return ShardWorker(feed, plan.shards[0], plan, group="follower", **options)


def assert_recovered(kind: str, participant, source: Database) -> None:
    """The participant's rows are the primary's, and its conflict graph
    is full re-detection's."""
    db = participant if kind == "writer" else participant.db
    assert dict(db.table("emp").items()) == dict(source.table("emp").items())
    graph = (
        detect_conflicts(db, [FD]).hypergraph
        if kind == "writer"
        else participant.graph
    )
    assert graph.as_dict() == detect_conflicts(source, [FD]).hypergraph.as_dict()


@pytest.mark.parametrize("kind", KINDS)
def test_snapshot_plus_gap(kind, tmp_path):
    feed, db = primary(tmp_path / "feed")
    if kind == "writer":
        db.checkpoint()
        db.insert_rows("emp", GAP)
    else:
        follower = attach(kind, feed)
        follower.sync()
        follower.checkpoint()
        db.insert_rows("emp", GAP)
        follower.sync()  # commits the gap; the snapshot stays behind it
        follower._consumer.close()  # crash-style: no closing checkpoint
    feed.close()

    reopened = ChangeFeed(tmp_path / "feed", segment_records=32)
    recovered = attach(kind, reopened)
    assert recovered.restore_mode == "snapshot"
    assert recovered.restore_records == len(GAP)  # the gap, not the history
    if kind != "writer":
        assert recovered.applied_records == {"emp": len(GAP)}
    assert_recovered(kind, recovered, db)
    reopened.close()


def test_replica_reattach_after_close_restores_its_snapshot(tmp_path):
    feed, db = primary(tmp_path / "feed")
    replica = attach("replica", feed)
    replica.sync()
    replica.close()  # snapshot at the committed cut
    db.insert_rows("emp", GAP)  # arrives through sync, not recovery

    resumed = attach("replica", feed)
    assert resumed.restore_mode == "snapshot"
    assert resumed.restore_records == 0
    assert resumed.sync().records == len(GAP)
    assert_recovered("replica", resumed, db)
    feed.close()


def reclaim_mid_replay(monkeypatch, feed: ChangeFeed, group: str, snapshot):
    """Make the first replay on ``feed`` lose its history under it: one
    batch in, "another process" stores ``snapshot`` (``(cut, payload)``
    or None) for ``group`` and the sealed ``emp`` segments vanish."""
    real = feed.iter_records
    raced = []

    def racing(start=None, upto=None):
        stream = real(start=start, upto=upto)
        if raced:
            return stream
        raced.append(True)

        def interrupted():
            for count, record in enumerate(stream):
                if count == REPLAY_BATCH_RECORDS + 8:
                    if snapshot is not None:
                        feed.store_snapshot(group, *snapshot)
                    sealed = sorted(
                        (feed.directory / "topics" / "emp").glob("*.jsonl")
                    )[:-1]
                    for segment in sealed:
                        segment.unlink()
                yield record

        return interrupted()

    monkeypatch.setattr(feed, "iter_records", racing)


def consumed_without_snapshot(kind: str, directory):
    """A primary whose participant is caught up but never stored a
    snapshot.  Returns ``(primary db, group, (cut, payload))`` -- the
    snapshot it *would* have stored -- with the feed closed."""
    feed, db = primary(directory)
    if kind == "writer":
        group = WRITER_GROUP
        snapshot = (feed.end_offsets(), snapshot_database(db))
    else:
        follower = attach(kind, feed, snapshots=False)
        follower.sync()
        group = follower.group
        snapshot = (follower.committed, snapshot_database(follower.db))
        follower.close()
    feed.close()
    return db, group, snapshot


@pytest.mark.parametrize("kind", KINDS)
def test_reclaim_racing_the_replay_falls_back_to_the_snapshot(
    kind, tmp_path, monkeypatch
):
    db, group, snapshot = consumed_without_snapshot(kind, tmp_path / "feed")
    reopened = ChangeFeed(tmp_path / "feed", segment_records=32)
    assert reopened.load_snapshot(group) is None  # the first lookup misses
    reclaim_mid_replay(monkeypatch, reopened, group, snapshot)

    recovered = attach(kind, reopened)
    # Restored onto an emptied database: the half-applied batch (CREATE
    # TABLE included) would otherwise collide with the snapshot's.
    assert recovered.restore_mode == "snapshot"
    assert recovered.restore_records == 0  # the snapshot is at the cut
    if kind != "writer":
        assert recovered.applied_records == {}
    assert_recovered(kind, recovered, db)
    reopened.close()


@pytest.mark.parametrize(
    "kind, message",
    [
        ("writer", "no writer checkpoint"),
        ("replica", "no longer retained"),
        ("shard", "no longer retained"),
    ],
)
def test_neither_retained_nor_snapshotted_fails_loudly(
    kind, message, tmp_path, monkeypatch
):
    _db, group, _snapshot = consumed_without_snapshot(kind, tmp_path / "feed")
    reopened = ChangeFeed(tmp_path / "feed", segment_records=32)
    reclaim_mid_replay(monkeypatch, reopened, group, None)
    with pytest.raises(FeedRetentionError, match=message):
        attach(kind, reopened)
    # A follower that failed to attach holds no registration.
    assert group == WRITER_GROUP or group not in reopened.groups()
    reopened.close()
