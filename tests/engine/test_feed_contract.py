"""One feed contract, two logs.

Everything a consumer may rely on without knowing where the records
live -- seq-ordered polls, ``limit``, commit / re-delivery, topic-subset
subscriptions, resubscription, group snapshots, ``suspended()``, lag
and the ``consume`` step -- runs here against the memory log and
against the segment log (at two records per segment, so every
multi-record case crosses a rotation).  What is kind-specific stays in
``test_feed.py`` (overflow -> ``lost``; torn tails, rotation, tailing,
truncation / compaction crash safety) and ``test_feed_transfer.py``
(what survives a fresh instance).
A snapshot is where the kinds part ways: a durable one outlives the
group's attach, a memory one is forgotten when the group detaches.
"""

from __future__ import annotations

import pytest

from repro.engine.feed import SCHEMA_TOPIC, ChangeFeed
from repro.errors import FeedError, FeedRetentionError


SEGMENT_RECORDS = 2


@pytest.fixture(params=["memory", "segments"])
def feed(request, tmp_path):
    if request.param == "memory":
        built = ChangeFeed()
    else:
        built = ChangeFeed(tmp_path / "feed", segment_records=SEGMENT_RECORDS)
    assert built.durable == (request.param == "segments")
    yield built
    built.close()


def publish(feed: ChangeFeed, relation: str, tid: int, value: int) -> None:
    feed.publish_change(relation, tid, (value,), "insert")


class TestPublishPoll:
    def test_offsets_are_per_topic_and_seq_is_global(self, feed):
        consumer = feed.consumer("g")
        publish(feed, "r", 0, 10)
        publish(feed, "s", 0, 20)
        publish(feed, "r", 1, 11)
        records, lost = consumer.poll()
        assert not lost
        assert [(r.topic, r.offset, r.seq) for r in records] == [
            ("r", 0, 0),
            ("s", 0, 1),
            ("r", 1, 2),
        ]
        assert feed.next_seq == 3
        assert feed.end_offsets() == {"r": 2, "s": 1}

    def test_schema_records_ride_their_own_topic(self, feed):
        consumer = feed.consumer("g")
        feed.publish_schema("create_table", "r", {"name": "r", "columns": []})
        publish(feed, "r", 0, 1)
        records, _ = consumer.poll()
        assert [r.topic for r in records] == [SCHEMA_TOPIC, "r"]
        assert feed.schema_version == 1

    def test_suspended_publishing_drops_everything(self, feed):
        feed.consumer("g")
        with feed.suspended():
            with feed.suspended():  # nests
                publish(feed, "r", 0, 1)
            feed.publish_schema("drop_table", "r")
        assert feed.next_seq == 0 and feed.schema_version == 0
        assert not feed.has_history
        publish(feed, "r", 0, 1)  # and lifts again
        assert feed.next_seq == 1 and feed.has_history

    def test_poll_limit_stops_at_an_intermediate_cut(self, feed):
        consumer = feed.consumer("g")
        for tid in range(5):
            publish(feed, "r", tid, tid)
        first, _ = consumer.poll(limit=2)
        rest, _ = consumer.poll()
        assert [r.tid for r in first] == [0, 1]
        assert [r.tid for r in rest] == [2, 3, 4]

    def test_poll_limit_materializes_a_bounded_batch(self, feed):
        """``_poll`` is a bounded k-way merge, not slice-of-everything."""
        consumer = feed.consumer("g")
        for tid in range(100):
            publish(feed, "r" if tid % 2 else "s", tid, tid)
        records, _ = consumer.poll(limit=5)
        assert [r.seq for r in records] == [0, 1, 2, 3, 4]
        # The regression this pins: the old implementation materialized
        # the *entire* remaining backlog (100 records) and sliced to 5.
        # The merge may look one record ahead per topic, nothing more.
        assert feed.last_poll_materialized <= 5 + 2
        rest, _ = consumer.poll()
        assert [r.seq for r in rest] == list(range(5, 100))

    def test_small_batches_interleave_topics_in_seq_order(self, feed):
        consumer = feed.consumer("g")
        for tid in range(9):
            publish(feed, f"t{tid % 3}", tid // 3, tid)
        seen: list[int] = []
        while True:
            records, _ = consumer.poll(limit=2)
            if not records:
                break
            assert feed.last_poll_materialized <= 2 + 3
            seen.extend(r.seq for r in records)
        assert seen == list(range(9))

    def test_iter_records_replays_a_range_in_seq_order(self, feed):
        feed.consumer("g")
        for tid in range(6):
            publish(feed, "r" if tid % 2 else "s", tid, tid)
        assert [r.seq for r in feed.iter_records()] == list(range(6))
        middle = feed.iter_records(start={"r": 1, "s": 1}, upto={"r": 2, "s": 3})
        assert [(r.topic, r.offset) for r in middle] == [
            ("s", 1),
            ("r", 1),
            ("s", 2),
        ]
        with pytest.raises(FeedError, match="past the end"):
            feed.iter_records(upto={"r": 9})

    def test_iter_records_past_the_end_of_an_unknown_topic(self, feed):
        # A topic the feed never saw ends at offset 0: asking for records
        # of it is past the end of the history, not a retention loss.
        feed.consumer("g")
        publish(feed, "r", 0, 1)
        with pytest.raises(FeedError, match=r"past the end .*\(0\)") as raised:
            feed.iter_records(upto={"x": 2})
        assert not isinstance(raised.value, FeedRetentionError)


class TestCommit:
    def test_poll_without_commit_redelivers_on_reattach(self, feed):
        consumer = feed.consumer("g")
        publish(feed, "r", 0, 1)
        records, _ = consumer.poll()
        assert len(records) == 1
        # A new consumer of the same group starts at the *committed*
        # offsets -- the uncommitted poll is redelivered.
        again = feed.consumer("g")
        redelivered, _ = again.poll()
        assert [r.seq for r in redelivered] == [r.seq for r in records]

    def test_commit_advances_the_group(self, feed):
        consumer = feed.consumer("g")
        publish(feed, "r", 0, 1)
        consumer.poll()
        consumer.commit()
        assert consumer.committed == {"r": 1}
        assert feed.groups() == {"g": {"r": 1}}
        assert feed.consumer("g").poll() == ([], False)

    def test_groups_are_independent(self, feed):
        fast, slow = feed.consumer("fast"), feed.consumer("slow")
        publish(feed, "r", 0, 1)
        fast.poll()
        fast.commit()
        records, _ = slow.poll()
        assert len(records) == 1

    def test_lag_counts_from_committed(self, feed):
        consumer = feed.consumer("g")
        for tid in range(3):
            publish(feed, "r", tid, tid)
        consumer.poll(limit=1)
        assert consumer.lag == 3  # past the committed position
        consumer.commit()
        assert consumer.lag == 2
        records, lost = consumer.poll()  # past the read position
        assert [r.tid for r in records] == [1, 2] and not lost

    def test_new_groups_start_at_the_end_or_the_beginning(self, feed):
        feed.consumer("early")
        publish(feed, "r", 0, 1)
        assert feed.consumer("late").poll() == ([], False)
        records, _ = feed.consumer("replay", start="beginning").poll()
        assert [r.tid for r in records] == [0]

    def test_closed_and_abandoned_consumers_go_quiet(self, feed):
        closed, abandoned = feed.consumer("c"), feed.consumer("a")
        publish(feed, "r", 0, 1)
        closed.close()
        abandoned.abandon()
        for consumer in (closed, abandoned):
            assert consumer.closed
            assert consumer.poll() == ([], False)
            assert consumer.lag == 0
        # close() deregisters; abandon() is the crash: still registered.
        assert "c" not in feed.groups() and "a" in feed.groups()


class TestConsume:
    """``consume(apply)`` is poll -> apply -> commit, the one step every
    follower takes."""

    def test_commits_only_when_the_position_moved(self, feed, monkeypatch):
        consumer = feed.consumer("g")
        commits = []
        commit = consumer.commit
        monkeypatch.setattr(consumer, "commit", lambda: commits.append(commit()))
        seen = []
        assert consumer.consume(lambda *batch: seen.append(batch)) == []
        assert seen == [([], False)] and commits == []
        publish(feed, "r", 0, 1)
        records = consumer.consume(lambda *batch: seen.append(batch))
        assert [r.tid for r in records] == [0] and seen[-1] == (records, False)
        assert len(commits) == 1 and consumer.committed == {"r": 1}

    def test_a_raising_apply_is_delivered_again(self, feed):
        consumer = feed.consumer("g")
        for tid in range(3):
            publish(feed, "r", tid, tid)
        committed = consumer.committed

        def fail(records, lost):
            raise RuntimeError("apply failed")

        with pytest.raises(RuntimeError, match="apply failed"):
            consumer.consume(fail, limit=2)
        assert consumer.committed == committed and consumer.lag == 3
        records, lost = consumer.poll()
        assert [r.tid for r in records] == [0, 1, 2] and not lost

    def test_lost_reaches_apply_and_is_committed(self):
        feed = ChangeFeed(max_retained=2)
        consumer = feed.consumer("g")
        for tid in range(4):
            publish(feed, "r", tid, tid)
        seen = []

        def fail(records, lost):
            seen.append((records, lost))
            raise RuntimeError("apply failed")

        with pytest.raises(RuntimeError):
            consumer.consume(fail)
        assert consumer.consume(lambda *batch: seen.append(batch)) == []
        assert seen == [([], True), ([], True)]  # the loss, delivered again
        assert consumer.committed == feed.end_offsets() == {"r": 4}
        assert feed.consumer("g").poll() == ([], False)


class TestResidency:
    """What a feed keeps in memory is what some group attached to this
    instance has yet to commit -- on disk or not, however long it runs."""

    def test_every_commit_releases_what_all_local_groups_passed(self, feed):
        fast, slow = feed.consumer("fast"), feed.consumer("slow")
        for round_ in range(3 * SEGMENT_RECORDS):
            for tid in range(3):
                publish(feed, "rs"[tid % 2], 3 * round_ + tid, tid)
            committers = (fast, slow) if round_ % 3 == 2 else (fast,)
            for consumer in committers:
                consumer.poll()
                consumer.commit()
                floor = slow.committed
                unreleased = sum(
                    end - floor.get(name, 0)
                    for name, end in feed.end_offsets().items()
                )
                assert feed.resident_records() <= unreleased
        assert feed.resident_records() == 0

    @pytest.mark.parametrize("batch", [SEGMENT_RECORDS, SEGMENT_RECORDS + 1])
    def test_a_lag_zero_consumer_bounds_the_peak(self, feed, batch):
        consumer = feed.consumer("g")
        for round_ in range(3 * SEGMENT_RECORDS):
            for tid in range(batch):
                publish(feed, "r", batch * round_ + tid, tid)
            records, _ = consumer.poll()
            assert len(records) == batch
            consumer.commit()
            assert feed.resident_records() == 0
        # Lag 0 plus the batch in flight -- also when commits fall inside
        # a segment that sealed since (no whole-segment read-back).
        assert feed.peak_resident_records <= batch

    def test_a_feed_without_local_groups_releases_everything(self, feed):
        consumer = feed.consumer("g")
        for tid in range(2 * SEGMENT_RECORDS + 1):
            publish(feed, "r", tid, tid)
        # All of it unreleased; a segment log keeps only the active tail.
        expected = 1 if feed.durable else 2 * SEGMENT_RECORDS + 1
        assert feed.resident_records() == expected
        consumer.close()
        assert feed.resident_records() == 0


class TestSubscriptions:
    def test_polls_and_lag_see_only_subscribed_topics(self, feed):
        subscribed = feed.consumer("r-only", topics=["R"])  # lower-cased
        everything = feed.consumer("all")
        publish(feed, "r", 0, 1)
        publish(feed, "s", 0, 2)
        assert subscribed.topics == frozenset({"r"})
        assert subscribed.lag == 1  # s is invisible to the subscription
        assert everything.lag == 2
        records, lost = subscribed.poll()
        assert not lost and [r.topic for r in records] == ["r"]
        subscribed.commit()
        assert subscribed.committed == {"r": 1}
        point = feed.recovery_points()["r-only"]
        assert point.topics == frozenset({"r"}) and point.floor == {"r": 1}

    def test_adding_a_topic_pins_it_at_the_given_position(self, feed):
        consumer = feed.consumer("g", topics=("a",))
        publish(feed, "a", 0, 1)
        publish(feed, "b", 0, 1)
        publish(feed, "b", 1, 2)
        consumer.poll()
        consumer.commit()
        merged = consumer.resubscribe(("a", "b"), {"b": 1})
        assert merged == {"a": 1, "b": 1}
        assert consumer.topics == frozenset({"a", "b"})
        records, _ = consumer.poll()  # resumes b from the given cut
        assert [(r.topic, r.offset) for r in records] == [("b", 1)]
        point = feed.recovery_points()["g"]
        assert point.topics == frozenset({"a", "b"})
        assert point.committed == {"a": 1, "b": 1}

    def test_dropping_a_topic_releases_its_registration(self, feed):
        consumer = feed.consumer("g", topics=("a", "b"))
        publish(feed, "a", 0, 1)
        publish(feed, "b", 0, 1)
        consumer.poll()
        consumer.commit()
        merged = feed.update_subscription("g", ("a",))
        assert merged == {"a": 1}
        point = feed.recovery_points()["g"]
        assert point.topics == frozenset({"a"}) and "b" not in point.committed

    def test_existing_committed_wins_over_fresh_position(self, feed):
        # Re-applying a resubscription must be idempotent: the group's
        # own committed offset is never rewound by the fresh position.
        consumer = feed.consumer("g", topics=("a", "b"))
        publish(feed, "a", 0, 1)
        consumer.poll()
        consumer.commit()
        merged = consumer.resubscribe(("a", "b"), {"a": 0})
        assert merged["a"] == 1

    def test_ephemeral_groups_cannot_resubscribe_or_snapshot(self, feed):
        consumer = feed.consumer()
        with pytest.raises(FeedError):
            consumer.resubscribe(("a",))
        with pytest.raises(FeedError):
            consumer.store_snapshot({})
        closed = feed.consumer("named")
        closed.close()
        with pytest.raises(FeedError, match="closed"):
            closed.resubscribe(("a",))


class TestSnapshots:
    def test_roundtrip_binds_the_committed_offsets(self, feed):
        consumer = feed.consumer("g", topics=("a",))
        publish(feed, "a", 0, 1)
        publish(feed, "a", 1, 2)
        consumer.poll()
        consumer.commit()
        assert consumer.load_snapshot() is None
        consumer.store_snapshot({"rows": [1, 2]})
        assert consumer.load_snapshot() == ({"a": 2}, {"rows": [1, 2]})
        point = feed.recovery_points()["g"]
        assert point.snapshot == {"a": 2} and point.source == "snapshot"
        assert point.topics == frozenset({"a"})
        consumer.close()
        # A durable snapshot outlives the attach; a memory one does not.
        assert (feed.load_snapshot("g") is not None) == feed.durable

    def test_ephemeral_and_closed_groups_are_refused(self, feed):
        with pytest.raises(FeedError, match="named group"):
            feed.consumer().store_snapshot({})
        closed = feed.consumer("c")
        closed.close()
        with pytest.raises(FeedError, match="named group"):
            closed.store_snapshot({})
        assert feed.load_snapshot("c") is None
