"""Unit tests for the partitioned change feed.

The feed is the durability layer under incremental conflict detection
(see ``tests/conflicts/test_replica.py`` for the consumer side); here we
pin its mechanics: per-topic offsets, global sequence order, consumer
groups with committed offsets, retention/overflow, segment rotation, the
manifest, crash-safe replay of a torn segment tail, bounded-memory lazy
opens, cross-process live tailing, and durable retention truncation.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.database import WRITER_GROUP, Database
from repro.engine.feed import (
    MANIFEST,
    ChangeFeed,
    FeedRecord,
)
from repro.errors import FeedError, FeedRetentionError


def publish(feed: ChangeFeed, relation: str, tid: int, value: int, op: str = "insert"):
    feed.publish_change(relation, tid, (value,), op)


class TestPartitioning:
    # Seq/offset order, DDL topic, suspended(), consumer-group and
    # poll-merge behaviour shared by both kinds: test_feed_contract.py.

    def test_nothing_buffered_without_consumers(self):
        feed = ChangeFeed()
        publish(feed, "r", 0, 1)
        assert feed.next_seq == 0 and feed.topics() == []
        assert feed.dropped == 1


class TestRetention:
    def test_compaction_waits_for_the_slowest_group(self):
        feed = ChangeFeed()
        fast, slow = feed.consumer("fast"), feed.consumer("slow")
        publish(feed, "r", 0, 1)
        fast.poll()
        fast.commit()
        (topic,) = feed.topics()
        assert topic.start == 0  # retained for the slow group
        slow.poll()
        slow.commit()
        (topic,) = feed.topics()
        assert topic.start == 1

    def test_overflow_marks_lagging_groups_lost(self):
        feed = ChangeFeed(max_retained=2)
        consumer = feed.consumer("g")
        for tid in range(4):
            publish(feed, "r", tid, tid)
        records, lost = consumer.poll()
        assert lost and records == []
        assert consumer.poll() == ([], False)  # repositioned at the end
        publish(feed, "r", 9, 9)
        records, lost = consumer.poll()
        assert not lost and [r.tid for r in records] == [9]

    def test_iter_records_raises_past_retention(self):
        feed = ChangeFeed(max_retained=2)
        feed.consumer("g")
        for tid in range(4):
            publish(feed, "r", tid, tid)
        with pytest.raises(FeedError, match="no longer retained"):
            list(feed.iter_records(upto={"r": 3}))

    def test_subscribed_groups_compact_their_own_topics_only(self):
        feed = ChangeFeed()
        subscribed = feed.consumer("r-only", topics=["r"])
        everything = feed.consumer("all")
        publish(feed, "r", 0, 1)
        publish(feed, "s", 0, 2)
        assert subscribed.lag == 1  # s is invisible to the subscription
        records, lost = subscribed.poll()
        assert not lost and [r.topic for r in records] == ["r"]
        subscribed.commit()
        # r is held for the subscribe-all group; s is untouched.
        assert {t.name: t.start for t in feed.topics()} == {"r": 0, "s": 0}
        everything.poll()
        everything.commit()
        assert {t.name: t.start for t in feed.topics()} == {"r": 1, "s": 1}

    def test_unsubscribed_topics_are_retained_for_late_attachers(self):
        # A topic no current group subscribes to must keep its records
        # (and dropped == 0): a subscribe-all consumer attaching later
        # still sees the full history.
        feed = ChangeFeed()
        subscribed = feed.consumer("r-only", topics=["r"])
        publish(feed, "r", 0, 1)
        publish(feed, "s", 0, 2)
        subscribed.poll()
        subscribed.commit()  # compaction runs; s has no subscriber
        assert feed.dropped == 0
        # r was consumed by its only subscriber and compacts away (the
        # normal in-memory semantics); s must survive untouched.
        assert {t.name: t.start for t in feed.topics()} == {"r": 1, "s": 0}
        late = feed.consumer("late", start="beginning", topics=["s"])
        records, lost = late.poll()
        assert not lost
        assert [(r.topic, r.tid) for r in records] == [("s", 0)]


class TestDurability:
    def test_records_survive_reopen(self, tmp_path):
        directory = tmp_path / "feed"
        with ChangeFeed(directory) as feed:
            publish(feed, "r", 0, 10)
            publish(feed, "s", 0, 20)
        reopened = ChangeFeed(directory)
        consumer = reopened.consumer("g", start="beginning")
        records, _ = consumer.poll()
        assert [(r.topic, r.tid, r.row) for r in records] == [
            ("r", 0, (10,)),
            ("s", 0, (20,)),
        ]

    def test_segments_rotate_and_land_in_the_manifest(self, tmp_path):
        directory = tmp_path / "feed"
        with ChangeFeed(directory, segment_records=2) as feed:
            for tid in range(5):
                publish(feed, "r", tid, tid)
        manifest = json.loads((directory / MANIFEST).read_text())
        segments = manifest["topics"]["r"]["segments"]
        assert segments == [
            "000000000000.jsonl",
            "000000000002.jsonl",
            "000000000004.jsonl",
        ]
        reopened = ChangeFeed(directory, segment_records=2)
        assert reopened.end_offsets() == {"r": 5}

    def test_committed_offsets_survive_reopen(self, tmp_path):
        directory = tmp_path / "feed"
        with ChangeFeed(directory) as feed:
            consumer = feed.consumer("replica", start="beginning")
            for tid in range(4):
                publish(feed, "r", tid, tid)
            consumer.poll(limit=2)
            consumer.commit()
        reopened = ChangeFeed(directory)
        resumed = reopened.consumer("replica")
        assert resumed.committed == {"r": 2}
        records, _ = resumed.poll()
        assert [r.tid for r in records] == [2, 3]

    def test_durable_feeds_never_overflow(self, tmp_path):
        feed = ChangeFeed(tmp_path / "feed", max_retained=2)
        consumer = feed.consumer("g")
        for tid in range(10):
            publish(feed, "r", tid, tid)
        records, lost = consumer.poll()
        assert not lost and len(records) == 10

    def test_torn_tail_is_truncated_on_reopen(self, tmp_path):
        directory = tmp_path / "feed"
        with ChangeFeed(directory) as feed:
            for tid in range(3):
                publish(feed, "r", tid, tid)
        segment = directory / "topics" / "r" / "000000000000.jsonl"
        data = segment.read_bytes()
        torn = data[: len(data) - len(data.splitlines(True)[-1]) + 7]
        segment.write_bytes(torn)  # the crash cut the last append short
        reopened = ChangeFeed(directory)
        assert reopened.end_offsets() == {"r": 2}
        # The torn bytes are gone: appending again yields a clean file.
        publish(reopened, "r", 7, 7)
        reopened.close()
        lines = segment.read_text().splitlines()
        assert len(lines) == 3
        assert FeedRecord.from_json(lines[-1]).tid == 7

    def test_missing_active_segment_is_tolerated(self, tmp_path):
        directory = tmp_path / "feed"
        with ChangeFeed(directory, segment_records=1) as feed:
            publish(feed, "r", 0, 0)
        # Simulate a crash after the manifest named a successor segment
        # but before its first append created the file.
        manifest_path = directory / MANIFEST
        manifest = json.loads(manifest_path.read_text())
        manifest["topics"]["r"]["segments"].append("000000000001.jsonl")
        manifest_path.write_text(json.dumps(manifest))
        reopened = ChangeFeed(directory)
        assert reopened.end_offsets() == {"r": 1}

    def test_fsync_always_policy(self, tmp_path):
        feed = ChangeFeed(tmp_path / "feed", fsync="always")
        publish(feed, "r", 0, 1)
        feed.close()
        with pytest.raises(FeedError, match="fsync"):
            ChangeFeed(tmp_path / "other", fsync="sometimes")

    def test_flush_syncs_only_writers_appended_to_since(self, tmp_path, monkeypatch):
        import os

        synced = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real(fd)))

        def syncs(action) -> int:
            before = len(synced)
            action()
            return len(synced) - before

        directory = tmp_path / "feed"
        feed = ChangeFeed(directory)
        consumer = feed.consumer("g", start="beginning")
        publish(feed, "r", 0, 1)
        publish(feed, "s", 0, 1)
        assert syncs(feed.flush) == 2  # one per appended topic
        assert syncs(feed.flush) == 0  # nothing appended since
        consumer.poll()
        assert syncs(consumer.commit) == 1  # a clean flush + the offsets file
        publish(feed, "r", 1, 2)
        assert syncs(feed.flush) == 1  # only r's writer
        publish(feed, "s", 1, 2)
        feed.close()  # sealing syncs whatever flush() has not
        with ChangeFeed(directory) as reopened:
            assert reopened.end_offsets() == {"r": 2, "s": 2}


class TestDurableDatabase:
    def test_database_restores_from_its_feed(self, tmp_path):
        directory = tmp_path / "db"
        db = Database(durable=str(directory))
        db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
        db.execute("INSERT INTO emp VALUES ('ann', 10), ('bob', 20)")
        db.execute("UPDATE emp SET salary = 15 WHERE name = 'ann'")
        db.execute("DELETE FROM emp WHERE name = 'bob'")
        tids = dict(db.table("emp").items())
        db.changes.feed.close()

        restored = Database(durable=str(directory))
        assert dict(restored.table("emp").items()) == tids
        assert restored.changes.feed.schema_version == db.changes.feed.schema_version
        # The restored database keeps appending where the old one left
        # off (replay must not have re-published history).
        end = restored.changes.end
        restored.execute("INSERT INTO emp VALUES ('carol', 9)")
        assert restored.changes.end == end + 1

    def test_restore_replays_ddl_in_order(self, tmp_path):
        directory = tmp_path / "db"
        db = Database(durable=str(directory))
        db.execute("CREATE TABLE r (a INTEGER)")
        db.execute("INSERT INTO r VALUES (1)")
        db.execute("DROP TABLE r")
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO r VALUES (2, 3)")
        db.changes.feed.close()

        restored = Database(durable=str(directory))
        assert list(restored.table("r").rows()) == [(2, 3)]
        assert restored.table("r").schema.arity == 2

    def test_durable_and_feed_are_exclusive(self, tmp_path):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError, match="not both"):
            Database(durable=str(tmp_path), feed=ChangeFeed())


class TestCommitDurabilityOrdering:
    def test_commit_flushes_acknowledged_records_first(self, tmp_path):
        # A commit must never survive a crash its records did not: the
        # buffered appends have to hit disk before the offsets file.
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory)  # fsync="rotate": appends buffered
        consumer = feed.consumer("replica", start="beginning")
        for tid in range(3):
            publish(feed, "r", tid, tid)
        consumer.poll()
        consumer.commit()  # no explicit feed.flush()
        # Simulate the crash: reopen without close()/flush().
        reopened = ChangeFeed(directory)
        assert reopened.end_offsets() == {"r": 3}
        assert reopened.consumer("replica").committed == {"r": 3}

    def test_stale_commit_past_history_is_detected(self, tmp_path):
        directory = tmp_path / "feed"
        with ChangeFeed(directory) as feed:
            feed.consumer("replica", start="beginning")
            publish(feed, "r", 0, 0)
        reopened = ChangeFeed(directory)
        with pytest.raises(FeedError, match="past the end"):
            list(reopened.iter_records(upto={"r": 5}))


class TestValueRoundTrip:
    """REAL edge values survive the JSONL wire format -- as strict JSON."""

    def publish_row(self, tmp_path, row):
        directory = tmp_path / "feed"
        with ChangeFeed(directory) as feed:
            feed.publish_change("r", 0, row, "insert")
        reopened = ChangeFeed(directory)
        (record,) = list(reopened.iter_records(upto=reopened.end_offsets()))
        return record.row

    def test_non_finite_reals_round_trip(self, tmp_path):
        row = (float("nan"), float("inf"), float("-inf"), 2.0, -0.0)
        back = self.publish_row(tmp_path, row)
        assert math.isnan(back[0])
        assert back[1] == float("inf") and back[2] == float("-inf")
        assert back[3] == 2.0 and type(back[3]) is float
        assert str(back[4]) == "-0.0"

    def test_lines_are_strict_json(self):
        record = FeedRecord(
            seq=0,
            topic="r",
            offset=0,
            kind="change",
            tid=0,
            row=(float("nan"), float("inf"), "x", None, True, 7),
            op="insert",
        )
        line = record.to_json()
        # A strict foreign parser must never see the non-standard
        # ``NaN`` / ``Infinity`` tokens (json.loads only calls
        # parse_constant for exactly those).
        def reject(token):
            raise AssertionError(f"non-standard JSON token {token!r}")

        json.loads(line, parse_constant=reject)
        back = FeedRecord.from_json(line)
        assert math.isnan(back.row[0]) and back.row[1:] == record.row[1:]

    def test_unknown_wrapper_is_rejected(self):
        line = (
            '{"seq":0,"topic":"r","offset":0,"kind":"change",'
            '"tid":0,"row":[{"$f":"wat"}],"op":"insert"}'
        )
        with pytest.raises(FeedError):
            FeedRecord.from_json(line)


class TestLazyOpen:
    """Opening a durable feed parses no record bodies."""

    def build(self, directory, records=10, segment_records=3):
        with ChangeFeed(directory, segment_records=segment_records) as feed:
            for tid in range(records):
                publish(feed, "r", tid, tid)

    def test_end_offsets_only_open_parses_no_bodies(self, tmp_path, monkeypatch):
        directory = tmp_path / "feed"
        self.build(directory)

        def forbid(line):
            raise AssertionError(f"parsed a record body: {line!r}")

        monkeypatch.setattr(FeedRecord, "from_json", staticmethod(forbid))
        reopened = ChangeFeed(directory, segment_records=3)
        assert reopened.end_offsets() == {"r": 10}
        assert reopened.resident_records() == 0

    def test_open_keeps_only_the_active_tail_resident(self, tmp_path):
        directory = tmp_path / "feed"
        self.build(directory, records=10, segment_records=3)
        reopened = ChangeFeed(directory, segment_records=3)
        consumer = reopened.consumer("g", start="beginning")
        records, _ = consumer.poll()
        assert [r.tid for r in records] == list(range(10))
        # The tail (1 record) alone: sealed segments are read from their
        # files and kept nowhere.
        assert reopened.resident_records() == 1

    def test_replay_keeps_only_the_tail_resident(self, tmp_path):
        # Over a history of >= 16 sealed segments, replaying retains at
        # most segment_records records: the tail, never the history.
        directory = tmp_path / "feed"
        self.build(directory, records=51, segment_records=3)
        reopened = ChangeFeed(directory, segment_records=3)
        (topic,) = reopened.topics()
        assert topic.segments - 1 >= 16  # sealed segments
        tids = [r.tid for r in reopened.iter_records()]
        assert tids == list(range(51))
        # Sealed segments are read a line at a time and kept nowhere.
        assert reopened.peak_resident_records <= 3

    def test_next_seq_recovered_lazily(self, tmp_path):
        directory = tmp_path / "feed"
        self.build(directory, records=5)
        reopened = ChangeFeed(directory, segment_records=3)
        assert reopened.next_seq == 5
        publish(reopened, "r", 9, 9)
        assert reopened.end_offsets() == {"r": 6}
        reopened.close()

    def test_small_polls_inside_a_sealed_segment_decode_a_bounded_batch(
        self, tmp_path, monkeypatch
    ):
        # A poll of ``limit`` k decodes at most k + 1 bodies per topic
        # (the merge's look-ahead), not the whole segment it starts in.
        directory = tmp_path / "feed"
        with ChangeFeed(directory, segment_records=8) as feed:
            for tid in range(40):
                publish(feed, "rs"[tid % 2], tid // 2, tid)  # sealed: 0, 8
        decoded: list[str] = []
        real = FeedRecord.from_json

        def counting(line):
            record = real(line)
            decoded.append(record.topic)
            return record

        monkeypatch.setattr(FeedRecord, "from_json", staticmethod(counting))
        reopened = ChangeFeed(directory, segment_records=8)
        consumer = reopened.consumer("g", start="beginning")
        consumer.seek({"r": 2, "s": 2})
        for limit in (1, 3):
            decoded.clear()
            records, _ = consumer.poll(limit=limit)
            assert len(records) == limit
            assert decoded.count("r") <= limit + 1
            assert decoded.count("s") <= limit + 1


def _shift_offset(line: bytes) -> bytes:
    payload = json.loads(line)
    payload["offset"] += 1
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


class TestCorruptSegments:
    """Corruption is loud: a damaged sealed segment raises ``FeedError``
    out of polls and replays alike -- never mistaken for a retention
    loss (``lost``) or a torn tail (a silently shorter history)."""

    #: name -> (rewrite of the sealed segment's lines, error message).
    CORRUPTIONS = {
        "missing line": (
            lambda lines: lines[:1] + lines[2:],
            "corrupt sealed segment",
        ),
        "garbage middle line": (
            lambda lines: lines[:1] + [b"not a record\n"] + lines[2:],
            "corrupt record inside sealed segment",
        ),
        "wrong offsets": (
            lambda lines: [_shift_offset(line) for line in lines],
            "corrupt segment",
        ),
    }

    def build(self, directory):
        with ChangeFeed(directory, segment_records=4) as feed:
            for tid in range(10):
                publish(feed, "r", tid, tid)  # sealed: 0, 4; active: 8

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_poll_and_replay_raise(self, tmp_path, corruption):
        directory = tmp_path / "feed"
        self.build(directory)
        rewrite, message = self.CORRUPTIONS[corruption]
        segment = directory / "topics" / "r" / "000000000004.jsonl"
        lines = segment.read_bytes().splitlines(keepends=True)
        segment.write_bytes(b"".join(rewrite(lines)))
        feed = ChangeFeed(directory, segment_records=4)
        consumer = feed.consumer("g", start="beginning")
        with pytest.raises(FeedError, match=message) as polled:
            consumer.poll()
        assert not isinstance(polled.value, FeedRetentionError)
        with pytest.raises(FeedError, match=message) as replayed:
            list(feed.iter_records())
        assert not isinstance(replayed.value, FeedRetentionError)

    def test_corrupt_manifest_raises_on_open(self, tmp_path):
        directory = tmp_path / "feed"
        self.build(directory)
        (directory / MANIFEST).write_text('{"version": 2, "topics": ')
        with pytest.raises(FeedError, match="corrupt manifest"):
            ChangeFeed(directory)


class TestReleasedHistory:
    """Released records left memory, not the log: a read below the
    resident floor goes back to the segment files (the shared residency
    rules are in ``test_feed_contract.py``)."""

    def lines(self, directory, topic="r"):
        files = sorted((directory / "topics" / topic).glob("*.jsonl"))
        return b"".join(path.read_bytes() for path in files).decode().splitlines()

    def test_writer_rereads_through_its_unflushed_buffer(self, tmp_path):
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory, segment_records=4)
        cursor = feed.consumer()  # ephemeral: its commits flush nothing
        seen = []
        for tid in range(7):
            publish(feed, "r", tid, tid)
            records, _ = cursor.poll()
            seen.extend(r.to_json() for r in records)
            cursor.commit()
        assert feed.resident_records() == 0
        assert len(self.lines(directory)) < 7  # the tail is still buffered
        late, lost = feed.consumer("late", start="beginning").poll()
        assert not lost and [r.to_json() for r in late] == seen
        assert [r.to_json() for r in feed.iter_records()] == seen
        feed.flush()
        assert self.lines(directory) == seen
        feed.close()

    def test_reader_instance_rereads_and_keeps_tailing(self, tmp_path):
        directory = tmp_path / "feed"
        writer = ChangeFeed(directory, segment_records=4)
        reader = ChangeFeed(directory, segment_records=4)
        follower = reader.consumer("follower", start="beginning")
        seen = []
        for tid in range(7):
            publish(writer, "r", tid, tid)
            writer.flush()
            records, _ = follower.poll()  # extends a partly released tail
            assert [r.tid for r in records] == [tid]
            seen.extend(r.to_json() for r in records)
            follower.commit()
            assert reader.resident_records() == 0
        assert reader.next_seq == writer.next_seq == 7
        late, lost = reader.consumer("late", start="beginning").poll()
        assert not lost and [r.to_json() for r in late] == seen
        assert self.lines(directory) == seen
        writer.close()
        reader.close()

    def test_rotation_keeps_the_unreleased_rest_of_the_sealed_segment(
        self, tmp_path
    ):
        feed = ChangeFeed(tmp_path / "feed", segment_records=4)
        consumer = feed.consumer("g")
        for tid in range(3):
            publish(feed, "r", tid, tid)
        consumer.poll()
        consumer.commit()  # the floor now lies inside the first segment
        for tid in range(3, 6):
            publish(feed, "r", tid, tid)
        # Offset 3 outlived its segment's rotation in memory: serving it
        # reads nothing back.
        assert feed.resident_records() == 3
        assert [r.tid for r in consumer.poll()[0]] == [3, 4, 5]
        assert feed.peak_resident_records == 3
        # A consumer that then stalls for a whole segment gets the usual
        # bound (the full segment and the older rest leave memory).
        for tid in range(6, 10):
            publish(feed, "r", tid, tid)
        assert feed.resident_records() <= 4
        consumer.seek(consumer.committed)
        assert [r.tid for r in consumer.poll()[0]] == list(range(3, 10))
        feed.close()

    def test_commit_before_the_tail_was_ever_parsed(self, tmp_path):
        directory = tmp_path / "feed"
        writer = ChangeFeed(directory, segment_records=4)
        publish(writer, "r", 0, 0)
        publish(writer, "r", 1, 1)
        writer.flush()
        reader = ChangeFeed(directory, segment_records=4)
        follower = reader.consumer("follower")  # attaches at the end
        follower.commit()  # nothing resident, nothing to release
        publish(writer, "r", 2, 2)
        writer.flush()
        assert [r.tid for r in follower.poll()[0]] == [2]
        writer.close()
        reader.close()

    def test_close_drops_the_resident_tail(self, tmp_path):
        feed = ChangeFeed(tmp_path / "feed", segment_records=4)
        consumer = feed.consumer("g")
        for tid in range(6):
            publish(feed, "r", tid, tid)
        assert feed.resident_records() == 2  # [0, 4) left at its rotation
        feed.close()
        assert feed.resident_records() == 0
        records, _ = consumer.poll()
        assert [r.tid for r in records] == list(range(6))
        publish(feed, "r", 6, 6)  # and the instance still appends in place
        assert [r.tid for r in consumer.poll()[0]] == [6]
        feed.close()


class TestLiveTailing:
    """A reader instance sees the writer's flushed appends on poll."""

    def test_reader_sees_appends_made_after_open(self, tmp_path):
        directory = tmp_path / "feed"
        writer = ChangeFeed(directory)
        reader = ChangeFeed(directory)
        consumer = reader.consumer("follower", start="beginning")
        assert consumer.poll() == ([], False)
        publish(writer, "r", 0, 0)
        writer.flush()
        records, lost = consumer.poll()
        assert not lost and [r.tid for r in records] == [0]
        publish(writer, "r", 1, 1)
        publish(writer, "s", 0, 5)  # a topic born after the reader opened
        writer.flush()
        records, _ = consumer.poll()
        assert [(r.topic, r.tid) for r in records] == [("r", 1), ("s", 0)]
        writer.close()
        reader.close()

    def test_reader_follows_rotation(self, tmp_path):
        directory = tmp_path / "feed"
        writer = ChangeFeed(directory, segment_records=2)
        reader = ChangeFeed(directory, segment_records=2)
        consumer = reader.consumer("follower", start="beginning")
        for tid in range(5):
            publish(writer, "r", tid, tid)
        writer.flush()
        records, _ = consumer.poll()
        assert [r.tid for r in records] == [0, 1, 2, 3, 4]
        assert reader.end_offsets() == {"r": 5}
        writer.close()
        reader.close()

    def test_lag_refreshes_without_polling(self, tmp_path):
        directory = tmp_path / "feed"
        writer = ChangeFeed(directory)
        reader = ChangeFeed(directory)
        consumer = reader.consumer("follower", start="beginning")
        assert consumer.lag == 0
        publish(writer, "r", 0, 0)
        writer.flush()
        assert consumer.lag == 1
        writer.close()
        reader.close()

    def test_schema_version_follows_ddl(self, tmp_path):
        directory = tmp_path / "feed"
        writer = ChangeFeed(directory)
        reader = ChangeFeed(directory)
        reader.consumer("follower", start="beginning")
        writer.publish_schema("create_table", "r", {"name": "r"})
        writer.flush()
        reader.refresh()
        assert reader.schema_version == 1
        writer.close()
        reader.close()

    def test_reader_ignores_a_partially_flushed_line(self, tmp_path):
        directory = tmp_path / "feed"
        writer = ChangeFeed(directory)
        consumer_side = ChangeFeed(directory)
        consumer = consumer_side.consumer("follower", start="beginning")
        publish(writer, "r", 0, 0)
        writer.flush()
        consumer.poll()
        # Simulate a half-flushed append from the writer's buffer.
        segment = directory / "topics" / "r" / "000000000000.jsonl"
        whole = FeedRecord(
            seq=1, topic="r", offset=1, kind="change", tid=1, row=(1,), op="insert"
        ).to_json()
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write(whole[: len(whole) // 2])
        assert consumer.poll() == ([], False)  # incomplete line invisible
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write(whole[len(whole) // 2 :] + "\n")
        records, _ = consumer.poll()
        assert [r.tid for r in records] == [1]
        writer.close()
        consumer_side.close()

    def test_writer_instances_do_not_rescan(self, tmp_path):
        directory = tmp_path / "feed"
        writer = ChangeFeed(directory)
        publish(writer, "r", 0, 0)
        assert writer.refresh() is False  # the writer's memory is truth
        writer.close()


class TestRetentionTruncation:
    """Whole sealed segments die once every group passed them."""

    def build(self, directory, records=6, **kwargs):
        feed = ChangeFeed(
            directory, segment_records=2, retention="compact", **kwargs
        )
        consumer = feed.consumer("g", start="beginning")
        for tid in range(records):
            publish(feed, "r", tid, tid)
        return feed, consumer

    def test_sealed_segments_are_deleted_once_the_group_passes(self, tmp_path):
        directory = tmp_path / "feed"
        feed, consumer = self.build(directory)
        consumer.poll()
        consumer.commit()
        (topic,) = [t for t in feed.topics() if t.name == "r"]
        assert topic.start == 4  # only the newest segment survives
        names = sorted(p.name for p in (directory / "topics" / "r").glob("*"))
        assert names == ["000000000004.jsonl"]
        manifest = json.loads((directory / MANIFEST).read_text())
        assert manifest["topics"]["r"]["base"] == 4
        assert manifest["topics"]["r"]["segments"] == ["000000000004.jsonl"]
        feed.close()

    def test_truncation_waits_for_the_slowest_group(self, tmp_path):
        directory = tmp_path / "feed"
        feed, fast = self.build(directory)
        slow = feed.consumer("slow", start="beginning")
        fast.poll()
        fast.commit()
        (topic,) = [t for t in feed.topics() if t.name == "r"]
        assert topic.start == 0  # "slow" still needs the prefix
        slow.poll()
        slow.commit()
        (topic,) = [t for t in feed.topics() if t.name == "r"]
        assert topic.start == 4
        feed.close()

    def test_truncated_prefix_is_no_longer_retained(self, tmp_path):
        directory = tmp_path / "feed"
        feed, consumer = self.build(directory)
        consumer.poll()
        consumer.commit()
        with pytest.raises(FeedError, match="no longer retained"):
            list(feed.iter_records(upto={"r": 6}))
        feed.close()

    def test_keep_policy_never_deletes(self, tmp_path):
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory, segment_records=2)  # default "keep"
        consumer = feed.consumer("g", start="beginning")
        for tid in range(6):
            publish(feed, "r", tid, tid)
        consumer.poll()
        consumer.commit()
        assert len(list((directory / "topics" / "r").glob("*.jsonl"))) == 3
        feed.close()

    def test_truncation_races_a_reattaching_group(self, tmp_path):
        # A group registered by another instance *before* truncation
        # runs must hold the segments -- registration writes the
        # consumers/ file at attach time, not first commit.
        directory = tmp_path / "feed"
        feed, consumer = self.build(directory)
        feed.flush()
        reader = ChangeFeed(directory)
        late = reader.consumer("late", start="beginning")
        consumer.poll()
        consumer.commit()  # would truncate -- but "late" is on disk at 0
        assert len(list((directory / "topics" / "r").glob("*.jsonl"))) == 3
        records, lost = late.poll()
        assert not lost and [r.tid for r in records] == list(range(6))
        feed.close()
        reader.close()

    def test_group_attaching_after_truncation_finds_history_gone(self, tmp_path):
        directory = tmp_path / "feed"
        feed, consumer = self.build(directory)
        consumer.poll()
        consumer.commit()  # truncates [0, 4)
        feed.flush()
        reader = ChangeFeed(directory)
        late = reader.consumer("late", start="beginning")
        records, lost = late.poll()
        assert lost and records == []  # offsets [0, 4) are gone
        with pytest.raises(FeedError, match="no longer retained"):
            list(reader.iter_records(upto={"r": 6}))
        feed.close()
        reader.close()

    def test_snapshot_is_the_groups_retention_floor(self, tmp_path):
        directory = tmp_path / "feed"
        feed, consumer = self.build(directory)
        consumer.poll(limit=2)
        consumer.commit()
        consumer.store_snapshot({"state": "at-2"})
        consumer.poll()
        consumer.commit()  # committed 6, but the snapshot pins offset 2
        names = sorted(p.name for p in (directory / "topics" / "r").glob("*"))
        assert names == [
            "000000000002.jsonl",
            "000000000004.jsonl",
        ]  # [0, 2) reclaimed; [2, 6) held for snapshot recovery
        committed, payload = consumer.load_snapshot()
        assert committed == {"r": 2} and payload == {"state": "at-2"}
        # The snapshot gap replays fine.
        assert [r.tid for r in feed.iter_records(start=committed)] == [
            2, 3, 4, 5,
        ]
        feed.close()

    def test_drop_group_releases_the_retention_hold(self, tmp_path):
        directory = tmp_path / "feed"
        feed, consumer = self.build(directory)
        feed.consumer("stuck", start="beginning")
        consumer.poll()
        consumer.commit()
        assert len(list((directory / "topics" / "r").glob("*.jsonl"))) == 3
        feed.drop_group("stuck")
        assert not (directory / "consumers" / "stuck.json").exists()
        feed.compact()
        assert len(list((directory / "topics" / "r").glob("*.jsonl"))) == 1
        feed.close()

    def test_writer_rotation_does_not_resurrect_truncated_segments(
        self, tmp_path
    ):
        # Truncation may run in a *consumer* process; when the writer
        # next rotates (and stores its manifest) it must fold that
        # truncation in rather than resurrect the deleted names.
        directory = tmp_path / "feed"
        writer = ChangeFeed(directory, segment_records=2)
        for tid in range(6):
            publish(writer, "r", tid, tid)
        writer.flush()
        consumer_side = ChangeFeed(directory, retention="compact")
        consumer = consumer_side.consumer("g", start="beginning")
        consumer.poll()
        consumer.commit()  # truncates [0, 4) from the consumer process
        manifest = json.loads((directory / MANIFEST).read_text())
        assert manifest["topics"]["r"]["base"] == 4
        for tid in range(6, 9):  # the writer rotates twice more
            publish(writer, "r", tid, tid)
        writer.flush()
        manifest = json.loads((directory / MANIFEST).read_text())
        assert manifest["topics"]["r"]["base"] == 4
        assert manifest["topics"]["r"]["segments"] == [
            "000000000004.jsonl",
            "000000000006.jsonl",
            "000000000008.jsonl",
        ]
        records, _ = consumer.poll()
        assert [r.tid for r in records] == [6, 7, 8]
        writer.close()
        consumer_side.close()

    def test_writer_side_cursor_observes_foreign_truncation_as_lost(
        self, tmp_path
    ):
        # A writer process never re-scans the manifest, so a truncation
        # performed by a consumer process can delete sealed segments an
        # in-writer ephemeral cursor (invisible to the foreign floor
        # scan) still needs.  That must surface as the ordinary
        # ``lost`` fallback -- not a FeedError out of every poll.
        directory = tmp_path / "feed"
        writer = ChangeFeed(directory, segment_records=2)
        stale = writer.consumer()  # ephemeral, at offset 0, never on disk
        for tid in range(6):
            publish(writer, "r", tid, tid)
        writer.flush()
        # Only the active segment (offsets 4-5) stays resident: each
        # rotation dropped its tail, which the sealed file holds, so the
        # poll from offset 0 must read the sealed segments from disk.
        foreign = ChangeFeed(directory, retention="compact")
        consumer = foreign.consumer("g", start="beginning")
        consumer.poll()
        consumer.commit()  # deletes the sealed segments
        foreign.close()

        records, lost = stale.poll()
        assert lost and records == []
        publish(writer, "r", 9, 9)
        writer.flush()
        records, lost = stale.poll()
        assert not lost and [r.tid for r in records] == [9]
        writer.close()

    def test_crash_during_truncation_leaves_a_repairable_manifest(
        self, tmp_path, monkeypatch
    ):
        directory = tmp_path / "feed"
        feed, consumer = self.build(directory)
        consumer.poll()
        consumer.commit()  # commit triggers truncation...
        feed.close()

        # ...but simulate the crash *between* the manifest write and the
        # unlinks by re-creating the deleted segment files from a copy.
        untruncated = tmp_path / "copy"
        feed2, consumer2 = self.build(untruncated)
        feed2.flush()
        for path in sorted((untruncated / "topics" / "r").glob("*.jsonl")):
            target = directory / "topics" / "r" / path.name
            if not target.exists():
                target.write_bytes(path.read_bytes())
        feed2.close()
        assert len(list((directory / "topics" / "r").glob("*.jsonl"))) == 3

        # Reopen: the manifest is authoritative; the orphans are swept.
        reopened = ChangeFeed(directory, segment_records=2)
        assert reopened.end_offsets() == {"r": 6}
        names = sorted(p.name for p in (directory / "topics" / "r").glob("*"))
        assert names == ["000000000004.jsonl"]
        resumed = reopened.consumer("g")
        assert resumed.committed == {"r": 6}
        publish(reopened, "r", 9, 9)  # appends continue past the repair
        assert reopened.end_offsets() == {"r": 7}
        reopened.close()


class TestEphemeralGroups:
    def test_anonymous_cursors_leave_no_disk_state(self, tmp_path):
        directory = tmp_path / "feed"
        with ChangeFeed(directory) as feed:
            consumer = feed.consumer()  # anonymous -> ephemeral
            publish(feed, "r", 0, 0)
            consumer.poll()
            consumer.commit()
            name = consumer.group
        assert not (directory / "consumers" / f"{name}.json").exists()
        # A fresh process's first anonymous cursor reuses the name but
        # must start at the end, not at any previous position.
        reopened = ChangeFeed(directory)
        fresh = reopened.consumer()
        assert fresh.group == name
        assert fresh.poll() == ([], False)

    def test_named_groups_do_persist(self, tmp_path):
        directory = tmp_path / "feed"
        with ChangeFeed(directory) as feed:
            consumer = feed.consumer("replica", start="beginning")
            publish(feed, "r", 0, 0)
            consumer.poll()
            consumer.commit()
        assert (directory / "consumers" / "replica.json").exists()


def segment_names(directory, topic="r"):
    return sorted(p.name for p in (directory / "topics" / topic).glob("*.jsonl"))


class TestSegmentCompaction:
    """``retention="compact"``: partially-consumed sealed segments are
    rewritten down to their surviving suffix, not merely pinned whole."""

    def test_straddling_segment_is_rewritten_on_commit(self, tmp_path):
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory, segment_records=4, retention="compact")
        consumer = feed.consumer("g", start="beginning")
        for tid in range(12):
            publish(feed, "r", tid, tid)  # segments at 0, 4, 8
        consumer.poll(limit=6)
        consumer.commit()
        # [0, 4) is fully consumed -> deleted whole; [4, 8) is consumed
        # up to 6 -> rewritten as [6, 8) under its new start-offset name.
        assert segment_names(directory) == [
            "000000000006.jsonl",
            "000000000008.jsonl",
        ]
        manifest = json.loads((directory / MANIFEST).read_text())
        assert manifest["topics"]["r"]["base"] == 6
        assert manifest["topics"]["r"]["segments"] == [
            "000000000006.jsonl",
            "000000000008.jsonl",
        ]
        # Surviving records keep their original offsets and stay readable.
        assert [r.tid for r in feed.iter_records(start={"r": 6})] == [
            6, 7, 8, 9, 10, 11,
        ]
        with pytest.raises(FeedError, match="no longer retained"):
            list(feed.iter_records(upto={"r": 6}))
        # The feed keeps appending and consuming past the rewrite.
        publish(feed, "r", 12, 12)
        records, lost = consumer.poll()
        assert not lost and [r.tid for r in records] == [6, 7, 8, 9, 10, 11, 12]
        feed.close()

    def test_auto_compaction_has_hysteresis(self, tmp_path):
        # A group inching through a sealed segment must not trigger an
        # O(segment) rewrite per commit: the automatic path waits until
        # at least half a segment is reclaimable.
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory, segment_records=8, retention="compact")
        consumer = feed.consumer("g", start="beginning")
        for tid in range(16):
            publish(feed, "r", tid, tid)  # segments at 0, 8
        consumer.poll(limit=2)
        consumer.commit()  # only 2 of 8 reclaimable: no rewrite
        assert segment_names(directory) == [
            "000000000000.jsonl",
            "000000000008.jsonl",
        ]
        consumer.poll(limit=2)
        consumer.commit()  # 4 of 8 reclaimable: rewrite [4, 8)
        assert segment_names(directory) == [
            "000000000004.jsonl",
            "000000000008.jsonl",
        ]
        feed.close()

    @pytest.mark.parametrize("retention", ["keep", "compact"])
    def test_explicit_compact_reclaims_any_amount(self, tmp_path, retention):
        # compact() on demand (the CLI's `.feed compact`) works on any
        # durable feed -- whatever its configured retention policy --
        # and has no hysteresis: a single reclaimable record counts.
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory, segment_records=4, retention=retention)
        consumer = feed.consumer("g", start="beginning")
        for tid in range(8):
            publish(feed, "r", tid, tid)
        consumer.poll(limit=1)
        consumer.commit()  # 1 of 4: nothing reclaimed automatically
        assert len(segment_names(directory)) == 2
        reclaimed = feed.compact()
        assert reclaimed == {"r": 1}
        assert segment_names(directory) == [
            "000000000001.jsonl",
            "000000000004.jsonl",
        ]
        assert [r.tid for r in feed.iter_records(start={"r": 1})] == list(
            range(1, 8)
        )
        feed.close()

    def test_compacted_segments_serve_reader_instances(self, tmp_path):
        directory = tmp_path / "feed"
        writer = ChangeFeed(directory, segment_records=4, retention="compact")
        reader = ChangeFeed(directory, segment_records=4)
        # Anonymous: invisible to the floor scan, so it can fall behind
        # a reclaim (a *registered* behind group would have pinned it).
        behind = reader.consumer(start="beginning")
        ahead = reader.consumer("ahead", start="beginning")
        for tid in range(12):
            publish(writer, "r", tid, tid)
        writer.flush()
        records, _ = ahead.poll()
        assert [r.tid for r in records] == list(range(12))
        ahead.commit()
        cursor = writer.consumer("g", start="beginning")
        cursor.poll(limit=6)
        cursor.commit()  # compacts to base 6
        # A reader group already past the floor reads on, through the
        # rewritten segment; one behind it observes the ordinary loss.
        publish(writer, "r", 12, 12)
        writer.flush()
        records, lost = ahead.poll()
        assert not lost and [r.tid for r in records] == [12]
        records, lost = behind.poll()
        assert lost and records == []
        writer.close()
        reader.close()

    def test_writer_folds_a_foreign_compaction_into_its_manifest(
        self, tmp_path
    ):
        # Compaction may run in a consumer process; the writer's next
        # rotation must adopt the rewritten start-offset name instead of
        # resurrecting the victim -- or the surviving records would
        # become unreachable through the writer's own manifest.
        directory = tmp_path / "feed"
        writer = ChangeFeed(directory, segment_records=2)
        for tid in range(6):
            publish(writer, "r", tid, tid)  # segments at 0, 2, 4
        writer.flush()
        foreign = ChangeFeed(directory, segment_records=2, retention="compact")
        consumer = foreign.consumer("g", start="beginning")
        consumer.poll(limit=3)
        consumer.commit()  # deletes [0, 2), rewrites [2, 4) -> [3, 4)
        foreign.close()
        assert segment_names(directory) == [
            "000000000003.jsonl",
            "000000000004.jsonl",
        ]
        for tid in range(6, 9):
            publish(writer, "r", tid, tid)  # forces rotations + manifest
        writer.flush()
        manifest = json.loads((directory / MANIFEST).read_text())
        assert manifest["topics"]["r"]["base"] == 3
        assert manifest["topics"]["r"]["segments"] == [
            "000000000003.jsonl",
            "000000000004.jsonl",
            "000000000006.jsonl",
            "000000000008.jsonl",
        ]
        assert [r.tid for r in writer.iter_records(start={"r": 3})] == list(
            range(3, 9)
        )
        writer.close()


class TestOneReclaimRule:
    """What a reclaim rewrites is decided by what it observes: the
    automatic path rewrites once a floor is half a segment into the
    oldest retained segment (an explicit ``compact()`` rewrites any
    amount: ``TestSegmentCompaction``)."""

    def build(self, directory):
        feed = ChangeFeed(directory, segment_records=8, retention="compact")
        consumer = feed.consumer("g", start="beginning")
        for tid in range(24):
            publish(feed, "r", tid, tid)  # sealed segments at 0, 8, 16
        return feed, consumer

    def segment_bytes(self, directory):
        return {
            name: (directory / "topics" / "r" / name).read_bytes()
            for name in segment_names(directory)
        }

    def test_floor_under_half_a_segment_rewrites_nothing(self, tmp_path):
        directory = tmp_path / "feed"
        feed, consumer = self.build(directory)
        before = self.segment_bytes(directory)
        consumer.poll(limit=3)
        consumer.commit()  # 3 of 8 into the oldest segment
        assert self.segment_bytes(directory) == before
        consumer.poll(limit=8)
        consumer.commit()  # [0, 8) passed; 3 of 8 into [8, 16)
        after = self.segment_bytes(directory)
        assert sorted(after) == ["000000000008.jsonl", "000000000016.jsonl"]
        assert all(after[name] == before[name] for name in after)
        (topic,) = feed.topics()
        assert topic.start == 8
        feed.close()

    def test_half_a_segment_rewrites_exactly_that_segment(self, tmp_path):
        directory = tmp_path / "feed"
        feed, consumer = self.build(directory)
        before = self.segment_bytes(directory)
        consumer.poll(limit=12)
        consumer.commit()  # [0, 8) passed; 4 of 8 into [8, 16)
        after = self.segment_bytes(directory)
        assert sorted(after) == ["000000000012.jsonl", "000000000016.jsonl"]
        assert after["000000000016.jsonl"] == before["000000000016.jsonl"]
        manifest = json.loads((directory / MANIFEST).read_text())
        assert manifest["topics"]["r"]["base"] == 12
        assert [r.tid for r in feed.iter_records(start={"r": 12})] == list(
            range(12, 24)
        )
        feed.close()

    def test_truncate_is_not_a_retention_policy(self, tmp_path):
        with pytest.raises(FeedError, match="unknown retention policy"):
            ChangeFeed(tmp_path / "feed", retention="truncate")
        assert not (tmp_path / "feed").exists()
        assert not hasattr(ChangeFeed, "truncate")


class TestCompactionCrashSafety:
    """Crash-mid-compaction repairs to one consistent view on reopen."""

    def build(self, directory, records=10, committed=5):
        with ChangeFeed(directory, segment_records=4) as feed:
            consumer = feed.consumer("g", start="beginning")
            for tid in range(records):
                publish(feed, "r", tid, tid)
            consumer.poll(limit=committed)
            consumer.commit()

    def test_crash_between_rewrite_and_manifest_commit(self, tmp_path):
        directory = tmp_path / "feed"
        self.build(directory)
        feed = ChangeFeed(directory, segment_records=4)

        def boom() -> None:
            raise RuntimeError("crash before the manifest commit")

        feed._log._store_manifest = boom  # the rewrite happened, the commit dies
        with pytest.raises(RuntimeError):
            feed.compact()
        # The failed commit rolled the instance's memory back: it keeps
        # serving the layout the on-disk manifest still names.
        (topic,) = feed.topics()
        assert topic.start == 0
        assert [r.tid for r in feed.iter_records()] == list(range(10))
        # The old manifest still names the old segments; the rewritten
        # temporary (000000000005.jsonl) is an orphan the reopen sweeps.
        assert "000000000005.jsonl" in segment_names(directory)
        reopened = ChangeFeed(directory, segment_records=4)
        assert segment_names(directory) == [
            "000000000000.jsonl",
            "000000000004.jsonl",
            "000000000008.jsonl",
        ]
        # One consistent (old) view: the full history is intact.
        assert [r.tid for r in reopened.iter_records()] == list(range(10))
        resumed = reopened.consumer("g")
        assert resumed.committed == {"r": 5}
        publish(reopened, "r", 10, 10)
        assert reopened.end_offsets() == {"r": 11}
        reopened.close()

    def test_crash_between_manifest_commit_and_unlink(self, tmp_path):
        directory = tmp_path / "feed"
        self.build(directory)
        untouched = {
            name: (directory / "topics" / "r" / name).read_bytes()
            for name in segment_names(directory)
        }
        feed = ChangeFeed(directory, segment_records=4)
        assert feed.compact() == {"r": 5}
        feed.close()
        # Resurrect the unlinked victims: the crash happened after the
        # manifest commit but before the unlinks.
        for name, data in untouched.items():
            path = directory / "topics" / "r" / name
            if not path.exists():
                path.write_bytes(data)
        reopened = ChangeFeed(directory, segment_records=4)
        # The new manifest is authoritative; the victims are swept.
        assert segment_names(directory) == [
            "000000000005.jsonl",
            "000000000008.jsonl",
        ]
        assert [r.tid for r in reopened.iter_records(start={"r": 5})] == list(
            range(5, 10)
        )
        reopened.close()

    @settings(max_examples=25, deadline=None)
    @given(
        records=st.integers(min_value=3, max_value=40),
        committed=st.integers(min_value=1, max_value=40),
        crash=st.sampled_from(["none", "before_manifest", "after_manifest"]),
    )
    def test_crash_mid_compaction_repairs_to_one_view(
        self, tmp_path_factory, records, committed, crash
    ):
        """Whatever the commit point and wherever the crash lands, the
        reopened feed presents one consistent view: a contiguous record
        range [base, end), orphan files swept, committed offsets intact,
        and appends continuing past the repair."""
        committed = min(committed, records)
        directory = tmp_path_factory.mktemp("compact") / "feed"
        self.build(directory, records=records, committed=committed)
        before = {
            name: (directory / "topics" / "r" / name).read_bytes()
            for name in segment_names(directory)
        }
        feed = ChangeFeed(directory, segment_records=4)
        if crash == "before_manifest":
            def boom() -> None:
                raise RuntimeError("crash")

            feed._log._store_manifest = boom
            try:
                feed.compact()
            except RuntimeError:
                pass
        else:
            feed.compact()
            if crash == "after_manifest":
                for name, data in before.items():
                    path = directory / "topics" / "r" / name
                    if not path.exists():
                        path.write_bytes(data)
        feed.close()

        reopened = ChangeFeed(directory, segment_records=4)
        (topic,) = reopened.topics()
        assert topic.end == records
        assert 0 <= topic.start <= committed
        # Orphans are gone: disk holds exactly the manifest's segments.
        manifest = json.loads((directory / MANIFEST).read_text())
        assert segment_names(directory) == sorted(
            manifest["topics"]["r"]["segments"]
        )
        # The retained suffix replays contiguously...
        assert [
            r.tid for r in reopened.iter_records(start={"r": topic.start})
        ] == list(range(topic.start, records))
        # ...the group resumes exactly at its commit...
        resumed = reopened.consumer("g")
        assert resumed.committed == {"r": committed}
        rest, lost = resumed.poll()
        assert not lost and [r.tid for r in rest] == list(
            range(committed, records)
        )
        # ...and the feed keeps accepting appends.
        publish(reopened, "r", records, records)
        assert reopened.end_offsets() == {"r": records + 1}
        reopened.close()


class TestWriterRecovery:
    """``Database(durable=dir)`` reopens after its own retention via
    writer checkpoints (the ISSUE 4 headline regression)."""

    def primary(self, feed):
        db = Database(feed=feed)
        db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
        db.execute("INSERT INTO emp VALUES ('ann', 10), ('ann', 20), ('bob', 5)")
        db.execute("INSERT INTO emp VALUES ('carol', 7), ('dan', 8)")
        db.execute("UPDATE emp SET salary = 9 WHERE name = 'dan'")
        return db

    def test_reopen_after_own_retention_truncated_segments(self, tmp_path):
        # The headline bug: a consumer group commits past the sealed
        # segments, retention deletes them, and before writer-side
        # checkpoints existed the writer's own reopen then raised
        # FeedError out of the full replay.
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory, segment_records=2, retention="compact")
        db = self.primary(feed)
        cut = db.checkpoint()
        db.execute("INSERT INTO emp VALUES ('erin', 3)")
        consumer = feed.consumer("g", start="beginning")
        consumer.poll()
        consumer.commit()  # truncates everything below the checkpoint
        (emp,) = [t for t in feed.topics() if t.name == "emp"]
        assert emp.start > 0  # a full replay is genuinely impossible now
        with pytest.raises(FeedError, match="no longer retained"):
            list(feed.iter_records(upto=feed.end_offsets()))
        expected = dict(db.table("emp").items())
        end = db.changes.end
        feed.close()

        reopened_feed = ChangeFeed(
            directory, segment_records=2, retention="compact"
        )
        restored = Database(feed=reopened_feed)
        assert restored.restore_mode == "snapshot"
        # Only the records published after the checkpoint were replayed.
        assert restored.restore_records == end - sum(cut.values())
        assert dict(restored.table("emp").items()) == expected
        # The restored writer keeps appending where the old one left off.
        restored.execute("INSERT INTO emp VALUES ('fred', 1)")
        assert restored.changes.end == end + 1
        reopened_feed.close()

    def test_truncated_and_never_checkpointed_is_unrecoverable(self, tmp_path):
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory, segment_records=2, retention="compact")
        db = self.primary(feed)
        consumer = feed.consumer("g", start="beginning")
        consumer.poll()
        consumer.commit()
        # The writer's registration pins the history ... until an
        # operator drops it without a checkpoint ever being stored
        # (drop_group itself re-runs retention).
        feed.drop_group(WRITER_GROUP)
        (emp,) = [t for t in feed.topics() if t.name == "emp"]
        assert emp.start > 0  # sealed history is gone for good
        feed.close()

        with pytest.raises(FeedRetentionError, match="no writer checkpoint"):
            Database(feed=ChangeFeed(directory, segment_records=2))

    def test_writer_registration_is_the_retention_floor(self, tmp_path):
        # The satellite bug: a writer-only directory used to compute its
        # truncation floor from whatever consumer groups existed --
        # letting a fully-caught-up group (or an ephemeral engine
        # cursor) truncate history the writer itself still needed.
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory, segment_records=2, retention="compact")
        db = self.primary(feed)
        consumer = feed.consumer("g", start="beginning")
        consumer.poll()
        consumer.commit()  # fully caught up -- but the writer is not
        assert len(segment_names(directory, "emp")) == 4  # nothing died
        assert feed.compact() == {}  # even explicitly
        db.checkpoint()  # the checkpoint *is* the writer's floor
        assert len(segment_names(directory, "emp")) == 1
        feed.close()
        restored = Database(feed=ChangeFeed(directory, segment_records=2))
        assert restored.restore_mode == "snapshot"
        assert dict(restored.table("emp").items()) == dict(
            db.table("emp").items()
        )
        restored.changes.feed.close()

    def test_checkpoint_cadence(self, tmp_path):
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory, segment_records=2, retention="compact")
        db = Database(feed=feed, checkpoint_records=4)
        db.execute("CREATE TABLE r (a INTEGER)")
        assert feed.load_snapshot(WRITER_GROUP) is None
        for i in range(4):
            db.execute(f"INSERT INTO r VALUES ({i})")
        first = feed.load_snapshot(WRITER_GROUP)
        assert first is not None  # cadence reached: auto-checkpointed
        for i in range(4, 8):
            db.execute(f"INSERT INTO r VALUES ({i})")
        second = feed.load_snapshot(WRITER_GROUP)
        assert second[0] != first[0]  # the cut advanced with the writes
        feed.close()
        restored = Database(feed=ChangeFeed(directory, segment_records=2))
        assert restored.restore_mode == "snapshot"
        assert sorted(r[0] for r in restored.table("r").rows()) == list(
            range(8)
        )
        restored.changes.feed.close()

    def test_checkpoint_needs_a_durable_database(self, tmp_path):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError, match="durable"):
            Database().checkpoint()
        with pytest.raises(ExecutionError, match="durable"):
            Database(checkpoint_records=5)

    def test_database_takes_no_retention_argument(self, tmp_path):
        # Retention belongs to the feed: Database(feed=ChangeFeed(dir,
        # retention="compact")) is the one spelling.
        with pytest.raises(TypeError):
            Database(  # type: ignore[call-arg]
                durable=str(tmp_path / "feed"), retention="compact"
            )
        assert not (tmp_path / "feed").exists()

    def test_mixed_case_table_survives_the_checkpoint_path(self, tmp_path):
        # Feed topics are lower-cased relation names while the catalog
        # (and the snapshot's serialized schemas) keep declared case:
        # the snapshot + suffix-replay path must bridge the two.
        directory = tmp_path / "feed"
        feed = ChangeFeed(directory, segment_records=2, retention="compact")
        db = Database(feed=feed)
        db.execute("CREATE TABLE Emp (Name TEXT, Salary INTEGER)")
        db.execute("INSERT INTO Emp VALUES ('ann', 10), ('bob', 20)")
        db.checkpoint()
        db.execute("UPDATE Emp SET Salary = 15 WHERE Name = 'ann'")
        consumer = feed.consumer("g", start="beginning")
        consumer.poll()
        consumer.commit()
        expected = dict(db.table("emp").items())
        feed.close()

        restored = Database(feed=ChangeFeed(directory, segment_records=2))
        assert restored.restore_mode == "snapshot"
        assert restored.catalog.table_names() == ["Emp"]  # case preserved
        # The suffix replay resolved the lower-cased topic onto the
        # mixed-case table, and both spellings look it up.
        assert dict(restored.table("emp").items()) == expected
        assert dict(restored.table("EMP").items()) == expected
        restored.changes.feed.close()
