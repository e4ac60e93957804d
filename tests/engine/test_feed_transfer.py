"""Tests for the handoff primitives: resubscription and abandoned
consumers.

These are the feed-level halves of shard handoff: a topic moves between
consumer groups as a *resubscription pair* (the adopter pins the topic
at its donor's snapshot cut before the releaser drops it), while the
releaser's own snapshot pins the suffix in between.  The
kind-independent half (resubscription semantics, snapshot round trip)
is in ``test_feed_contract.py``; here is what needs a directory.
"""

from __future__ import annotations

from repro.engine.database import Database
from repro.engine.feed import ChangeFeed


def build(directory, statements):
    feed = ChangeFeed(directory)
    db = Database(feed=feed)
    for statement in statements:
        db.execute(statement)
    feed.flush()
    return feed, db

SETUP = [
    "CREATE TABLE a (id INTEGER)",
    "CREATE TABLE b (id INTEGER)",
    "INSERT INTO a VALUES (1), (2)",
    "INSERT INTO b VALUES (1)",
]


class TestUpdateSubscription:
    def test_adding_a_topic_pins_it_at_the_given_position(self, tmp_path):
        feed, db = build(tmp_path / "f", SETUP)
        reader = ChangeFeed(tmp_path / "f")
        consumer = reader.consumer("g", topics=("a", "_schema"))
        list(consumer.poll())
        consumer.commit()
        merged = consumer.resubscribe(("a", "b", "_schema"), {"b": 1})
        assert merged["b"] == 1
        point = reader.recovery_points()["g"]
        assert point.topics is not None and "b" in point.topics
        assert point.committed["b"] == 1
        reader.close()
        feed.close()

    def test_dropping_a_topic_releases_its_registration(self, tmp_path):
        feed, db = build(tmp_path / "f", SETUP)
        reader = ChangeFeed(tmp_path / "f")
        consumer = reader.consumer("g", topics=("a", "b", "_schema"))
        list(consumer.poll())
        consumer.commit()
        merged = consumer.resubscribe(("a", "_schema"))
        assert "b" not in merged
        point = reader.recovery_points()["g"]
        assert point.topics is not None and "b" not in point.topics
        assert "b" not in point.committed
        reader.close()
        feed.close()

    def test_existing_committed_wins_over_fresh_position(self, tmp_path):
        # Re-applying a resubscription must be idempotent: the group's
        # own committed offset is never rewound by the fresh position.
        feed, db = build(tmp_path / "f", SETUP)
        reader = ChangeFeed(tmp_path / "f")
        consumer = reader.consumer("g", topics=("a", "b", "_schema"))
        list(consumer.poll())
        consumer.commit()
        before = dict(consumer.committed)
        merged = consumer.resubscribe(("a", "b", "_schema"), {"a": 0})
        assert merged["a"] == before["a"]
        reader.close()
        feed.close()

    def test_survives_a_fresh_feed_instance(self, tmp_path):
        # The durable half: a foreign process's retention scan sees the
        # updated registration.
        feed, db = build(tmp_path / "f", SETUP)
        reader = ChangeFeed(tmp_path / "f")
        consumer = reader.consumer("g", topics=("a", "_schema"))
        list(consumer.poll())
        consumer.commit()
        consumer.resubscribe(("a", "b", "_schema"), {"b": 1})
        reader.close()
        fresh = ChangeFeed(tmp_path / "f")
        point = fresh.recovery_points()["g"]
        assert point.topics == frozenset({"a", "b", "_schema"})
        fresh.close()
        feed.close()


class TestAbandonedConsumers:
    def test_abandon_keeps_the_registration(self, tmp_path):
        # abandon() simulates a crash: the consumer object is dead, but
        # the durable registration -- and so the retention floor and
        # the lag accounting -- survives.
        feed, db = build(tmp_path / "f", SETUP)
        reader = ChangeFeed(tmp_path / "f")
        consumer = reader.consumer("g", topics=("a", "_schema"))
        list(consumer.poll())
        consumer.commit()
        consumer.abandon()
        assert consumer.closed
        assert "g" in reader.recovery_points()
        db.execute("INSERT INTO a VALUES (9)")
        feed.flush()
        fresh = ChangeFeed(tmp_path / "f")
        point = fresh.recovery_points()["g"]
        fresh.close()
        lag = sum(
            max(end - point.committed.get(name, 0), 0)
            for name, end in feed.end_offsets().items()
            if point.topics is None or name in point.topics
        )
        assert lag == 1  # the crashed group shows as lagging, not gone
        reader.close()
        feed.close()
