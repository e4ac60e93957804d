"""Tests for what only the pipe transport does: the persisted
ownership manifest, respawn from the shard checkpoint, and the
heartbeat-timeout supervisor branch.  The protocol itself (handoff
steps, validation, rebalance, dead-worker status, restart) is proved
once for both transports in ``test_handoff.py``.  Uses the ``fork``
start method to keep worker startup cheap; the chaos tier drives kill
schedules."""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.conflicts import (
    Ownership,
    ProcessShardExecutor,
    detect_conflicts,
    load_ownership,
    store_ownership,
)
from repro.constraints import FunctionalDependency
from repro.engine.database import Database
from repro.engine.feed import ChangeFeed
from repro.errors import ExecutorError

TOPICS = ("r", "s", "u", "w")
SKEWED = {"r": 0, "s": 0, "u": 0, "w": 1}


def constraints():
    return [FunctionalDependency(name, ["id"], ["v"]) for name in TOPICS]


def build_writer(directory):
    feed = ChangeFeed(directory)
    db = Database(feed=feed)
    for name in TOPICS:
        db.execute(f"CREATE TABLE {name} (id INTEGER, v INTEGER)")
        db.execute(f"INSERT INTO {name} VALUES (1, 1), (1, 2)")
    feed.flush()
    return feed, db


@pytest.fixture
def writer(tmp_path):
    feed, db = build_writer(tmp_path / "feed")
    yield feed, db
    feed.close()


@pytest.fixture
def make_executor(tmp_path):
    executors = []

    def factory(**overrides):
        options = dict(
            workers=2,
            assignment=SKEWED,
            mp_context="fork",
            heartbeat_timeout=10.0,
        )
        options.update(overrides)
        ex = ProcessShardExecutor(
            tmp_path / "feed", constraints(), **options
        )
        executors.append(ex)
        return ex

    yield factory
    for ex in executors:
        ex.close()


class TestOwnershipManifest:
    def test_roundtrip(self, tmp_path):
        ownership = Ownership(
            workers=3, owner={"a": 0, "b": 2}, epoch=7, group_prefix="pool"
        )
        store_ownership(tmp_path, ownership)
        assert load_ownership(tmp_path) == ownership

    def test_manifest_without_a_group_prefix_still_loads(self, tmp_path):
        # Manifests written before the prefix was recorded.
        (tmp_path / "shards.json").write_text(
            '{"workers":2,"owner":{"a":0},"epoch":4}', encoding="utf-8"
        )
        assert load_ownership(tmp_path) == Ownership(
            workers=2, owner={"a": 0}, epoch=4, group_prefix="shard"
        )

    def test_missing_manifest_is_none(self, tmp_path):
        assert load_ownership(tmp_path) is None

    def test_corrupt_manifest_raises(self, tmp_path):
        (tmp_path / "shards.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(ExecutorError):
            load_ownership(tmp_path)

    def test_executor_seeds_and_persists_the_manifest(
        self, writer, make_executor
    ):
        ex = make_executor()
        ownership = load_ownership(ex.feed.directory)
        assert ownership is not None
        assert ownership.workers == 2 and ownership.epoch == 0
        assert ownership.owner["u"] == 0 and ownership.owner["w"] == 1
        assert ownership.group_prefix == "shard"

    def test_reattach_prefers_the_manifest_over_ctor_args(
        self, writer, make_executor
    ):
        ex = make_executor()
        ex.handoff("u", 1)
        ex.close()
        # A fresh executor with *different* ctor hints must follow the
        # persisted manifest: workers stays 2, u stays with worker 1.
        again = make_executor(workers=7, assignment=None)
        assert len(again.plan.shards) == 2
        assert again.plan.topic_owner["u"] == 1
        assert load_ownership(again.feed.directory).epoch == 1


@pytest.mark.slow
class TestSupervision:
    def test_supervise_respawns_from_the_checkpoint(
        self, writer, make_executor
    ):
        feed, db = writer
        ex = make_executor()
        ex.drain()
        ex.checkpoint()
        for i in range(3):
            db.execute(f"INSERT INTO w VALUES ({i}, {80 + i})")
        feed.flush()
        ex.kill(1)
        events = ex.supervise()
        assert [e.index for e in events] == [1]
        ex.drain()
        respawned = [row for row in ex.status() if row.index == 1][0]
        assert respawned.alive and respawned.respawns == 1
        assert respawned.restore_mode == "snapshot"
        assert respawned.applied_records.get("w", 0) == 3
        expected = detect_conflicts(db, constraints()).hypergraph.as_dict()
        assert ex.graph.as_dict() == expected

    def test_supervise_kills_and_respawns_a_hung_worker(
        self, writer, make_executor
    ):
        # A live process that stopped heartbeating (SIGSTOP: it neither
        # exits nor answers) is declared hung, SIGKILLed and respawned.
        feed, db = writer
        ex = make_executor(heartbeat_timeout=0.5)
        ex.drain()
        ex.checkpoint()
        hung = ex.status()[1].pid
        os.kill(hung, signal.SIGSTOP)
        try:
            for i in range(3):
                db.execute(f"INSERT INTO w VALUES ({i}, {90 + i})")
            feed.flush()
            ex.supervise()  # consumes the beats queued before the stop
            time.sleep(0.7)
            events = ex.supervise()
        finally:
            try:
                os.kill(hung, signal.SIGCONT)
            except ProcessLookupError:
                pass  # already SIGKILLed and reaped: the expected path
        assert [(e.index, e.reason) for e in events] == [
            (1, "heartbeat-timeout")
        ]
        ex.drain()
        respawned = ex.status()[1]
        assert respawned.alive and respawned.respawns == 1
        assert respawned.pid != hung
        expected = detect_conflicts(db, constraints()).hypergraph.as_dict()
        assert ex.graph.as_dict() == expected
