"""Regression tests for resource leaks found by hippolint HL013.

Each scenario here pins a fix for a real exception-path leak: a handle
acquired, then orphaned when a later step raised.  The fakes fail at
exactly the step that used to strand the resource and the tests assert
the resource is released anyway.
"""

import pytest

from repro.conflicts import ReplicaHypergraph
from repro.core.hippo import HippoEngine
from repro.engine.database import Database
from repro.engine.feed import ChangeFeed, FeedConsumer


class FakeWriter:
    """A duck-typed segment writer that fails at a chosen step."""

    def __init__(self, fail: str = "flush") -> None:
        self.fail = fail
        self.closed = False

    def flush(self) -> None:
        if self.fail == "flush":
            raise OSError("disk full")

    def fileno(self) -> int:
        # -1 makes the subsequent os.fsync raise EBADF.
        return -1 if self.fail == "fsync" else 0

    def close(self) -> None:
        self.closed = True


# --------------------------------------------------- feed writer handles


def test_close_still_closes_writer_when_flush_fails(tmp_path):
    feed = ChangeFeed(tmp_path)
    writer = FakeWriter(fail="flush")
    feed._log._writers["changes"] = writer
    with pytest.raises(OSError):
        feed.close()
    assert writer.closed
    assert feed._log._writers == {}


def test_close_still_closes_writer_when_fsync_fails(tmp_path):
    feed = ChangeFeed(tmp_path)
    writer = FakeWriter(fail="fsync")
    feed._log._writers["changes"] = writer
    with pytest.raises((OSError, ValueError)):
        feed.close()
    assert writer.closed


def test_rotate_still_closes_popped_writer_when_flush_fails(tmp_path):
    # _seal pops the writer first; a failed flush/fsync used to
    # strand the popped handle with nothing referencing it.
    log = ChangeFeed(tmp_path)._log
    writer = FakeWriter(fail="flush")
    log._writers["changes"] = writer
    with pytest.raises(OSError):
        log._seal("changes")
    assert writer.closed
    assert "changes" not in log._writers
    assert "changes" not in log._active_counts


# ----------------------------------------------- consumer registrations


def test_failed_replica_bootstrap_releases_the_group(monkeypatch):
    feed = ChangeFeed()

    def explode(self):
        raise RuntimeError("bootstrap failed")

    monkeypatch.setattr(ReplicaHypergraph, "_bootstrap", explode)
    with pytest.raises(RuntimeError):
        ReplicaHypergraph(feed, [], group="replica")
    # The half-built replica must not pin feed retention via a
    # registered-but-dead consumer group.
    assert "replica" not in feed.groups()


def test_failed_engine_detection_releases_the_consumer(monkeypatch):
    db = Database()
    feed = db.changes.feed
    before = set(feed.groups())

    def explode(self):
        raise RuntimeError("seek failed")

    monkeypatch.setattr(FeedConsumer, "seek_to_end", explode)
    with pytest.raises(RuntimeError):
        HippoEngine(db, [])
    assert set(feed.groups()) == before


def test_replica_bootstrap_success_keeps_the_group():
    feed = ChangeFeed()
    replica = ReplicaHypergraph(feed, [], group="replica")
    assert "replica" in feed.groups()
    replica.close()
    assert "replica" not in feed.groups()
