"""The memory kind never touches the file system.

``ChangeFeed()`` picks a memory log and an in-memory group store once,
at construction; from then on no code path of the feed may reach a file
API.  The test makes every such API raise and then drives the whole
in-process stack -- writer, engine, replica, and a two-worker shard
coordinator through a handoff -- over one in-memory feed.
"""

import builtins
import os
from pathlib import Path

from repro import HippoEngine
from repro.conflicts import ReplicaHypergraph, ShardCoordinator, detect_conflicts
from repro.constraints import FunctionalDependency
from repro.engine.database import Database

FILE_APIS = [
    (builtins, "open"),
    (os, "fsync"),
    (os, "replace"),
    (os, "rename"),
    (Path, "mkdir"),
    (Path, "open"),
    (Path, "read_text"),
    (Path, "read_bytes"),
    (Path, "exists"),
    (Path, "stat"),
    (Path, "glob"),
    (Path, "unlink"),
]


def test_in_memory_stack_runs_with_every_file_api_refusing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("file-system call on an in-memory feed")

    constraints = [
        FunctionalDependency(name, ["id"], ["v"]) for name in ("r", "s")
    ]
    with monkeypatch.context() as patch:
        for owner, name in FILE_APIS:
            patch.setattr(owner, name, refuse)
        db = Database()
        feed = db.changes.feed
        assert not feed.durable and feed.directory is None
        # Attach every consumer before the first write: an in-memory
        # feed retains nothing until somebody listens.
        replica = ReplicaHypergraph(feed, constraints, group="replica")
        shards = ShardCoordinator(
            feed, constraints, workers=2, assignment={"r": 0, "s": 1}
        )
        for name in ("r", "s"):
            db.execute(f"CREATE TABLE {name} (id INTEGER, v INTEGER)")
            db.execute(f"INSERT INTO {name} VALUES (1, 1), (1, 2), (2, 5)")
        engine = HippoEngine(db, constraints)

        def converged() -> dict:
            expected = detect_conflicts(db, constraints).hypergraph.as_dict()
            engine.refresh()
            replica.sync()
            shards.drain()
            assert engine.hypergraph.as_dict() == expected
            assert replica.graph.as_dict() == expected
            assert shards.graph.as_dict() == expected
            return expected

        assert len(converged()) == 2
        assert engine.consistent_answers("SELECT * FROM r").rows == [(2, 5)]
        db.execute("UPDATE s SET v = 1 WHERE id = 1")
        db.execute("DELETE FROM r WHERE v = 2")
        db.execute("INSERT INTO r VALUES (2, 6)")
        assert len(converged()) == 1
        # Handoff: the releaser's snapshot lives in the instance, the
        # resubscriptions in the in-memory registrations.
        report = shards.handoff("s", 0)
        assert [t.topic for t in report.reshapes[0].added] == ["s"]
        assert report.reshapes[0].added[0].mode == "snapshot"
        assert report.plan.topic_owner["s"] == 0
        points = feed.recovery_points()
        assert "s" in points["shard-0"].floor
        assert "s" not in points["shard-1"].floor
        db.execute("INSERT INTO s VALUES (2, 7), (2, 8)")
        assert len(converged()) == 4  # r: one pair; s: three among id 2
        answers = engine.consistent_answers("SELECT * FROM s")
        assert set(answers.rows) == {(1, 1)}
        feed.flush()
        assert feed.compact() == {}
        replica.close()
        shards.close()
        feed.close()
