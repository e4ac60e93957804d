"""Targeted fault injection: one SIGKILL at each pipeline phase.

Each test arms exactly one kill -- mid-apply, mid-checkpoint, and at
the four interesting points of the handoff protocol (before/after the
ownership commit, releaser-side and adopter-side) -- and then proves
the system converges: one supervision pass respawns the victim from
its last shard checkpoint, survivors reconcile, and the merged shard
view equals the monolithic oracle at the next aligned cut.
"""

from __future__ import annotations

import pytest

from repro.conflicts import load_ownership
from repro.errors import ExecutorError

pytestmark = pytest.mark.slow


def write_more(db, feed, count: int = 8) -> None:
    for i in range(count):
        db.execute(f"INSERT INTO u VALUES ({i % 3}, {100 + i})")
    feed.flush()


class TestPipelineKills:
    def test_kill_mid_apply_recovers_exactly_once(
        self, writer, make_executor, kill_at, monolith
    ):
        feed, db = writer
        # Records are applied to the victim's database, then it dies
        # *before* committing the offsets.  The respawned worker must
        # not double-count them: it rebuilds from its checkpoint cut.
        ex = make_executor(fault_hooks=kill_at(0, "apply"))
        with pytest.raises(ExecutorError):
            ex.drain()
        events = ex.supervise()
        assert [e.index for e in events] == [0]
        ex.drain()
        assert all(r.lag == 0 for r in ex.status())
        assert ex.graph.as_dict() == monolith()

    def test_kill_mid_checkpoint_keeps_previous_checkpoint(
        self, writer, make_executor, kill_at, monolith, settle
    ):
        feed, db = writer
        ex = make_executor(fault_hooks=kill_at(0, "checkpoint", after=1))
        ex.drain()
        ex.checkpoint()  # first checkpoint survives (after=1)
        write_more(db, feed)
        ex.drain()
        with pytest.raises(ExecutorError):
            ex.checkpoint()  # second one dies mid-store
        events = ex.supervise()
        assert [e.index for e in events] == [0]
        rows = settle(ex)
        victim = [r for r in rows if r.index == 0][0]
        # Respawned from the surviving (first) checkpoint, not replayed
        # from scratch.
        assert victim.restore_mode == "snapshot"
        assert ex.graph.as_dict() == monolith()


class TestHandoffKills:
    def test_kill_releaser_before_ownership_commit(
        self, writer, make_executor, kill_at, monolith, settle
    ):
        feed, db = writer
        # The releaser dies right after its release checkpoint --
        # before the grant.  Ownership must NOT move.
        ex = make_executor(fault_hooks=kill_at(0, "release", topic="u"))
        ex.drain()
        with pytest.raises(ExecutorError):
            ex.handoff("u", 1)
        ownership = load_ownership(ex.feed.directory)
        assert ownership is not None and ownership.owner["u"] == 0
        assert ownership.epoch == 0
        settle(ex)
        assert ex.graph.as_dict() == monolith()
        # The respawned releaser retries the handoff successfully.
        report = ex.handoff("u", 1)
        assert load_ownership(ex.feed.directory).owner["u"] == 1
        assert any(
            resume.topic == "u"
            for reshape in report.reshapes.values()
            for resume in reshape.added
        )
        ex.drain()
        assert ex.graph.as_dict() == monolith()
        points = ex.feed.recovery_points()
        assert "u" not in points["shard-0"].floor
        assert "u" in points["shard-1"].floor

    def test_kill_adopter_after_ownership_commit(
        self, writer, make_executor, monolith, settle
    ):
        feed, db = writer
        # Parent-side kill between the grant (shards.json persisted)
        # and the adopter's reshape: ownership HAS moved; supervision
        # must finish the adoption from the releaser's snapshot, which
        # pins the suffix until then.
        ex = make_executor()
        ex.drain()

        def on_step(step: str) -> None:
            if step == "granted":
                ex.kill(1)

        with pytest.raises(ExecutorError):
            ex.handoff("u", 1, on_step=on_step)
        assert load_ownership(ex.feed.directory).owner["u"] == 1
        # The releaser still holds u: its snapshot pins the suffix.
        assert "u" in ex.feed.recovery_points()["shard-0"].floor
        events = ex.supervise()
        assert [e.index for e in events] == [1]
        rows = settle(ex)
        adopter = [r for r in rows if r.index == 1][0]
        assert "u" in adopter.committed
        assert ex.graph.as_dict() == monolith()
        # Let go once the adoption stuck.
        assert "u" not in ex.feed.recovery_points()["shard-0"].floor

    def test_kill_adopter_mid_adopt_after_resubscribe(
        self, writer, make_executor, kill_at, monolith, settle
    ):
        feed, db = writer
        # The adopter dies inside reshape, *after* its durable
        # resubscription but before its first checkpoint of the topic:
        # the nastiest interleaving -- its registration already claims
        # the topic, its snapshot does not cover it.
        ex = make_executor(fault_hooks=kill_at(1, "adopt", topic="u"))
        ex.drain()
        with pytest.raises(ExecutorError):
            ex.handoff("u", 1)
        assert load_ownership(ex.feed.directory).owner["u"] == 1
        settle(ex)
        assert ex.graph.as_dict() == monolith()
        write_more(db, feed)
        settle(ex)
        assert ex.graph.as_dict() == monolith()
        points = ex.feed.recovery_points()
        assert "u" not in points["shard-0"].floor
        assert "u" in points["shard-1"].floor

    def test_survivor_prune_completes_after_adopter_crash(
        self, writer, make_executor, kill_at, settle
    ):
        feed, db = writer
        # After the crashed handoff converges, the old owner must have
        # pruned the moved topic: rows dropped, floor released.
        ex = make_executor(fault_hooks=kill_at(1, "adopt", topic="u"))
        ex.drain()
        with pytest.raises(ExecutorError):
            ex.handoff("u", 1)
        settle(ex)
        rows = ex.status()
        old_owner = [r for r in rows if r.index == 0][0]
        assert "u" not in old_owner.committed
        assert "u" not in ex.feed.recovery_points()["shard-0"].floor
