"""Tests for topic handoff: worker release/reshape and the let-go
rule, the rebalance chooser, and -- over *both* worker transports --
the coordinator's four-step protocol, re-opening mid-handoff,
rebalance, dead-worker status accounting and restart.  The ``coordinator`` fixture builds the same
:class:`ShardCoordinator` state machine over in-process workers
(tier-1) and over one OS process per worker (``slow`` tier), so every
case below proves one protocol, not one copy of it."""

from __future__ import annotations

import pytest

from repro.conflicts import (
    HandoffReport,
    ProcessShardExecutor,
    ShardCoordinator,
    choose_move,
    detect_conflicts,
    plan_assignment,
)
from repro.constraints import FunctionalDependency
from repro.engine.database import WRITER_GROUP, Database
from repro.engine.feed import ChangeFeed
from repro.errors import ConstraintError, ExecutorError, FeedError


def fd(relation):
    return FunctionalDependency(relation, ["id"], ["v"])


FOUR_TOPICS = ("r", "s", "u", "w")


def build_primary(directory, hot=12, quiet_w=False, **feed_options):
    feed = ChangeFeed(directory, **feed_options)
    db = Database(feed=feed)
    for name in FOUR_TOPICS:
        db.execute(f"CREATE TABLE {name} (id INTEGER, v INTEGER)")
        if name != "w" or not quiet_w:
            db.execute(f"INSERT INTO {name} VALUES (1, 1), (1, 2)")
    for i in range(hot):  # skew topic u
        db.execute(f"INSERT INTO u VALUES ({i % 3}, {i})")
    feed.flush()
    return feed, db


def constraints():
    return [fd(name) for name in FOUR_TOPICS]


SKEWED = {"r": 0, "s": 0, "u": 0, "w": 1}


def skewed_coordinator(feed):
    return ShardCoordinator(feed, constraints(), workers=2, assignment=SKEWED)


def monolith(db):
    return detect_conflicts(db, constraints()).hypergraph.as_dict()


@pytest.fixture(
    params=["local", pytest.param("pipe", marks=pytest.mark.slow)]
)
def transport(request):
    return request.param


@pytest.fixture
def primary(tmp_path):
    """Builds the writer (feed, db) under ``tmp_path / "f"`` on demand
    (so a test picks the skew) and closes the feed at teardown."""
    feeds = []

    def build(**kwargs):
        feed, db = build_primary(tmp_path / "f", **kwargs)
        feeds.append(feed)
        return feed, db

    yield build
    for feed in feeds:
        feed.close()


@pytest.fixture
def coordinator(tmp_path, transport):
    """Factory for the skewed 2-worker coordinator over the writer's
    feed, on the transport under test; closed at teardown."""
    made = []

    def build(feed, assignment=SKEWED):
        # A process executor re-opened on the directory follows its
        # persisted shards.json, not ``assignment``.
        if transport == "local":
            made.append(
                ShardCoordinator(
                    feed, constraints(), workers=2, assignment=assignment
                )
            )
        else:
            made.append(
                ProcessShardExecutor(
                    tmp_path / "f",
                    constraints(),
                    workers=2,
                    assignment=assignment,
                    mp_context="fork",
                )
            )
        return made[-1]

    yield build
    for built in made:
        built.close()


class TestChooseMove:
    def plan(self):
        return plan_assignment(
            constraints(), 2, assignment={"r": 0, "s": 0, "u": 0, "w": 1}
        )

    def test_moves_a_topic_from_heavy_to_light(self):
        move = choose_move(
            self.plan(),
            [{}, {}],
            {"r": 2, "s": 2, "u": 20, "w": 0},
        )
        assert move is not None
        assert move.topic == "u" and (move.source, move.target) == (0, 1)
        assert move.skew_after < move.skew_before

    def test_balanced_load_proposes_nothing(self):
        ends = {"r": 4, "s": 4, "u": 4, "w": 12}
        assert choose_move(self.plan(), [{}, {}], ends) is None

    def test_threshold_suppresses_small_skew(self):
        ends = {"r": 2, "s": 2, "u": 6, "w": 2}
        assert choose_move(self.plan(), [{}, {}], ends, threshold=50) is None

    def test_committed_offsets_reduce_pending_lag(self):
        # Worker 0 already consumed u: no pending lag, no move.
        committed = [{"r": 2, "s": 2, "u": 20}, {"w": 2}]
        ends = {"r": 2, "s": 2, "u": 20, "w": 2}
        assert choose_move(self.plan(), committed, ends) is None

    def test_edge_counts_contribute_to_load(self):
        ends = {"r": 0, "s": 0, "u": 4, "w": 0}
        move = choose_move(
            self.plan(), [{}, {}], ends, edges=[30, 0]
        )
        assert move is not None and move.source == 0

    def test_picks_the_skew_minimizing_topic(self):
        # s (4 pending) equalizes exactly; r (0 pending) changes
        # nothing and u (6 pending) overshoots -- s wins.
        move = choose_move(
            self.plan(), [{}, {}], {"r": 0, "s": 4, "u": 6, "w": 2}
        )
        assert move is not None and move.topic == "s"
        assert move.skew_after == 0

    def test_edge_skew_changes_the_lag_only_advice(self):
        # The CLI's dry-run advisor reads lag from disk and passes no
        # edge counts; the live trigger passes both.  Under edge skew
        # the two pick different moves.
        ends = {"r": 4, "s": 0, "u": 10, "w": 2}
        lag_only = choose_move(self.plan(), [{}, {}], ends)
        weighted = choose_move(self.plan(), [{}, {}], ends, edges=[0, 30])
        assert lag_only is not None and weighted is not None
        assert (lag_only.topic, lag_only.source, lag_only.target) == (
            "r", 0, 1,
        )
        assert (weighted.topic, weighted.source, weighted.target) == (
            "w", 1, 0,
        )

    def test_deterministic_tie_breaks(self):
        plan = self.plan()
        ends = {"r": 6, "s": 6, "u": 6, "w": 2}
        first = choose_move(plan, [{}, {}], ends)
        again = choose_move(plan, [{}, {}], ends)
        assert first == again


MOVED_U = {"r": 0, "s": 0, "u": 1, "w": 1}


def reclaimed_primary(directory):
    """The writer over a compacting feed whose topic u lost its prefix
    (every floor moved past it), plus its skewed coordinator."""
    feed, db = build_primary(directory, segment_records=2, retention="compact")
    coordinator = skewed_coordinator(feed)
    coordinator.drain()
    coordinator.checkpoint()
    db.checkpoint()
    (u,) = [t for t in feed.topics() if t.name == "u"]
    assert u.start > 0
    return feed, db, coordinator


class TestWorkerReleaseReshape:
    def test_release_checkpoints_the_topic_at_the_committed_cut(
        self, tmp_path
    ):
        feed, db = build_primary(tmp_path / "f")
        coordinator = skewed_coordinator(feed)
        coordinator.drain()
        owner = coordinator.workers[0]
        assert feed.recovery_points()["shard-0"].snapshot is None
        coordinator.transport.request(0, "release", topic="u")
        point = feed.recovery_points()["shard-0"]
        assert point.snapshot is not None
        assert point.snapshot["u"] == owner.committed["u"]
        committed, payload = feed.load_snapshot("shard-0")
        assert committed == point.snapshot
        # The group snapshot carries rows for the released topic.
        (u,) = [e for e in payload["tables"] if e["schema"]["name"] == "u"]
        assert u["rows"]
        coordinator.close()
        feed.close()

    def test_adopting_without_a_donor_over_a_reclaimed_prefix_raises(
        self, tmp_path
    ):
        feed, db, coordinator = reclaimed_primary(tmp_path / "f")
        # Nobody else holds u: not the writer, not its old owner.
        coordinator.kill(0)
        feed.drop_group("shard-0")
        feed.drop_group(WRITER_GROUP)
        plan = plan_assignment(constraints(), 2, assignment=MOVED_U)
        adopter = coordinator.workers[1]
        with pytest.raises(FeedError, match="no other group's snapshot"):
            adopter.reshape(plan.shards[1], plan)
        assert "u" not in (adopter.topics or ())
        coordinator.close()
        feed.close()

    def test_reshape_resumes_from_the_releasers_snapshot(self, tmp_path):
        feed, db = build_primary(tmp_path / "f")
        coordinator = skewed_coordinator(feed)
        coordinator.drain()
        coordinator.transport.request(0, "release", topic="u")
        # Write a suffix past the cut before the adopter reshapes.
        for i in range(4):
            db.execute(f"INSERT INTO u VALUES ({i}, {50 + i})")
        feed.flush()
        new_plan = plan_assignment(constraints(), 2, assignment=MOVED_U)
        adopter = coordinator.workers[1]
        reshape = adopter.reshape(new_plan.shards[1], new_plan)
        (resume,) = [r for r in reshape.added if r.topic == "u"]
        assert resume.mode == "snapshot"
        assert resume.end - resume.cut == 4  # only the suffix remains
        while adopter.lag:
            adopter.sync()
        replayed = adopter.applied_records["u"] - resume.baseline
        assert replayed == 4  # == retained suffix, not full history
        coordinator.close()
        feed.close()

    def test_releaser_keeps_a_topic_nobody_else_can_give_back(
        self, tmp_path
    ):
        feed, db, coordinator = reclaimed_primary(tmp_path / "f")
        feed.drop_group(WRITER_GROUP)  # the writer is no donor either
        plan = plan_assignment(constraints(), 2, assignment=MOVED_U)
        releaser, adopter = coordinator.workers
        # Pruned before the adopter covered u: letting go now would
        # strand u's reclaimed prefix with nobody able to give it back.
        held = releaser.reshape(plan.shards[0], plan)
        assert held.dropped == ()
        assert "u" in feed.recovery_points()["shard-0"].floor
        adopted = adopter.reshape(plan.shards[1], plan)
        assert [(r.topic, r.mode) for r in adopted.added] == [
            ("u", "snapshot")
        ]
        # The adopter's checkpoint makes it a donor: now u can go.
        released = releaser.reshape(plan.shards[0], plan)
        assert released.dropped == ("u",)
        assert "u" not in feed.recovery_points()["shard-0"].floor
        assert not dict(releaser.db.table("u").items())
        coordinator.drain()
        assert coordinator.graph.as_dict() == monolith(db)
        coordinator.close()
        feed.close()

    def test_adopter_behind_on_schema_catches_up_before_adopting(
        self, tmp_path
    ):
        # Regression: a snapshot restores its group's whole catalog.
        # An adopter that had not consumed ``_schema`` yet (here: never
        # synced; in the chaos tier: respawned after dying before its
        # first commit) then replayed CREATE TABLE for tables it
        # already had and crash-looped.
        feed, db = build_primary(tmp_path / "f")
        coordinator = skewed_coordinator(feed)
        releaser = coordinator.workers[0]
        while releaser.lag:
            releaser.sync()
        assert coordinator.workers[1].lag > 0  # the adopter lags
        coordinator.handoff("u", 1)
        coordinator.drain()
        assert coordinator.graph.as_dict() == monolith(db)
        coordinator.close()
        feed.close()


class TestCoordinatorHandoff:
    def test_drain_reaches_an_aligned_cut(self, primary, coordinator):
        feed, db = primary()
        shards = coordinator(feed)
        # Records consumed, on both shapes.  In-process workers attach
        # undrained; worker processes sync on their own, so the explicit
        # drain may find nothing left.
        consumed = shards.drain()
        assert consumed > 0 if shards.workers else consumed >= 0
        assert shards.lag == 0
        assert shards.graph.as_dict() == monolith(db)
        rows = shards.status()
        assert all(row.alive and row.lag == 0 for row in rows)
        assert {t for row in rows for t in row.owned} == set(FOUR_TOPICS)
        assert [row.group for row in rows] == ["shard-0", "shard-1"]

    def test_four_step_protocol_preserves_equivalence(
        self, primary, coordinator
    ):
        feed, db = primary()
        shards = coordinator(feed)
        shards.drain()
        assert shards.graph.as_dict() == monolith(db)
        for i in range(4):  # a suffix the adopter must NOT re-bootstrap
            db.execute(f"INSERT INTO u VALUES ({i}, {40 + i})")
        feed.flush()
        steps = []
        report = shards.handoff("u", 1, on_step=steps.append)
        assert steps == ["released", "granted", "adopted", "pruned"]
        assert isinstance(report, HandoffReport)
        assert report.plan is shards.plan
        assert shards.plan.topic_owner["u"] == 1
        (resume,) = [r for r in report.reshapes[1].added if r.topic == "u"]
        assert resume.mode == "snapshot"
        assert resume.cut > 0  # resumed from the cut: no re-bootstrap
        if shards.workers:
            # In-process workers do not sync on their own, so the cut
            # sits exactly before the suffix.
            assert resume.end - resume.cut == 4
        assert report.reshapes[0].dropped == ("u",)
        shards.drain()
        assert shards.graph.as_dict() == monolith(db)
        # The adopter replayed exactly the retained suffix past its cut
        # (a worker process may have consumed the suffix before the
        # release, which moves the cut, not the invariant).
        adopter = shards.status()[1]
        assert (
            adopter.applied_records.get("u", 0) - resume.baseline
            == resume.end - resume.cut
        )
        # The old owner's rows and floor are gone.
        for worker in shards.workers[:1]:  # in-process workers only
            assert not dict(worker.db.table("u").items())
        old_owner, new_owner = shards.status()
        assert "u" not in old_owner.committed
        assert "u" in new_owner.committed
        points = feed.recovery_points()
        assert "u" not in points["shard-0"].floor
        assert "u" in points["shard-1"].floor

    def test_handoff_to_current_owner_is_a_no_op(self, primary, coordinator):
        feed, db = primary()
        shards = coordinator(feed)
        shards.drain()
        steps = []
        report = shards.handoff("u", 0, on_step=steps.append)
        assert steps == [] and report.reshapes == {}
        assert report.plan is shards.plan

    def test_handoff_validates_inputs(self, primary, coordinator):
        # Bad *input* is a ConstraintError on both shapes; ExecutorError
        # stays reserved for dead, hung or failed workers.
        feed, db = primary()
        shards = coordinator(feed)
        shards.drain()
        with pytest.raises(ConstraintError):
            shards.handoff("nope", 1)
        with pytest.raises(ConstraintError):
            shards.handoff("u", 9)
        assert shards.epoch == 0  # nothing was granted

    def test_rebalance_moves_the_hot_topic(self, primary, coordinator):
        feed, db = primary(hot=30, quiet_w=True)
        shards = coordinator(feed)
        if shards.workers:
            # In-process workers are attached but NOT drained: topic
            # u's lag dominates.
            assert shards.lag > 0
        move = shards.rebalance()
        for _ in range(5):
            if move is not None:
                break
            # Worker processes sync on their own, so the boot-time skew
            # may be gone already: append fresh skew until the trigger
            # observes it before the owner consumes it.
            for i in range(30):
                db.execute(f"INSERT INTO u VALUES ({i % 3}, {100 + i})")
            feed.flush()
            move = shards.rebalance()
        assert move is not None and move.topic == "u"
        assert (move.source, move.target) == (0, 1)
        assert shards.plan.topic_owner["u"] == move.target
        shards.drain()
        assert shards.graph.as_dict() == monolith(db)

    def test_crash_after_the_grant_over_a_reclaimed_prefix_converges(
        self, primary, coordinator
    ):
        # The handoff dies right after its ownership commit, and topic
        # u's prefix is already reclaimed.  The restarted adopter must
        # boot under its registered subscription and adopt u from the
        # releaser's snapshot -- on both transports, which attach
        # workers through one routine.
        feed, db = primary(segment_records=2, retention="compact")
        shards = coordinator(feed)
        shards.drain()
        shards.checkpoint()
        db.checkpoint()  # every floor moved: u's sealed prefix goes
        (u,) = [t for t in feed.topics() if t.name == "u"]
        assert u.start > 0

        def crash(step):
            if step == "granted":
                raise RuntimeError("coordinator crash after the grant")

        with pytest.raises(RuntimeError):
            shards.handoff("u", 1, on_step=crash)
        shards.kill(1)
        shards.supervise()
        shards.reconcile()
        shards.drain()
        assert shards.graph.as_dict() == monolith(db)
        points = feed.recovery_points()
        assert "u" not in points["shard-0"].floor
        assert "u" in points["shard-1"].floor

    def test_reopen_after_a_crash_past_the_grant_converges(
        self, primary, coordinator
    ):
        # The coordinator dies right after the grant, over a reclaimed
        # prefix with no writer checkpoint: the old owner is the only
        # group that can give u back.  A re-opened coordinator starts
        # both workers (worker processes concurrently); the old owner
        # must hold u until the adopter covered it, then let go.
        feed, db = primary(segment_records=2, retention="compact")
        shards = coordinator(feed)
        shards.drain()
        shards.checkpoint()
        db.checkpoint()
        (u,) = [t for t in feed.topics() if t.name == "u"]
        assert u.start > 0
        feed.drop_group(WRITER_GROUP)

        def crash(step):
            if step == "granted":
                raise RuntimeError("coordinator crash after the grant")

        with pytest.raises(RuntimeError):
            shards.handoff("u", 1, on_step=crash)
        shards.close()
        reopened = coordinator(feed, assignment=MOVED_U)
        assert reopened.plan.topic_owner["u"] == 1
        reopened.drain()
        assert reopened.graph.as_dict() == monolith(db)
        for row in reopened.status():
            spec = reopened.plan.shards[row.index]
            assert row.subscribed == tuple(sorted(spec.subscribed))
        assert "u" not in feed.recovery_points()["shard-0"].floor

    def test_database_and_engine_answer_from_the_shards(
        self, primary, coordinator
    ):
        feed, db = primary()
        shards = coordinator(feed)
        shards.drain()
        assembled = shards.database()
        for name in FOUR_TOPICS:
            assert dict(assembled.table(name).items()) == dict(
                db.table(name).items()
            )
        engine = shards.engine()
        assert engine.hypergraph.as_dict() == monolith(db)


class TestDeadWorkerStatus:
    def test_status_surfaces_a_dead_worker_as_lagging(
        self, primary, coordinator
    ):
        # The regression pin: a worker that died between checkpoint and
        # commit shows up *lagging* from its registered offsets -- not
        # silently absent.
        feed, db = primary()
        shards = coordinator(feed)
        shards.drain()
        shards.checkpoint()
        shards.kill(0)  # crash, not close
        for i in range(5):
            db.execute(f"INSERT INTO u VALUES ({i}, {70 + i})")
        feed.flush()
        rows = shards.status()
        dead = [row for row in rows if not row.alive]
        assert len(dead) == 1
        assert dead[0].index == 0
        assert dead[0].lag == 5  # pending records, from registration
        assert dead[0].committed  # the registered offsets survive
        assert dead[0].owned == ("r", "s", "u")
        assert shards.lag == 5  # dead workers count
        # A dead worker fails loudly instead of being merged around.
        with pytest.raises(ExecutorError):
            shards.drain()

    def test_restart_preserves_registration_of_the_dead_worker(
        self, primary, coordinator
    ):
        feed, db = primary()
        shards = coordinator(feed)
        shards.drain()
        shards.checkpoint()
        committed_before = shards.status()[0].committed
        event = shards.restart(0)
        assert (event.index, event.respawns) == (0, 1)
        # The restart kills (never deregisters) the old worker: had the
        # re-attach died too, the group would still be registered and
        # visible as lagging.  The restarted worker resumes exactly.
        restarted = shards.status()[0]
        assert restarted.alive and restarted.respawns == 1
        assert restarted.committed == committed_before
        assert restarted.lag == 0
        assert shards.graph.as_dict() == monolith(db)

    def test_supervise_restarts_only_the_dead(self, primary, coordinator):
        feed, db = primary()
        shards = coordinator(feed)
        shards.drain()
        shards.checkpoint()
        assert shards.supervise() == []  # everyone healthy
        shards.kill(1)
        for i in range(3):
            db.execute(f"INSERT INTO w VALUES ({i}, {80 + i})")
        feed.flush()
        events = shards.supervise()
        assert [(e.index, e.respawns) for e in events] == [(1, 1)]
        shards.drain()
        assert shards.graph.as_dict() == monolith(db)
