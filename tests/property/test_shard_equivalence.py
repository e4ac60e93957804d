"""Property suite: the shards add up.

For randomized workloads over three FK/FD-linked relations and
*randomized topic assignments* (including assignments that split a
constraint's relations across workers -- the cross-shard path), the
union of the shard workers' hypergraphs must equal the monolithic
replica's graph at every aligned committed cut, and each worker's
partial graph must equal full re-detection over its partial database at
every *worker-local* cut.  The invariant survives killing a worker and
restarting it from its shard checkpoint, and -- in the second test --
retention reclaim with checkpoint-based recovery (mirroring the
twin-feed pattern from ``test_replica_equivalence.py``).  The third
test holds the aligned-cut invariant across live handoffs for the one
coordinator over *both* worker transports: in-process workers (tier-1)
and one OS process per worker (``slow``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.conflicts import (
    ProcessShardExecutor,
    ReplicaHypergraph,
    ShardCoordinator,
    detect_conflicts,
)
from repro.constraints import (
    ConstraintAtom,
    DenialConstraint,
    FunctionalDependency,
)
from repro.constraints.foreign_key import ForeignKeyConstraint
from repro.engine.database import Database
from repro.engine.feed import ChangeFeed
from repro.sql.parser import parse_expression

# One randomized mutation step over the three tables.
ops = st.lists(
    st.tuples(
        st.sampled_from(
            [
                ("insert", "p"),
                ("delete", "p"),
                ("insert", "c"),
                ("delete", "c"),
                ("update", "c"),
                ("insert", "u"),
                ("delete", "u"),
                ("update", "u"),
            ]
        ),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=4),
    ),
    min_size=1,
    max_size=20,
)
# A random topic assignment over two workers: cross-shard whenever the
# FK's two relations (p, c) land on different workers.
assignments = st.tuples(
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=1),
)
strides = st.integers(min_value=1, max_value=4)
restarts = st.integers(min_value=0, max_value=12)


def constraint_set():
    return [
        FunctionalDependency("c", ["id"], ["v"]),
        DenialConstraint(
            "neg", (ConstraintAtom("t", "c"),), parse_expression("t.v < 1")
        ),
        ForeignKeyConstraint("c", ["pid"], "p", ["id"]),
        FunctionalDependency("u", ["id"], ["v"]),
    ]


def seed(db: Database) -> None:
    db.execute("CREATE TABLE p (id INTEGER)")
    db.execute("CREATE TABLE c (id INTEGER, pid INTEGER, v INTEGER)")
    db.execute("CREATE TABLE u (id INTEGER, v INTEGER)")
    db.execute("INSERT INTO p VALUES (0), (1)")
    db.execute("INSERT INTO c VALUES (0, 0, 2), (1, 5, 2), (2, 1, 0)")
    db.execute("INSERT INTO u VALUES (0, 1), (0, 2)")


def run_step(db: Database, step) -> None:
    (kind, table), key, value = step
    if kind == "insert" and table == "p":
        db.execute(f"INSERT INTO p VALUES ({key})")
    elif kind == "insert" and table == "c":
        db.execute(f"INSERT INTO c VALUES ({key}, {value}, {value})")
    elif kind == "insert":
        db.execute(f"INSERT INTO u VALUES ({key}, {value})")
    elif kind == "update":
        db.execute(f"UPDATE {table} SET v = {value} WHERE id = {key}")
    else:
        db.execute(f"DELETE FROM {table} WHERE id = {key}")


def assert_worker_exact(worker, plan) -> None:
    """Each worker-local cut: its partial graph equals full re-detection
    of its constraint slice over its partial database."""
    if not worker.ready:
        return
    full = detect_conflicts(
        worker.db,
        worker.spec.constraints,
        extra_referenced=plan.referenced,
    )
    assert worker.graph.as_dict() == full.hypergraph.as_dict()


def assert_aligned(coordinator, monolith) -> None:
    """Aligned cut (everything drained): merged view == monolith."""
    assert coordinator.lag == 0 and monolith.lag == 0
    if monolith.ready:
        assert coordinator.graph.as_dict() == monolith.graph.as_dict()


@settings(max_examples=15, deadline=None)
@given(
    sequence=ops,
    assignment=assignments,
    stride=strides,
    restart_after=restarts,
)
def test_shard_union_equals_monolith_at_every_aligned_cut(
    tmp_path_factory, sequence, assignment, stride, restart_after
):
    directory = tmp_path_factory.mktemp("feed") / "segments"
    constraints = constraint_set()
    feed = ChangeFeed(directory, segment_records=8)
    db = Database(feed=feed)
    seed(db)
    for step in sequence:
        run_step(db, step)
    feed.flush()

    reader = ChangeFeed(directory, segment_records=8)
    monolith = ReplicaHypergraph(reader, constraints, group="monolith")
    coordinator = ShardCoordinator(
        reader,
        constraints,
        workers=2,
        assignment={"p": assignment[0], "c": assignment[1], "u": assignment[2]},
    )
    synced = 0
    restarted = False
    while coordinator.lag or monolith.lag:
        while monolith.lag:
            monolith.sync(limit=stride)
        for index, worker in enumerate(coordinator.workers):
            while worker.lag:
                worker.sync(limit=stride)
                assert_worker_exact(worker, coordinator.plan)
                synced += 1
                if synced == restart_after and not restarted:
                    # Kill + restart this worker from its shard
                    # checkpoint: uncommitted progress is discarded,
                    # the fresh worker resumes at the committed cut.
                    restarted = True
                    worker.checkpoint()
                    before = (
                        worker.graph.as_dict() if worker.ready else None
                    )
                    coordinator.restart(index)
                    worker = coordinator.workers[index]
                    if before is not None:
                        assert worker.graph.as_dict() == before
                    assert_worker_exact(worker, coordinator.plan)
    assert_aligned(coordinator, monolith)

    # Fully caught up: merged view == full re-detection on the primary,
    # and the assembled database mirrors the primary exactly.
    primary_full = detect_conflicts(db, constraints)
    assert coordinator.graph.as_dict() == primary_full.hypergraph.as_dict()
    assembled = coordinator.database()
    for name in db.catalog.table_names():
        assert dict(assembled.table(name).items()) == dict(
            db.table(name).items()
        )
    coordinator.close()
    monolith.close()
    reader.close()
    feed.close()


@settings(max_examples=8, deadline=None)
@given(
    sequence=ops,
    assignment=assignments,
    checkpoint_every=st.integers(min_value=2, max_value=6),
)
def test_shards_survive_truncation_and_restart_from_checkpoints(
    tmp_path_factory, sequence, assignment, checkpoint_every
):
    """The retention shape: workers checkpoint their shards, the feed
    reclaims behind every participant's floor, and a full restart of
    every worker (plus the monolith) comes back exactly -- the shard
    checkpoints are the recovery points once the raw prefix is gone."""
    directory = tmp_path_factory.mktemp("feed") / "segments"
    constraints = constraint_set()
    feed = ChangeFeed(directory, segment_records=4)
    db = Database(feed=feed)
    seed(db)
    feed.flush()

    reader = ChangeFeed(directory, segment_records=4, retention="compact")
    monolith = ReplicaHypergraph(reader, constraints, group="monolith")
    coordinator = ShardCoordinator(
        reader,
        constraints,
        workers=2,
        assignment={"p": assignment[0], "c": assignment[1], "u": assignment[2]},
    )
    steps = 0
    for step in sequence:
        run_step(db, step)
        feed.flush()
        while monolith.lag:
            monolith.sync()
        coordinator.drain()
        assert_aligned(coordinator, monolith)
        steps += 1
        if steps % checkpoint_every == 0:
            # Move every recovery participant's floor so later commits
            # can reclaim the prefix behind them.
            coordinator.checkpoint()
            monolith.checkpoint()
            db.checkpoint()

    before = coordinator.graph.as_dict()
    for index in range(len(coordinator.workers)):
        coordinator.restart(index)
    assert coordinator.lag == 0
    assert coordinator.graph.as_dict() == before
    assert (
        coordinator.graph.as_dict()
        == detect_conflicts(db, constraints).hypergraph.as_dict()
    )
    coordinator.close()
    monolith.close()
    reader.close()
    feed.close()


@pytest.mark.parametrize(
    "transport", ["local", pytest.param("pipe", marks=pytest.mark.slow)]
)
@pytest.mark.deadline(120)
@settings(max_examples=5, deadline=None)
@given(
    sequence=ops,
    assignment=assignments,
    moves=st.lists(
        st.tuples(
            st.sampled_from(("p", "c", "u")),
            st.integers(min_value=0, max_value=1),
        ),
        max_size=3,
    ),
)
def test_coordinator_matches_monolith_across_handoffs(
    tmp_path_factory, transport, sequence, assignment, moves
):
    """The aligned-cut invariant over either transport: for random
    workloads, assignments and live handoffs, the coordinator's merged
    graph equals full re-detection on the writer at every aligned cut."""
    directory = tmp_path_factory.mktemp("feed") / "segments"
    constraints = constraint_set()
    feed = ChangeFeed(directory, segment_records=8)
    db = Database(feed=feed)
    seed(db)
    feed.flush()
    pinned = {"p": assignment[0], "c": assignment[1], "u": assignment[2]}
    reader = None
    if transport == "local":
        reader = ChangeFeed(directory, segment_records=8)
        coordinator = ShardCoordinator(
            reader, constraints, workers=2, assignment=pinned
        )
    else:
        coordinator = ProcessShardExecutor(
            directory,
            constraints,
            workers=2,
            assignment=pinned,
            mp_context="fork",
        )
    try:
        for step in sequence:
            run_step(db, step)
        feed.flush()
        coordinator.drain()
        expected = detect_conflicts(db, constraints).hypergraph.as_dict()
        assert coordinator.graph.as_dict() == expected
        for topic, target in moves:
            coordinator.handoff(topic, target)
            for step in sequence[:3]:
                run_step(db, step)
            feed.flush()
            coordinator.drain()
            expected = detect_conflicts(db, constraints).hypergraph.as_dict()
            assert coordinator.graph.as_dict() == expected
        # Converged: no worker pins a topic outside its plan slice.
        points = coordinator.feed.recovery_points()
        for spec in coordinator.plan.shards:
            floor = points[f"shard-{spec.index}"].floor
            assert set(floor) <= set(spec.subscribed)
    finally:
        coordinator.close()
        if reader is not None:
            reader.close()
        feed.close()
