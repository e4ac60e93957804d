"""Shard scaling: 2 and 4 workers vs. a monolithic replica.

The sharded maintainers (:mod:`repro.conflicts.shard`) exist so the
conflict hypergraph can be maintained by several consumer groups, each
over a topic subset.  This benchmark prices the decomposition against
the monolithic replica on a multi-relation workload:

* ``monolith``: one :class:`~repro.conflicts.replica.ReplicaHypergraph`
  draining the whole feed;
* ``shards(2)`` / ``shards(4)``: a
  :class:`~repro.conflicts.shard.ShardCoordinator` draining the same
  feed split 2- and 4-ways by the constraint-aware plan.

Every run **asserts** that each coordinator's lag drains to zero and
that the merged shard view equals the monolithic replica's graph (and
full re-detection on the primary) -- the scale-out never trades
correctness.  Wall-clock per configuration is reported; the workers run
sequentially in one process here, so the interesting number is the
per-shard share of the work (the cross-process speedup ceiling), not an
in-process speedup.

Run: ``python -m pytest benchmarks/bench_shard_scaling.py -q``
or standalone: ``python benchmarks/bench_shard_scaling.py``.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import pytest

from repro import Database
from repro.conflicts import (
    ReplicaHypergraph,
    ShardCoordinator,
    detect_conflicts,
)
from repro.engine.feed import ChangeFeed
from repro.workloads import generate_key_conflict_table

try:
    from benchmarks.common import scaled
except ImportError:  # standalone: python benchmarks/bench_shard_scaling.py
    from common import scaled

#: Total tuples across all topics (the N >= 16k acceptance shape).
SIZES = scaled([16000], [400])
TOPICS = 4
CONFLICTS = 0.05
WORKER_COUNTS = (2, 4)


def build_feed(directory: Path, n_tuples: int):
    """A durable multi-topic workload: one keyed table per topic."""
    feed = ChangeFeed(directory)
    db = Database(feed=feed)
    constraints = []
    for index in range(TOPICS):
        table = generate_key_conflict_table(
            db, f"r{index}", n_tuples // TOPICS, CONFLICTS, seed=31 + index
        )
        constraints.append(table.fd)
    feed.flush()
    return feed, db, constraints


def drain_monolith(directory: Path, constraints):
    reader = ChangeFeed(directory)
    started = time.perf_counter()
    replica = ReplicaHypergraph(reader, constraints, group="bench-monolith")
    while replica.lag:
        replica.sync()
    seconds = time.perf_counter() - started
    assert replica.lag == 0
    reader.close()
    return replica, seconds


def drain_shards(directory: Path, constraints, workers: int):
    reader = ChangeFeed(directory)
    started = time.perf_counter()
    coordinator = ShardCoordinator(
        reader,
        constraints,
        workers=workers,
        group_prefix=f"bench-shard{workers}",
        snapshots=False,
    )
    records = coordinator.drain()
    seconds = time.perf_counter() - started
    assert coordinator.lag == 0  # lag drains to zero
    graph = coordinator.graph
    coordinator.close()
    reader.close()
    return graph, records, seconds


@pytest.fixture(scope="module", params=SIZES)
def recorded(request, tmp_path_factory):
    directory = tmp_path_factory.mktemp("feed") / f"n{request.param}"
    feed, db, constraints = build_feed(directory, request.param)
    feed.close()
    yield directory, db, constraints, request.param


def test_sharded_drain_matches_the_monolith(recorded, benchmark):
    """The scaling gate: 2- and 4-worker shard sets drain the same feed
    to zero lag and their merged graphs equal the monolithic replica's
    (and full re-detection) at N >= 16k (smoke-scaled).  The timed round
    is the whole gate; each configuration's drain time is recorded as
    extra info."""
    directory, db, constraints, n_tuples = recorded

    def run() -> dict[str, float]:
        monolith, mono_seconds = drain_monolith(directory, constraints)
        expected = monolith.graph.as_dict()
        assert expected == detect_conflicts(db, constraints).hypergraph.as_dict()
        print(
            f"\nN={n_tuples}: monolith drained in {mono_seconds * 1e3:.1f} ms,"
            f" {len(expected)} edges"
        )
        seconds_by_config = {"monolith_seconds": mono_seconds}
        for workers in WORKER_COUNTS:
            graph, records, seconds = drain_shards(directory, constraints, workers)
            assert graph.as_dict() == expected  # merged graph equality
            print(
                f"N={n_tuples}: {workers} shard workers drained {records}"
                f" records in {seconds * 1e3:.1f} ms"
                f" (~{seconds / workers * 1e3:.1f} ms/worker share)"
            )
            seconds_by_config[f"shards{workers}_seconds"] = seconds
        return seconds_by_config

    benchmark.extra_info.update(benchmark.pedantic(run, rounds=1, iterations=1))


def main() -> int:  # pragma: no cover - convenience entry
    """Standalone run: wall-clock per configuration at every size."""
    print(f"{'N':>8} {'config':>12} {'records':>9} {'seconds':>9} {'edges':>7}")
    for n_tuples in SIZES:
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp) / "feed"
            feed, db, constraints = build_feed(directory, n_tuples)
            feed.close()
            monolith, seconds = drain_monolith(directory, constraints)
            expected = monolith.graph.as_dict()
            assert (
                expected
                == detect_conflicts(db, constraints).hypergraph.as_dict()
            )
            with ChangeFeed(directory) as counter:
                records = sum(t.end for t in counter.topics())
            print(
                f"{n_tuples:>8} {'monolith':>12} {records:>9}"
                f" {seconds:>8.2f}s {len(expected):>7}"
            )
            for workers in WORKER_COUNTS:
                graph, drained, seconds = drain_shards(
                    directory, constraints, workers
                )
                assert graph.as_dict() == expected
                print(
                    f"{n_tuples:>8} {f'shards({workers})':>12} {drained:>9}"
                    f" {seconds:>8.2f}s {len(graph.as_dict()):>7}"
                )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
