"""Feed replay throughput: replica rebuild vs. direct in-memory apply.

The durable change feed exists so conflict state can be rebuilt *away*
from the writer (replicas, restarts, future shards).  This benchmark
prices that capability:

* ``publish``: loading a workload into a database that appends every
  mutation to durable JSONL segments (the write-side overhead);
* ``replay``: a :class:`~repro.conflicts.replica.ReplicaHypergraph`
  attaching to the segments cold and replaying to a full conflict
  hypergraph -- reported as tuples/second, with replica lag asserted to
  drain to zero;
* ``direct``: the same workload folded into a
  :class:`~repro.core.hippo.HippoEngine` hypergraph in-process (the
  PR 1 path the replica is measured against).

It also gates the feed's **bounded-memory promise**: opening a durable
feed and bootstrapping a replica over a history of >= 16 sealed
segments must keep at most ``2 x segment_records`` feed records
resident (the streaming chunk plus the active tail -- never the
history), asserted under ``--smoke`` and reported with the
``tracemalloc`` peak of the bootstrap.

Replayed state is verified equal to full re-detection on every run.

Run: ``python -m pytest benchmarks/bench_feed_replay.py -q``
or standalone: ``python benchmarks/bench_feed_replay.py``.
"""

from __future__ import annotations

import itertools
import random
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest

from repro import Database, HippoEngine
from repro.conflicts import ReplicaHypergraph, detect_conflicts
from repro.engine.database import (
    REPLAY_BATCH_RECORDS,
    apply_feed_record,
    apply_feed_records,
)
from repro.engine.feed import RECORD_CHANGE, ChangeFeed, FeedRecord
from repro.workloads import generate_key_conflict_table

try:
    from benchmarks.common import scaled
except ImportError:  # standalone: python benchmarks/bench_feed_replay.py
    from common import scaled

SIZES = scaled([4000, 16000], [400])
UPDATES = scaled(300, 30)
CONFLICTS = 0.05

_group_ids = itertools.count()


def build_feed(directory: Path, n_tuples: int):
    """Populate a durable database: bulk load + an update stream."""
    feed = ChangeFeed(directory)
    db = Database(feed=feed)
    table = generate_key_conflict_table(db, "r", n_tuples, CONFLICTS, seed=47)
    rng = random.Random(53)
    for _ in range(UPDATES):
        kind = rng.randrange(3)
        key = rng.randrange(10 * n_tuples)
        if kind == 0:
            db.execute(f"INSERT INTO r VALUES ({key}, {rng.randrange(1000)})")
        elif kind == 1:
            db.execute(f"DELETE FROM r WHERE a = {key}")
        else:
            db.execute(f"UPDATE r SET b0 = {rng.randrange(1000)} WHERE a = {key}")
    feed.flush()
    return feed, db, table.fd


def replay(directory: Path, fd) -> tuple[ReplicaHypergraph, int, float]:
    """Cold-attach a replica and drain the feed; returns records/seconds."""
    feed = ChangeFeed(directory)
    replica = ReplicaHypergraph(feed, [fd], group=f"bench-{next(_group_ids)}")
    started = time.perf_counter()
    records = 0
    while replica.lag:
        records += replica.sync().records
    seconds = time.perf_counter() - started
    assert replica.lag == 0
    feed.close()
    return replica, records, seconds


@pytest.fixture(scope="module", params=SIZES)
def recorded(request, tmp_path_factory):
    directory = tmp_path_factory.mktemp("feed") / f"n{request.param}"
    feed, db, fd = build_feed(directory, request.param)
    feed.close()
    yield directory, db, fd, request.param


@pytest.mark.benchmark(group="feed-replay")
def test_replay_throughput(benchmark, recorded):
    directory, db, fd, n_tuples = recorded

    def run():
        return replay(directory, fd)

    replica, records, _seconds = benchmark(run)
    benchmark.extra_info["n_tuples"] = n_tuples
    benchmark.extra_info["records"] = records
    # The replayed hypergraph equals full re-detection on the primary.
    assert (
        replica.graph.as_dict()
        == detect_conflicts(db, [fd]).hypergraph.as_dict()
    )


@pytest.mark.benchmark(group="feed-replay")
def test_direct_apply_baseline(benchmark, recorded):
    _directory, _db, _fd, n_tuples = recorded

    def run():
        db = Database()
        table = generate_key_conflict_table(db, "r", n_tuples, CONFLICTS, seed=47)
        engine = HippoEngine(db, [table.fd])
        rng = random.Random(53)
        for _ in range(UPDATES):
            kind = rng.randrange(3)
            key = rng.randrange(10 * n_tuples)
            if kind == 0:
                db.execute(
                    f"INSERT INTO r VALUES ({key}, {rng.randrange(1000)})"
                )
            elif kind == 1:
                db.execute(f"DELETE FROM r WHERE a = {key}")
            else:
                db.execute(
                    f"UPDATE r SET b0 = {rng.randrange(1000)} WHERE a = {key}"
                )
            engine.refresh()
        return engine

    engine = benchmark(run)
    benchmark.extra_info["n_tuples"] = n_tuples
    assert len(engine.hypergraph) >= 0


def test_replica_lag_drains_and_matches(recorded):
    """Lag is visible while behind and zero once caught up."""
    directory, db, fd, _n_tuples = recorded
    feed = ChangeFeed(directory)
    replica = ReplicaHypergraph(feed, [fd], group=f"bench-{next(_group_ids)}")
    assert replica.lag > 0  # cold attach: the whole history is pending
    replica.sync(limit=5)
    assert replica.lag > 0  # bounded sync leaves a measurable backlog
    while replica.lag:
        replica.sync()
    assert replica.lag == 0
    assert (
        replica.graph.as_dict()
        == detect_conflicts(db, [fd]).hypergraph.as_dict()
    )
    feed.close()


#: The batched-apply gate: a poll batch of change records applied via
#: :func:`apply_feed_records` (runs folded into one
#: ``Table.apply_changes`` each) must beat applying the same records one
#: :func:`apply_feed_record` at a time.  Full size is the acceptance
#: bar's N=16k; the smoke size keeps CI honest with a timing-noise
#: slack, since at tiny N a single scheduler hiccup can flip a strict
#: comparison.
APPLY_GATE_RECORDS = scaled(16000, 800)
APPLY_GATE_TRIALS = 3
APPLY_GATE_SLACK = scaled(1.0, 1.5)


def build_apply_records(count: int) -> list[FeedRecord]:
    """``count`` change records on one topic: inserts with a delete
    every 16th record (the update-stream shape, all foldable runs)."""
    records = []
    tid = 0
    for i in range(count):
        if i % 16 == 15:
            records.append(
                FeedRecord(
                    seq=i, topic="gate", offset=i, kind=RECORD_CHANGE,
                    tid=tid, op="delete",
                )
            )
        else:
            tid += 1
            records.append(
                FeedRecord(
                    seq=i, topic="gate", offset=i, kind=RECORD_CHANGE,
                    tid=tid, row=(tid, tid % 97), op="insert",
                )
            )
    return records


def _apply_seconds(records: list[FeedRecord], batched: bool) -> float:
    """Min-of-trials apply time; verifies the replayed state each trial."""
    expected_rows = sum(
        1 if r.op == "insert" else -1 for r in records
    )
    best = float("inf")
    for _ in range(APPLY_GATE_TRIALS):
        db = Database()
        db.execute("CREATE TABLE gate (a INTEGER, b INTEGER)")
        table = db.table("gate")
        with db.changes.feed.suspended():
            started = time.perf_counter()
            if batched:
                for start in range(0, len(records), REPLAY_BATCH_RECORDS):
                    apply_feed_records(
                        db, records[start : start + REPLAY_BATCH_RECORDS]
                    )
            else:
                for record in records:
                    apply_feed_record(db, record)
            best = min(best, time.perf_counter() - started)
        assert len(list(table.tids())) == expected_rows
    return best


def test_batched_apply_beats_per_record_gate():
    """The acceptance gate: batched replay wins at the poll-batch size."""
    records = build_apply_records(APPLY_GATE_RECORDS)
    per_record = _apply_seconds(records, batched=False)
    batched = _apply_seconds(records, batched=True)
    speedup = per_record / batched if batched else float("inf")
    print(
        f"batched-apply gate: {APPLY_GATE_RECORDS} records, per-record"
        f" {per_record * 1e3:.1f}ms vs batched {batched * 1e3:.1f}ms"
        f" ({speedup:.2f}x, gate: batched wins)"
    )
    assert batched < per_record * APPLY_GATE_SLACK, (
        f"batched apply ({batched * 1e3:.1f}ms) did not beat per-record"
        f" apply ({per_record * 1e3:.1f}ms) at N={APPLY_GATE_RECORDS}"
    )


#: Tiny segments for the memory gate, so even the smoke history spans
#: well over the 16 sealed segments the acceptance bar names.
GATE_SEGMENT_RECORDS = 16
GATE_TUPLES = scaled(2000, 320)


def build_gate_history(directory: Path):
    """The memory gate's fixture: a many-segment durable history whose
    ``memory-gate`` group has a committed cut covering all of it, so a
    cold re-attach replays the whole history (the expensive shape).
    Shared by the pytest gate and the standalone report."""
    feed = ChangeFeed(directory, segment_records=GATE_SEGMENT_RECORDS)
    db = Database(feed=feed)
    table = generate_key_conflict_table(
        db, "r", GATE_TUPLES, CONFLICTS, seed=47
    )
    feed.flush()
    warm = ChangeFeed(directory, segment_records=GATE_SEGMENT_RECORDS)
    replica = ReplicaHypergraph(warm, [table.fd], group="memory-gate")
    while replica.lag:
        replica.sync(limit=GATE_SEGMENT_RECORDS)
    replica._consumer.close()  # keep committed offsets, skip the snapshot
    warm.close()
    feed.close()
    return db, table.fd


def bounded_bootstrap(directory: Path, fd) -> dict:
    """Re-attach a replica cold over a long history, measuring memory.

    Returns sealed-segment count, the feed's peak resident record count
    during bootstrap, and the tracemalloc peak of the whole attach.
    """
    tracemalloc.start()
    feed = ChangeFeed(directory, segment_records=GATE_SEGMENT_RECORDS)
    opened_resident = feed.resident_records()
    replica = ReplicaHypergraph(feed, [fd], group="memory-gate")
    _current, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    (data_topic,) = [t for t in feed.topics() if t.name == "r"]
    report = {
        "sealed_segments": data_topic.segments - 1,
        "opened_resident": opened_resident,
        "peak_resident": feed.peak_resident_records,
        "traced_peak_kib": traced_peak / 1024,
        "replica": replica,
    }
    replica._consumer.close()
    feed.close()
    return report


def test_bootstrap_memory_is_bounded_by_the_segment_size(tmp_path):
    """The acceptance gate: >= 16 sealed segments, <= 2x segment_records
    resident feed records across open + replica bootstrap."""
    directory = tmp_path / "feed"
    db, fd = build_gate_history(directory)

    report = bounded_bootstrap(directory, fd)
    assert report["sealed_segments"] >= 16
    assert report["opened_resident"] == 0  # lazy open parses nothing
    assert report["peak_resident"] <= 2 * GATE_SEGMENT_RECORDS
    # The rebuilt graph is still exact.
    assert (
        report["replica"].graph.as_dict()
        == detect_conflicts(db, [fd]).hypergraph.as_dict()
    )
    print(
        f"bootstrap over {report['sealed_segments']} sealed segments:"
        f" peak resident {report['peak_resident']} records"
        f" (cap {2 * GATE_SEGMENT_RECORDS}),"
        f" tracemalloc peak {report['traced_peak_kib']:.0f} KiB"
    )


#: The compaction gate's shape: a few topics, each several sealed
#: segments long, with a slow consumer group stuck half-way through the
#: middle sealed segment of every topic -- the workload that would pin
#: whole segments if a reclaim only deleted, never rewrote.
COMPACT_SEGMENT_RECORDS = 8
COMPACT_TABLES = 3
COMPACT_ROUNDS = 24  # records per topic: 3 segments of 8
COMPACT_SUFFIX = 5  # records published after the writer checkpoint


def feed_bytes(directory: Path) -> int:
    """On-disk bytes of every segment file under a feed directory."""
    return sum(
        p.stat().st_size for p in directory.glob("topics/*/*.jsonl")
    )


def build_compaction_history(directory: Path):
    """A durable database over several topics, checkpointed, with a
    registered slow group still at offset 0.  Returns
    ``(feed, db, checkpoint_cut, slow_consumer)``."""
    feed = ChangeFeed(
        directory, segment_records=COMPACT_SEGMENT_RECORDS, retention="compact"
    )
    db = Database(feed=feed)
    for t in range(COMPACT_TABLES):
        db.execute(f"CREATE TABLE r{t} (a INTEGER)")
    for i in range(COMPACT_ROUNDS):  # round-robin: seqs interleave topics
        for t in range(COMPACT_TABLES):
            db.execute(f"INSERT INTO r{t} VALUES ({i})")
    slow = feed.consumer("slow", start="beginning")  # pins offset 0
    cut = db.checkpoint()
    for i in range(COMPACT_SUFFIX):  # the retained suffix a reopen replays
        db.execute(f"INSERT INTO r0 VALUES ({100 + i})")
    feed.flush()
    return feed, db, cut, slow


def run_compaction_gate(directory: Path) -> dict:
    """Drive the slow group half-way, compact, and reopen from snapshot.

    Returns the before/after byte counts and the reopened database's
    restore statistics.
    """
    feed, db, cut, slow = build_compaction_history(directory)
    before = feed_bytes(directory)
    # Half of each topic's consumed history sits mid-segment: commit at
    # 12 of 24 records per topic (plus the schema records).
    slow.poll(limit=COMPACT_TABLES + COMPACT_TABLES * COMPACT_ROUNDS // 2)
    slow.commit()  # retention="compact" reclaims on this commit
    after = feed_bytes(directory)
    feed.close()

    reopened_feed = ChangeFeed(
        directory, segment_records=COMPACT_SEGMENT_RECORDS, retention="compact"
    )
    reopened = Database(feed=reopened_feed)
    report = {
        "before_bytes": before,
        "after_bytes": after,
        "ratio": after / before,
        "restore_mode": reopened.restore_mode,
        "restore_records": reopened.restore_records,
        "suffix_records": sum(reopened_feed.end_offsets().values())
        - sum(cut.values()),
        "tables_equal": all(
            dict(reopened.table(f"r{t}").items())
            == dict(db.table(f"r{t}").items())
            for t in range(COMPACT_TABLES)
        ),
    }
    reopened_feed.close()
    return report


def test_compaction_reclaims_disk_and_reopen_replays_only_the_suffix(
    tmp_path,
):
    """The compaction gate: after a slow group consumes half of each
    sealed segment's history, compacted on-disk bytes drop below 60% of
    the uncompacted log -- and a writer reopen restores from the
    checkpoint snapshot, replaying exactly the post-checkpoint suffix."""
    report = run_compaction_gate(tmp_path / "feed")
    assert report["ratio"] < 0.60, (
        f"compaction left {report['ratio']:.0%} of the log on disk"
    )
    assert report["restore_mode"] == "snapshot"
    assert report["restore_records"] == COMPACT_SUFFIX
    assert report["suffix_records"] == COMPACT_SUFFIX
    assert report["tables_equal"]
    print(
        f"compaction gate: {report['before_bytes']} -> "
        f"{report['after_bytes']} bytes ({report['ratio']:.0%}); "
        f"snapshot reopen replayed {report['restore_records']} records"
    )


def main() -> int:  # pragma: no cover - convenience entry
    """Standalone run: durable-publish overhead, replay rate, direct apply.

    ``load`` is the workload into a plain in-memory database; ``+feed``
    the extra cost of appending it all to durable segments; ``replay``
    a replica's cold rebuild (with tuples/sec); ``direct`` an engine
    maintaining the hypergraph in-process across the update stream.
    """
    print(
        f"{'N':>8} {'records':>8} {'load':>10} {'+feed':>9} {'replay':>10}"
        f" {'tuples/s':>10} {'direct':>10}"
    )
    for n_tuples in SIZES:
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp) / "feed"
            started = time.perf_counter()
            feed, db, fd = build_feed(directory, n_tuples)
            durable_seconds = time.perf_counter() - started
            feed.close()

            started = time.perf_counter()
            plain = Database()
            generate_key_conflict_table(plain, "r", n_tuples, CONFLICTS, seed=47)
            rng = random.Random(53)
            for _ in range(UPDATES):
                kind = rng.randrange(3)
                key = rng.randrange(10 * n_tuples)
                if kind == 0:
                    plain.execute(
                        f"INSERT INTO r VALUES ({key}, {rng.randrange(1000)})"
                    )
                elif kind == 1:
                    plain.execute(f"DELETE FROM r WHERE a = {key}")
                else:
                    plain.execute(
                        f"UPDATE r SET b0 = {rng.randrange(1000)} WHERE a = {key}"
                    )
            load_seconds = time.perf_counter() - started

            replica, records, replay_seconds = replay(directory, fd)
            assert (
                replica.graph.as_dict()
                == detect_conflicts(db, [fd]).hypergraph.as_dict()
            )

            started = time.perf_counter()
            direct_db = Database()
            table = generate_key_conflict_table(
                direct_db, "r", n_tuples, CONFLICTS, seed=47
            )
            engine = HippoEngine(direct_db, [table.fd])
            rng = random.Random(53)
            for _ in range(UPDATES):
                kind = rng.randrange(3)
                key = rng.randrange(10 * n_tuples)
                if kind == 0:
                    direct_db.execute(
                        f"INSERT INTO r VALUES ({key}, {rng.randrange(1000)})"
                    )
                elif kind == 1:
                    direct_db.execute(f"DELETE FROM r WHERE a = {key}")
                else:
                    direct_db.execute(
                        f"UPDATE r SET b0 = {rng.randrange(1000)} WHERE a = {key}"
                    )
                engine.refresh()
            direct_seconds = time.perf_counter() - started

            rate = records / replay_seconds if replay_seconds else float("inf")
            overhead = durable_seconds - load_seconds
            print(
                f"{n_tuples:>8} {records:>8} {load_seconds * 1e3:>8.1f}ms"
                f" {overhead * 1e3:>7.1f}ms"
                f" {replay_seconds * 1e3:>8.1f}ms {rate:>10.0f}"
                f" {direct_seconds * 1e3:>8.1f}ms"
            )

    # The bounded-memory gate, reported standalone as well: bootstrap
    # over a many-segment history must stay O(segment), not O(history).
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "feed"
        _db, fd = build_gate_history(directory)
        report = bounded_bootstrap(directory, fd)
        print(
            f"bootstrap memory: {report['sealed_segments']} sealed segments,"
            f" peak resident {report['peak_resident']} records"
            f" (cap {2 * GATE_SEGMENT_RECORDS}),"
            f" tracemalloc peak {report['traced_peak_kib']:.0f} KiB"
        )

    # The compaction gate: a slow group mid-segment must not pin whole
    # segments of disk, and a checkpointed writer reopens by replaying
    # only the post-checkpoint suffix.
    with tempfile.TemporaryDirectory() as tmp:
        report = run_compaction_gate(Path(tmp) / "feed")
        print(
            f"compaction: {report['before_bytes']} ->"
            f" {report['after_bytes']} bytes"
            f" ({report['ratio']:.0%}, gate < 60%);"
            f" snapshot reopen replayed {report['restore_records']}"
            f" of the {report['suffix_records']}-record suffix"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
