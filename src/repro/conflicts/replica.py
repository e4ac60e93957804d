"""Replica conflict-hypergraph maintenance over the change feed.

The road to sharded consistent query answering runs through one
capability: rebuilding conflict state *away* from the process that owns
the writes.  A :class:`ReplicaHypergraph` attaches to a
:class:`~repro.engine.feed.ChangeFeed` under a consumer group and keeps
three things in lock-step:

1. **A replica database.**  The feed carries serialized schemas (DDL
   records) and full rows under their original tids, so the replica
   rebuilds an exact copy of the primary's state -- tids included, which
   matters because tids are the hypergraph's vertices.
2. **A committed offset per topic.**  The group's committed offsets mark
   the *cut* the replica has durably reached; on re-attach (e.g. after a
   process restart) the replica rebuilds its database at that cut with
   :func:`~repro.engine.database.recover_database` -- the routine the
   durable writer reopens with, here under the replica's own group --
   runs full conflict detection on it, and resumes consuming from the
   cut.
3. **The conflict hypergraph.**  Past bootstrap, records are folded in
   through :class:`~repro.conflicts.incremental.IncrementalDetector`, so
   a replica tracks the primary at delta cost.  The maintained invariant
   -- asserted by the property suite -- is that after every committed
   sync the graph equals full re-detection over the replica database.

Attached to a *reader* feed instance (a second ``ChangeFeed`` opened on
the writer's directory), the replica is a genuinely live follower:
every :meth:`ReplicaHypergraph.sync` re-scans the directory, so appends
the writer flushed after the replica opened stream in; the
:meth:`ReplicaHypergraph.follow` loop packages that into a daemon-style
tail (surfaced in the CLI as ``.feed tail``).

Apply-then-commit ordering makes the pipeline exactly-once: records are
applied to the replica database, the offsets commit, and only then does
the hypergraph advance.  A crash anywhere in between re-attaches from
the last commit, where full detection reconstructs whatever the
incremental layer had not persisted (the hypergraph itself is derived
state and is never written to disk).

**Retention.**  When the feed reclaims its history
(``retention="compact"`` or an explicit
:meth:`~repro.engine.feed.ChangeFeed.compact`), a re-attaching replica
may find its committed prefix gone.  What keeps it recoverable is the
group *snapshot*: a serialized copy of the replica database stored at a
committed cut (:meth:`ReplicaHypergraph.checkpoint`, and automatically
on :meth:`ReplicaHypergraph.close`).  Recovery restores it and replays
only the still-retained gap -- the feed never reclaims past a group's
snapshot, so the gap is always readable.  The snapshot wire format
lives in :mod:`repro.engine.snapshot` and is shared with the durable
writer's own checkpoints
(:meth:`repro.engine.database.Database.checkpoint`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.conflicts.detection import DetectionReport, detect_conflicts
from repro.conflicts.hypergraph import ConflictHypergraph
from repro.conflicts.incremental import IncrementalDetector
from repro.engine.database import (
    WRITER_GROUP,
    Database,
    recover_database,
    replay_feed_records,
)
from repro.engine.feed import SCHEMA_TOPIC, ChangeFeed, FeedRecord
from repro.engine.snapshot import restore_database, snapshot_database
from repro.errors import CatalogError, FeedError


@dataclass
class ReplicaSync:
    """What one :meth:`ReplicaHypergraph.sync` call did.

    Attributes:
        records: feed records consumed (data + DDL).
        mode: ``"noop"`` (nothing pending), ``"incremental"`` (delta
            maintenance), ``"full"`` (re-detection; DDL or recovery) or
            ``"deferred"`` (constraint tables still missing at the cut).
        lag: records still pending past this sync's commit.
        delta: the incremental application's report (incremental mode
            only).
    """

    records: int = 0
    mode: str = "noop"
    lag: int = 0
    delta: Optional[DetectionReport] = None


@dataclass
class ReplicaFollow:
    """Summary of one :meth:`ReplicaHypergraph.follow` run."""

    syncs: int = 0
    records: int = 0
    seconds: float = 0.0


class ReplicaHypergraph:
    """A conflict hypergraph maintained from a change feed.

    Args:
        feed: the feed to consume (typically a durable
            :class:`~repro.engine.feed.ChangeFeed` opened on the
            primary's directory -- the same instance, or a second
            *reader* instance in another process, which is then tailed
            live).
        constraints: the constraint set (must match the primary's for
            the replica to mean anything).
        group: consumer-group name; committed offsets are stored under
            it, so re-attaching with the same name resumes the replica.
        snapshots: whether to persist recovery snapshots (on
            :meth:`close` and :meth:`checkpoint`); meaningless on
            in-memory feeds.  Snapshots are what let the replica
            re-attach after feed retention reclaimed its prefix.
        topics: subscribe to a subset of the feed's topics (relation
            names; the ``_schema`` topic is always included so DDL
            replicates).  The replica then maintains a *partial*
            database -- only the subscribed relations carry rows --
            which is the shard-worker shape
            (:class:`~repro.conflicts.shard.ShardWorker`); its retention
            floor only pins the subscribed topics.
        extra_referenced: FK-referenced relations protected by
            constraints *outside* this replica's list (other shards');
            forwarded into detection's restricted-class check.

    Raises:
        FeedError: when the committed prefix is no longer retained and
            no snapshot covers it (an in-memory feed overflowed, or a
            durable feed reclaimed past a group that never
            checkpointed).
    """

    def __init__(
        self,
        feed: ChangeFeed,
        constraints: Iterable[object],
        group: str = "replica",
        snapshots: bool = True,
        topics: Optional[Iterable[str]] = None,
        extra_referenced: Iterable[str] = (),
    ) -> None:
        self.feed = feed
        self.group = group
        #: how attaching rebuilt the database: ``"replay"`` (committed
        #: prefix streamed), ``"snapshot"`` (group snapshot restored +
        #: gap replayed) or ``"seeded"`` (writer checkpoint).
        self.restore_mode = "replay"
        #: feed records that recovery replayed.
        self.restore_records = 0
        #: per-topic records applied over this replica's lifetime
        #: (recovery replay included) -- what lets a handoff assert
        #: "resumed from the cut, replayed exactly the retained suffix".
        self.applied_records: dict[str, int] = {}
        self.constraints = list(constraints)
        self.topics = (
            None
            if topics is None
            else frozenset(
                {str(t).lower() for t in topics} | {SCHEMA_TOPIC}
            )
        )
        self.extra_referenced = frozenset(
            relation.lower() for relation in extra_referenced
        )
        if not feed.durable and feed.dropped:
            raise FeedError(
                "cannot attach a replica to an in-memory feed that already"
                f" dropped {feed.dropped} unconsumed records -- attach the"
                " replica before the primary takes writes, or use a"
                " durable feed"
            )
        self._snapshots = snapshots and feed.durable
        self._closed = False
        self._consumer = feed.consumer(
            group, start="beginning", topics=self.topics
        )
        try:
            #: the replica's own database, rebuilt purely from the feed.
            self.db = Database()
            self._plan_detection()
            self._bootstrap()
        except BaseException:
            # A failed bootstrap must release the consumer-group
            # registration, or the half-built replica pins feed
            # retention forever.
            self._consumer.close()
            raise

    # ------------------------------------------------------------ bootstrap

    def _bootstrap(self) -> None:
        """Recover the database at the committed cut, then full-detect.

        A *fresh* group on a feed whose prefix is already gone (it has
        no snapshot of its own) seeds itself from the writer's
        checkpoint; every other attach is
        :func:`~repro.engine.database.recover_database` under this
        group, up to its committed offsets.
        """
        committed = self._consumer.committed
        if not committed and self._seed_from_writer_checkpoint():
            self.restore_mode = "seeded"
        else:
            self.restore_mode, self.applied_records = recover_database(
                self.db, self.feed, self.group, upto=committed
            )
            self.restore_records = sum(self.applied_records.values())
        # A fresh replica may attach before the CREATE TABLE records its
        # constraints need have replicated; detection then stays
        # deferred until a sync carries that DDL.
        self._advance()

    def _seed_from_writer_checkpoint(self) -> bool:
        """Bootstrap a brand-new group over an already-reclaimed feed.

        A group with no committed offsets wants the history from offset
        0 -- which retention may have reclaimed long before the group
        existed.  The writer's checkpoint (kept in the feed directory,
        and never reclaimed past) carries exactly the state at its cut:
        restore it, commit the group at that cut, and consume the
        retained records from there.  Returns whether seeding happened
        (False on in-memory feeds, unreclaimed feeds, or when no writer
        checkpoint exists -- the plain replay handles those).
        """
        if not self.feed.durable:
            return False
        # A reader instance's view can predate a foreign reclaim: judge
        # replayability from the live directory, not stale memory.
        self.feed.refresh()
        if all(
            t.start == 0
            for t in self.feed.topics()
            if self.topics is None or t.name in self.topics
        ):
            return False  # the (subscribed) history is still replayable
        seeded = self.feed.load_snapshot(WRITER_GROUP)
        if seeded is None:
            return False
        cut, payload = seeded
        # A subscribed replica restores only its slice of the writer's
        # checkpoint (schemas in full -- detection needs the catalog --
        # rows only for subscribed relations); seek() drops the foreign
        # topics from the cut.
        restore_database(self.db, payload, tables=self.topics)
        self._consumer.seek(cut)
        self._consumer.commit()
        return True

    def _mark(self, phase: str, topic: Optional[str] = None) -> None:
        """Crash-phase seam: called at the durability-critical points of
        the pipeline (``"apply"`` after records hit the database but
        before the offset commit, ``"checkpoint"`` just before the
        snapshot store, and the shard handoff phases ``"release"`` /
        ``"adopt"``).  A no-op here; the pipe transport rebinds it per
        worker process to a caller-supplied fault hook, so the
        fault-injection suite can pin recovery at every boundary."""
        return None

    def _plan_detection(self) -> None:
        """A fresh detector for the current constraint slice; the next
        :meth:`_advance` runs its full detection."""
        db, constraints = self.db, self.constraints
        extra = self.extra_referenced

        def detect() -> DetectionReport:
            return detect_conflicts(db, constraints, extra_referenced=extra)

        self._detector = IncrementalDetector(
            db, constraints, detect, extra_referenced=extra
        )

    def _advance(
        self, records: Sequence[FeedRecord] = ()
    ) -> Optional[DetectionReport]:
        """Advance the hypergraph past ``records`` (already replayed and
        committed); None while detection is deferred because a
        constraint's table has not replicated yet at this cut."""
        try:
            return self._detector.advance(records)
        except CatalogError:
            return None

    # ----------------------------------------------------------- snapshots

    def checkpoint(self) -> None:
        """Persist a recovery snapshot of the replica database at the
        group's current committed cut.

        The feed never reclaims past a group's snapshot, so after a
        checkpoint the segments below the cut become reclaimable -- and
        a later re-attach restores the snapshot instead of replaying
        them.

        An in-memory feed keeps it only until the group detaches (a
        shard handoff's donor, never a recovery point).

        Raises:
            FeedError: when the replica's consumer was closed or
                abandoned.
        """
        self._mark("checkpoint")
        self._consumer.store_snapshot(snapshot_database(self.db))

    # ----------------------------------------------------------- consuming

    @property
    def graph(self) -> ConflictHypergraph:
        """The maintained conflict hypergraph.

        Unavailable while :attr:`ready` is False.
        """
        assert self._detector.report is not None
        return self._detector.report.hypergraph

    @property
    def ready(self) -> bool:
        """Whether :attr:`graph` is full detection's over the replica
        database: False while detection is deferred (constraint tables
        not replicated yet) and after a sync that raised."""
        return self._detector.report is not None

    @property
    def lag(self) -> int:
        """Feed records past this replica's committed cut (re-scans the
        directory on reader instances, so writer appends show up)."""
        return self._consumer.lag

    @property
    def committed(self) -> dict[str, int]:
        """The consumer group's committed offset per topic (a copy)."""
        return self._consumer.committed

    def sync(self, limit: Optional[int] = None) -> ReplicaSync:
        """Consume pending feed records and advance the hypergraph.

        ``limit`` bounds the records consumed (e.g. to stop at an
        intermediate cut); the commit happens at the batch boundary, so
        every return is a valid restart point.

        Raises:
            FeedError: when the feed dropped history this replica never
                consumed (in-memory overflow, or a reclaim that
                outran this group) -- the replica can no longer converge
                and must be rebuilt from a fresh feed.
            ConstraintError: when the new state leaves the restricted
                foreign-key class (full re-detection would raise too).
        """
        # 1) Replay and 2) commit the cut: a crash from here on re-attaches
        #    *after* these records, and full detection rebuilds the graph.
        records = self._consumer.consume(self._replay, limit)
        sync = ReplicaSync(records=len(records))
        if records or not self.ready:
            # 3) Advance the hypergraph (re-detecting across DDL and
            #    after a failed sync).
            report = self._advance(records)
            sync.mode = "deferred" if report is None else report.mode
            if sync.mode == "incremental":
                sync.delta = report
        sync.lag = self._consumer.lag
        return sync

    def _replay(self, records: list[FeedRecord], lost: bool) -> None:
        """:meth:`sync`'s apply step: advance the replica database (the
        durable part of the cut), batched so a big poll amortizes
        per-record overhead.  A replay that raised leaves the replica
        not :attr:`ready`, and its records are delivered again."""
        if lost:
            raise FeedError(
                f"replica group {self.group!r}: feed history was dropped"
                " before it was consumed; the replica cannot converge"
            )
        if records:
            try:
                with self.db.changes.feed.suspended():
                    replay_feed_records(self.db, records, self.applied_records)
            except BaseException:
                self._detector.report = None
                raise
            self._mark("apply")

    def follow(
        self,
        poll_interval: float = 0.1,
        max_seconds: Optional[float] = None,
        idle_limit: Optional[int] = None,
        on_sync: Optional[Callable[[ReplicaSync], None]] = None,
    ) -> ReplicaFollow:
        """Continuously drain *and live-tail* the feed.

        Each iteration syncs everything pending; when nothing was
        pending the loop sleeps ``poll_interval`` and re-polls -- on a
        reader feed instance that re-scans the directory, so appends
        from the writer process stream in as they are flushed.  The loop
        ends after ``idle_limit`` consecutive empty polls, or once
        ``max_seconds`` elapsed; with neither set it follows forever
        (the daemon form).  ``on_sync`` is called with each non-empty
        :class:`ReplicaSync`.
        """
        started = time.perf_counter()
        summary = ReplicaFollow()
        idle = 0
        while True:
            sync = self.sync()
            if sync.records:
                idle = 0
                summary.syncs += 1
                summary.records += sync.records
                if on_sync is not None:
                    on_sync(sync)
            else:
                idle += 1
                if idle_limit is not None and idle >= idle_limit:
                    break
            elapsed = time.perf_counter() - started
            if max_seconds is not None and elapsed >= max_seconds:
                break
            # sync() already measured the lag at its commit; asking
            # self.lag again would re-scan the directory a second time
            # per idle tick for nothing.
            if not sync.records and sync.lag == 0:
                remaining = (
                    max_seconds - elapsed
                    if max_seconds is not None
                    else poll_interval
                )
                time.sleep(max(min(poll_interval, remaining), 0.0))
        summary.seconds = time.perf_counter() - started
        return summary

    def close(self) -> None:
        """Checkpoint (durable feeds) and detach from the feed.

        The group's durable committed offsets -- and its snapshot --
        survive, so re-attaching under the same name resumes the
        replica even after retention reclaimed the raw prefix.
        """
        if self._closed:
            return
        self._closed = True
        # An abandoned consumer (simulated crash) cannot checkpoint;
        # closing the replica around it must not raise.
        if self._snapshots and not self._consumer.closed:
            self.checkpoint()
        self._consumer.close()
