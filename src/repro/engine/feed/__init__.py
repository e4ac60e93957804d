"""The durable, partitioned change feed.

PR 1 made conflict detection incremental by publishing row mutations to
an in-memory change log; this package is that log grown into a small
**feed** subsystem in the style of a partitioned commit log.  Five
parts that only talk downward: :mod:`.records` (the wire format, pure);
a log -- :mod:`.memory` (never touches the file system) or
:mod:`.segments` (the only code that touches ``topics/``,
``manifest.json`` and ``manifest.lock``); :mod:`.groups` (consumer
registrations -- the only code that touches ``consumers/`` and
``snapshots/``); and this module, :class:`ChangeFeed` and
:class:`FeedConsumer`: the control layer over one log and one group
store picked once, at construction, from ``directory``.

* **Topics.**  Every relation is its own topic; records carry a
  per-topic *offset* (monotonic from 0) plus a global *seq* that totally
  orders records across topics (replay applies records in seq order, so
  cross-relation effects -- e.g. DDL before the rows it enables -- come
  back deterministically).  DDL itself is a topic (:data:`SCHEMA_TOPIC`)
  whose records carry serialized table schemas, which is what lets a
  replica in another process rebuild the database without sharing memory.

* **Consumer groups** (:class:`FeedConsumer`) hold a *committed offset*
  per topic, optionally over a topic-subset subscription; a group's
  retention floor *only pins the topics it subscribes to*, which is
  what lets shard workers (:mod:`repro.conflicts.shard`) each own a
  slice of the relations without one slow shard pinning every other
  shard's history.  A named group may also store a *snapshot* bound to
  its committed offsets, on either kind: a durable feed keeps it as the
  group's recovery point, and a shard handoff adopts a topic from
  whichever group's snapshot covers it.

* **Retention.**  In-memory feeds keep records until every group has
  consumed them, capped at ``max_retained``; past the cap the buffer is
  dropped wholesale and lagging groups observe ``lost=True`` (the
  consumer's cue to fall back to full re-detection).  Durable feeds
  never lose an unconsumed record, and reclaim by one rule
  (:meth:`ChangeFeed.compact`): sealed segments below every recovery
  point are deleted, and the oldest one a recovery point falls inside
  is rewritten down to its surviving records.  A consumer that
  re-attaches needing reclaimed offsets gets the ``no longer retained``
  error and must bootstrap from its snapshot instead (see
  :meth:`FeedConsumer.load_snapshot` and
  :class:`~repro.conflicts.replica.ReplicaHypergraph`).
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Union

from repro.engine.feed.groups import DurableGroupStore, GroupStore
from repro.engine.feed.memory import MemoryLog
from repro.engine.feed.records import (
    RECORD_CHANGE,
    RECORD_CREATE_TABLE,
    RECORD_DROP_TABLE,
    SCHEMA_TOPIC,
    FeedRecord,
    GroupRecovery,
    TopicInfo,
    decode_value,
    deserialize_schema,
    encode_value,
    seq_of,
    serialize_schema,
)
from repro.engine.feed.segments import MANIFEST, SegmentLog, atomic_json
from repro.errors import FeedError, FeedRetentionError

if TYPE_CHECKING:
    import os
    from pathlib import Path

__all__ = [
    "MANIFEST",
    "RECORD_CHANGE",
    "RECORD_CREATE_TABLE",
    "RECORD_DROP_TABLE",
    "SCHEMA_TOPIC",
    "ChangeFeed",
    "FeedConsumer",
    "FeedRecord",
    "GroupRecovery",
    "TopicInfo",
    "atomic_json",
    "decode_value",
    "deserialize_schema",
    "encode_value",
    "serialize_schema",
]


class ChangeFeed:
    """A partitioned change feed, optionally durable.

    Args:
        directory: when given, records are persisted as JSONL segments
            under it and consumer commits under ``consumers/`` (see
            :mod:`.segments` for the lazy open); a second instance
            opened on the same directory is a *reader* that tails the
            writer live.
        max_retained: in-memory retention cap (ignored when durable).
        segment_records: records per segment before rotation.
        fsync: ``"rotate"`` (default; appends are buffered and made
            durable at segment rotation, :meth:`flush` and
            :meth:`close`) or ``"always"`` (flush + fsync every append).
        retention: ``"keep"`` (default; sealed segments live forever)
            or ``"compact"``: :meth:`compact` after every commit, once
            a recovery point is at least half a segment into the oldest
            retained segment or past it.
    """

    def __init__(
        self,
        directory: "Optional[str | os.PathLike[str]]" = None,
        *,
        max_retained: int = 100_000,
        segment_records: int = 4096,
        fsync: str = "rotate",
        retention: str = "keep",
    ) -> None:
        if fsync not in ("rotate", "always"):
            raise FeedError(f"unknown fsync policy {fsync!r}")
        if retention not in ("keep", "compact"):
            raise FeedError(f"unknown retention policy {retention!r}")
        # The one place the storage kind is chosen.
        self.directory: Optional[Path] = None
        self._log: Union[MemoryLog, SegmentLog]
        self._store: GroupStore
        if directory is None:
            self._log = MemoryLog(max_retained)
            self._store = GroupStore()
        else:
            self._log = SegmentLog(directory, segment_records, fsync, retention)
            self.directory = self._log.directory
            self._store = DurableGroupStore(
                self.directory, self._log.manifest_lock
            )
        #: DDL records published through this instance (see
        #: :attr:`schema_version`).
        self._schema_bumps = 0
        self._suspended = 0

    # ------------------------------------------------------------ publishing

    @contextlib.contextmanager
    def suspended(self) -> Iterator[None]:
        """Suppress publishing (used while replaying the feed back into
        storage, so recovery does not re-append its own history)."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    @property
    def durable(self) -> bool:
        """Whether this feed persists to a directory (False: in-memory
        retention only, lagging consumers can lose history)."""
        return self.directory is not None

    @property
    def next_seq(self) -> int:
        """One past the newest global sequence number (on a durable
        feed, recovered lazily from the newest segments on first use)."""
        return self._log.next_seq

    @property
    def schema_version(self) -> int:
        """Bumped by every DDL record (consumers that cached
        schema-derived state rebuild when it moves).  On a durable feed
        this is the end of the DDL topic, so a reader follows the
        writer's DDL as it tails."""
        ddl = self._log.topics.get(SCHEMA_TOPIC)
        return max(self._schema_bumps, ddl.end if ddl is not None else 0)

    @property
    def dropped(self) -> int:
        """Records dropped because nobody was listening (in-memory
        feeds only) -- a replica attaching later checks this to refuse
        an unrebuildable history."""
        return self._log.dropped

    @property
    def has_history(self) -> bool:
        """Whether any records exist (retained or durable)."""
        return any(t.end > 0 for t in self._log.topics.values())

    def publish_change(self, relation: str, tid: int, row: tuple, op: str) -> None:
        """Append one row mutation to the relation's topic.

        In-memory feeds drop the record when no consumer group exists
        (zero cost when unused); durable feeds always append.
        """
        if not self._suspended:
            listening = bool(self._store.committed)
            self._log.append(
                relation, RECORD_CHANGE, listening, (tid, tuple(row), op)
            )

    def publish_schema(
        self, kind: str, table: str, schema: Optional[dict] = None
    ) -> None:
        """Append a DDL record and bump :attr:`schema_version`."""
        if not self._suspended:
            self._schema_bumps += 1
            listening = bool(self._store.committed)
            self._log.append(
                SCHEMA_TOPIC, kind, listening, (None, None, None, table, schema)
            )

    # ------------------------------------------------------------- consuming

    def consumer(
        self,
        group: Optional[str] = None,
        start: str = "end",
        topics: Optional[Iterable[str]] = None,
    ) -> "FeedConsumer":
        """Attach a consumer under ``group``.

        A new group starts at the feed's current ``end`` (or at offset 0
        everywhere with ``start="beginning"`` -- what a replica wants).
        An existing group resumes from its committed offsets, which for
        durable feeds survive process restarts.  New named groups on a
        durable feed are registered on disk immediately, so retention
        respects them before their first commit.

        ``topics`` subscribes the group to a subset of the topic names
        (lower-cased): polls, lag, loss and retention floors are then
        restricted to that subset.  A group's subscription should stay
        stable across re-attaches (it is persisted with the group's
        registration; the value passed here wins).

        Raises:
            FeedError: on a durable feed, for a group name that is not
                a single path component.
        """
        store = self._store
        ephemeral = group is None
        if group is None:
            group = store.anonymous_name()
        known = group in store.committed
        # Ephemeral groups never touch consumers/ on disk: their
        # position is meaningless to any other process, and a stale
        # file under a recycled cursor-<n> name must not be resumed.
        # (Loading also validates the name, before anything -- in
        # memory or on disk -- remembers it.)
        committed = (
            None if known or ephemeral else store.load_committed(group)
        )
        subscription = (
            None
            if topics is None
            else frozenset(topic.lower() for topic in topics)
        )
        store.subscriptions[group] = subscription
        if not known:
            fresh = committed is None
            if committed is None:
                committed = (
                    {}
                    if start == "beginning"
                    else {
                        name: t.end
                        for name, t in self._log.topics.items()
                        if subscription is None or name in subscription
                    }
                )
            store.committed[group] = committed
            if ephemeral:
                store.ephemeral.add(group)
            elif fresh:
                store.register(group)
        return FeedConsumer(self, group)

    def update_subscription(
        self,
        group: str,
        topics: Iterable[str],
        positions: Optional[dict[str, int]] = None,
    ) -> dict[str, int]:
        """Rewrite a named group's topic subscription in place.

        The group keeps its committed offsets for topics it retains;
        a newly subscribed topic starts at its ``positions`` entry
        (omitted = offset 0, a full replay); dropped topics leave the
        registration entirely, releasing their retention hold.  The
        rewrite is persisted under the manifest lock, so a concurrent
        reclaim sees either the old floor set or the new one --
        never a torn mixture.  This is the shard-handoff primitive:
        moving a topic is exactly a resubscription pair (the new owner
        pins the topic at its donor's snapshot cut, then the old owner
        lets it go).  Returns the group's new committed offsets.

        Raises:
            FeedError: for an ephemeral (anonymous) group -- its
                registration is process-local and not transferable.
        """
        store = self._store
        if group in store.ephemeral:
            raise FeedError(
                f"cannot resubscribe ephemeral group {group!r}"
            )
        subscription = frozenset(str(t).lower() for t in topics)
        committed = store.committed.get(group)
        if committed is None:
            committed = store.load_committed(group) or {}
        merged = {
            name: offset
            for name, offset in committed.items()
            if name in subscription
        }
        for name, offset in (positions or {}).items():
            if str(name).lower() in subscription:
                merged.setdefault(str(name).lower(), int(offset))
        store.subscriptions[group] = subscription
        store.committed[group] = merged
        store.register(group)
        self._release()
        return dict(merged)

    def close_group(self, group: str) -> None:
        """Drop a group's in-memory registration (durable commits stay)."""
        self._store.detach(group)
        self._release()

    def drop_group(self, group: str) -> None:
        """Deregister a group *everywhere*: in memory, its committed
        offsets on disk, and its snapshot.  Releases the group's
        retention hold -- the operator's tool for abandoned groups."""
        self._store.drop(group)
        self._release()

    def groups(self) -> dict[str, dict[str, int]]:
        """Registered groups -> committed offsets per topic (a copy)."""
        return {group: dict(c) for group, c in self._store.committed.items()}

    def topics(self) -> list[TopicInfo]:
        """Per-topic statistics, creation order."""
        return [
            TopicInfo(t.name, t.base, t.end, len(t.segments))
            for t in self._log.topics.values()
        ]

    def end_offsets(self) -> dict[str, int]:
        """Topic -> one past the newest offset."""
        return {name: t.end for name, t in self._log.topics.items()}

    def iter_records(
        self,
        start: Optional[dict[str, int]] = None,
        upto: Optional[dict[str, int]] = None,
    ) -> Iterator[FeedRecord]:
        """Stream records with ``start <= offset < upto`` in seq order.

        This is the bounded-memory replay primitive: each topic is read
        lazily by the log's one reader -- the same as :meth:`_poll`'s --
        and the per-topic reads are merged by global ``seq``.  A durable
        topic's sealed segments come straight from their files, a line
        at a time, and are kept nowhere, so replaying an arbitrarily
        long history keeps at most the active tail of each topic
        resident.  ``start`` defaults to the beginning, ``upto`` to the
        current end offsets.

        Validation happens eagerly (before the first record is
        yielded), so a caller never applies half a prefix:

        Raises:
            FeedError: when part of the requested range lies past the
                end of the history (a topic the feed does not know ends
                at 0).
            FeedRetentionError: when part of it is no longer retained
                (in-memory overflow, or a durable reclaim).
        """
        lows = dict(start or {})
        highs = dict(upto) if upto is not None else self.end_offsets()
        plans: list[tuple[str, int, int]] = []
        for name, high in highs.items():
            low = lows.get(name, 0)
            if high <= 0 or high <= low:
                continue
            topic = self._log.topics.get(name)
            if topic is not None and low < topic.base:
                raise FeedRetentionError(
                    f"topic {name!r}: committed prefix up to offset"
                    f" {high} is no longer retained"
                )
            end = 0 if topic is None else topic.end
            if high > end:
                # A commit that outlived its records (e.g. a crash that
                # tore away more history than the offsets acknowledge).
                raise FeedError(
                    f"topic {name!r}: committed offset {high} is past the"
                    f" end of the durable history ({end})"
                )
            plans.append((name, low, high))
        iterators = [
            self._log.read(name, low, high) for name, low, high in plans
        ]
        return heapq.merge(*iterators, key=seq_of)

    # ------------------------------------------------------------ resident

    def resident_records(self) -> int:
        """Feed records currently resident in this instance's memory
        (durable: the active tails, plus on a writer the unreleased rest
        of a segment sealed since); every commit releases what all of
        this instance's groups have passed."""
        return self._log.resident_records()

    @property
    def peak_resident_records(self) -> int:
        """High-water mark of :meth:`resident_records` -- the
        bounded-memory gate."""
        return self._log.peak_resident_records

    @property
    def last_poll_materialized(self) -> int:
        """Records the last ``poll`` pulled out of topic storage -- the
        k-way merge materializes at most ``limit`` plus one look-ahead
        record per topic (pinned by a regression test)."""
        return self._log.materialized

    # ------------------------------------------- group plumbing (consumers)

    def _poll(
        self,
        positions: dict[str, int],
        limit: Optional[int],
        topics: Optional[frozenset[str]],
    ) -> list[FeedRecord]:
        """Merge per-topic reads up to ``limit`` by global seq.

        A bounded k-way merge: each topic contributes a lazy iterator
        and the heap stops pulling once ``limit`` records came out, so a
        slow consumer polling in small batches does O(limit + topics)
        work per poll instead of materializing the whole backlog.
        ``topics`` restricts the merge to a subscription.
        """
        log = self._log
        log.materialized = 0
        iterators = []
        for name, topic in log.topics.items():
            if topics is not None and name not in topics:
                continue
            position = positions.get(name, 0)
            if position < topic.end:
                iterators.append(log.read(name, position))
        merged = heapq.merge(*iterators, key=seq_of)
        if limit is None:
            return list(merged)
        return list(itertools.islice(merged, limit))

    def _lost(
        self, positions: dict[str, int], topics: Optional[frozenset[str]]
    ) -> bool:
        return any(
            positions.get(name, 0) < topic.base
            for name, topic in self._log.topics.items()
            if topics is None or name in topics
        )

    def _lag(
        self, positions: dict[str, int], topics: Optional[frozenset[str]]
    ) -> int:
        return sum(
            max(topic.end - positions.get(name, 0), 0)
            for name, topic in self._log.topics.items()
            if topics is None or name in topics
        )

    def _commit(self, group: str, committed: dict[str, int]) -> None:
        self._store.committed[group] = dict(committed)
        if group not in self._store.ephemeral:
            # The acknowledged records must hit disk before the offsets
            # that acknowledge them: a commit that survives a crash its
            # records did not would strand the group past data that
            # replays at lower offsets.
            self.flush()
            self._store.persist(group)
        self._release()

    def _release(self) -> None:
        """Let the log apply its retention policy after a group moved:
        the cheap pre-check sees this instance's groups (ephemeral
        cursors included), the full scan every registered one."""
        self._log.release(
            self._store.local_contributions, self._store.registered_floors
        )

    # ----------------------------------------------------------- retention

    def compact(self) -> dict[str, int]:
        """Reclaim what every registered group has passed, whatever the
        configured ``retention``: sealed segments below the floor are
        deleted, and the oldest sealed segment the floor falls inside is
        rewritten down to its surviving records, however few it drops.

        A group's floor is its *recovery point*: the committed offsets
        of its latest snapshot when it has one (it can rebuild from
        there and replay forward), its committed offsets otherwise.
        Registered groups on disk (other processes included) and this
        instance's in-memory groups (ephemeral cursors included) all
        hold segments.  Rules and crash-safe write order:
        :meth:`~repro.engine.feed.segments.SegmentLog.reclaim`.

        Returns the new ``base`` per reclaimed topic (empty when nothing
        was reclaimed, and always on an in-memory feed).
        """
        return self._log.reclaim(0, self._store.registered_floors)

    def recovery_points(self) -> dict[str, GroupRecovery]:
        """Every registered group's recovery point -- its snapshot
        offsets when it stored a snapshot, else its committed offsets
        -- plus its topic subscription, on-disk groups of other
        processes included.  This is exactly the state the retention
        floor scan reads, surfaced for operators (the CLI's ``.feed``
        view): a topic is pinned at the minimum floor over the groups
        subscribed to it."""
        return self._store.registered_floors()

    # ------------------------------------------------------------ tailing

    def refresh(self) -> bool:
        """Live tailing: pick up what another process appended, rotated
        or reclaimed since the last scan (a no-op on writers and
        in-memory feeds).  Returns whether anything changed."""
        return self._log.refresh()

    # ------------------------------------------------------------ snapshots

    def store_snapshot(
        self, group: str, committed: dict[str, int], payload: dict
    ) -> None:
        """Persist ``payload`` as ``group``'s recovery snapshot, bound to
        the ``committed`` offsets it captures (see
        :meth:`FeedConsumer.store_snapshot`).  An in-memory feed keeps
        it until the group detaches.

        Raises:
            FeedError: on an in-memory feed, for a group not attached to
                this instance or an ephemeral one.
        """
        self._store.store_snapshot(group, committed, payload)

    def load_snapshot(
        self, group: str
    ) -> Optional[tuple[dict[str, int], dict]]:
        """The group's snapshot as ``(committed offsets, payload)``, or
        None when it never stored one.

        Raises:
            FeedError: when the snapshot file is corrupt.
        """
        return self._store.load_snapshot(group)

    # ------------------------------------------------------------ lifecycle

    def flush(self) -> None:
        """Flush + fsync every active segment writer."""
        self._log.flush()

    def close(self) -> None:
        """Flush and close the durable writers (idempotent)."""
        self._log.close()

    def __enter__(self) -> "ChangeFeed":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class FeedConsumer:
    """One consumer group member: poll / commit with explicit offsets.

    ``poll()`` advances an *uncommitted* read position; ``commit()``
    publishes it as the group's committed offsets (durably, when the
    feed is).  A consumer that crashes between the two is re-delivered
    the uncommitted records on re-attach -- apply-then-commit therefore
    gives exactly-once effects for idempotent appliers.  On a reader
    instance of a durable feed, every poll and lag check first re-scans
    the directory (live tailing); followers take both via :meth:`consume`.
    """

    def __init__(self, feed: ChangeFeed, group: str) -> None:
        self.feed = feed
        self.group = group
        #: the group's topic subscription (None = all topics).
        self.topics = feed._store.subscriptions.get(group)
        self._closed = False
        self.seek(feed._store.committed[group])

    @property
    def committed(self) -> dict[str, int]:
        """The group's committed offset per topic (a copy)."""
        return dict(self.feed._store.committed.get(self.group, {}))

    @property
    def closed(self) -> bool:
        """Whether this consumer was closed or abandoned (its group may
        still be registered -- see :meth:`abandon`)."""
        return self._closed

    @property
    def lag(self) -> int:
        """Records past the *committed* position (includes unpolled;
        subscribed topics only)."""
        if self._closed:
            return 0
        self.feed.refresh()
        return self.feed._lag(
            self.feed._store.committed[self.group], self.topics
        )

    def resubscribe(
        self,
        topics: Iterable[str],
        positions: Optional[dict[str, int]] = None,
    ) -> dict[str, int]:
        """:meth:`ChangeFeed.update_subscription` for this group.  The
        read position resets to the new committed offsets, so call at a
        sync boundary (read position == committed).

        Raises:
            FeedError: on a closed consumer or an ephemeral group.
        """
        if self._closed:
            raise FeedError(
                f"consumer group {self.group!r} is closed"
            )
        merged = self.feed.update_subscription(self.group, topics, positions)
        self.topics = self.feed._store.subscriptions.get(self.group)
        self._positions = dict(merged)
        return merged

    def seek(self, positions: dict[str, int]) -> None:
        """Set the read position per topic (uncommitted until
        :meth:`commit`).  Used by consumers that seeded their state out
        of band -- e.g. a fresh replica bootstrapping from the writer's
        checkpoint because the feed's prefix was already reclaimed.
        Positions outside the subscription are dropped."""
        self._positions = {
            name: offset
            for name, offset in positions.items()
            if self.topics is None or name in self.topics
        }

    def poll(
        self, limit: Optional[int] = None
    ) -> tuple[list[FeedRecord], bool]:
        """Read records past the current position; returns ``(records, lost)``.

        On ``lost`` the list is empty and the position jumps to the feed
        end (the history cannot be recovered; the consumer must rebuild
        derived state from scratch).
        """
        if self._closed:
            return [], False
        self.feed.refresh()
        if self.feed._lost(self._positions, self.topics):
            self.seek(self.feed.end_offsets())
            return [], True
        try:
            records = self.feed._poll(self._positions, limit, self.topics)
        except FeedRetentionError:
            # A foreign reclaim deleted segments between our _lost
            # check and the read (writers never re-scan, so their base
            # can be stale until the miss).  Same contract as any other
            # retention loss: reposition at the end, report lost.
            self.seek(self.feed.end_offsets())
            return [], True
        for record in records:
            self._positions[record.topic] = record.offset + 1
        return records, False

    def commit(self) -> None:
        """Make the current read position the group's committed offsets."""
        if self._closed:
            return
        self.feed._commit(self.group, self._positions)

    def consume(
        self,
        apply: Callable[[list[FeedRecord], bool], object],
        limit: Optional[int] = None,
    ) -> list[FeedRecord]:
        """Poll, apply, commit: the one step every feed follower takes.

        ``apply(records, lost)`` gets what :meth:`poll` returned; the commit
        follows only if the position moved (records, or ``lost``).  If
        ``apply`` raises, the position returns to the committed cut and the
        records are delivered again, as after a restart.  Returns them."""
        records, lost = self.poll(limit)
        try:
            apply(records, lost)
        except BaseException:
            self.seek(self.committed)
            raise
        if records or lost:
            self.commit()
        return records

    def seek_to_end(self) -> None:
        """Jump past all retained (subscribed) records and commit there."""
        self.feed.refresh()
        self.seek(self.feed.end_offsets())
        self.commit()

    def store_snapshot(self, payload: dict) -> None:
        """Persist ``payload`` as this group's recovery snapshot, bound
        to its *committed* offsets.  Retention keeps every record past
        the snapshot, so the group can always restore the payload and
        replay forward -- even after its committed prefix is reclaimed.

        Raises:
            FeedError: on a closed consumer or an ephemeral group.
        """
        if self._closed or self.group in self.feed._store.ephemeral:
            raise FeedError(
                f"snapshots need an open named group, not {self.group!r}"
            )
        self.feed.flush()
        self.feed.store_snapshot(self.group, self.committed, payload)

    def load_snapshot(self) -> Optional[tuple[dict[str, int], dict]]:
        """This group's snapshot ``(committed offsets, payload)``, if any."""
        return self.feed.load_snapshot(self.group)

    def abandon(self) -> None:
        """Mark this consumer dead *without* deregistering its group.

        The crash simulation: the group's registration -- committed
        offsets, subscription, retention floor -- survives in memory
        and on disk exactly as if the owning process had been killed,
        so status views report the group as lagging (not absent) and a
        successor re-attaching under the same name resumes from the
        committed cut.  Compare :meth:`close`, which deregisters the
        group's in-memory state (a deliberate detach)."""
        self._closed = True

    def close(self) -> None:
        """Deregister the group (in-memory registration only)."""
        if not self._closed:
            self._closed = True
            self.feed.close_group(self.group)
