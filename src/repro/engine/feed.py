"""The durable, partitioned change feed.

PR 1 made conflict detection incremental by publishing row mutations to
an in-memory change log.  That log was a single-process ring: one
overflow and the history was gone, and no other process could ever see
it.  This module promotes the log into a small **feed** subsystem in the
style of a partitioned commit log:

* **Topics.**  Every relation is its own topic; records carry a
  per-topic *offset* (monotonic from 0) plus a global *seq* that totally
  orders records across topics (replay applies records in seq order, so
  cross-relation effects -- e.g. DDL before the rows it enables -- come
  back deterministically).  DDL itself is a topic (:data:`SCHEMA_TOPIC`)
  whose records carry serialized table schemas, which is what lets a
  replica in another process rebuild the database without sharing memory.

* **Durability, bounded memory.**  With a ``directory``, every record is
  appended to a JSONL *segment* file per topic.  Segments rotate at
  ``segment_records`` records: the active segment is fsync'd and sealed,
  and a fresh segment becomes active.  Only the **active tail** of each
  topic is resident in memory; sealed segments are read back lazily from
  disk through a small LRU of parsed segments, so opening a feed costs
  O(active segment) resident records -- and an open that only asks for
  :meth:`ChangeFeed.end_offsets` never parses a record body at all (the
  manifest names the segments, their file names carry their start
  offsets, and the active segment is only line-counted).  Replays
  (:meth:`ChangeFeed.iter_records`) stream segment-by-segment.  A torn
  final line (crash mid append) is ignored on read and truncated away
  when a writer re-opens the segment, so replay converges on the longest
  durable prefix.

* **Live tailing.**  A second ``ChangeFeed`` instance opened on the same
  directory is a *reader*: every ``poll`` (and lag/pending check)
  re-scans the manifest and the active segments, so appends made by the
  writer process after the reader opened -- including rotations and new
  topics -- become visible as soon as they are flushed.  One process
  writes, any number tail.

* **Consumer groups.**  A consumer attaches to the feed under a group
  name and gets its own *committed offset* per topic.  ``poll()``
  returns records past the committed position without committing;
  ``commit()`` makes the new position durable (crash between the two
  re-delivers, which is what lets a replica apply-then-commit and stay
  exactly-once over restarts).  Named groups on a durable feed are
  registered on disk at attach time (retention must see them before
  their first commit).  Anonymous groups (``group=None``) are ephemeral
  and auto-named -- the in-process engine cursor uses one.  A group may
  also store a *snapshot*: an opaque payload bound to its committed
  offsets, which is its recovery point once retention has truncated the
  prefix it would otherwise replay.

* **Topic-subset subscriptions.**  A group may subscribe to a subset of
  the topics (``consumer(..., topics=...)``): polls, lag and loss
  checks then see only the subscribed topics, and -- crucially for
  retention -- the group's floor *only pins the topics it subscribes
  to*.  The subscription is persisted with the group's registration and
  with its snapshot offsets, so a foreign process's retention scan
  honors it too.  This is what lets shard workers
  (:mod:`repro.conflicts.shard`) each own a slice of the relations
  without one slow shard pinning every other shard's history.

* **Retention.**  In-memory feeds keep records until every group has
  consumed them, capped at ``max_retained``; past the cap the buffer is
  dropped wholesale and lagging groups observe ``lost=True`` (the
  consumer's cue to fall back to full re-detection).  Durable feeds
  never lose an unconsumed record -- but with ``retention="truncate"``
  sealed segments are *deleted* once every registered durable group has
  committed past them (a group with a snapshot holds segments only back
  to its snapshot's offsets -- its recovery point), and with
  ``retention="compact"`` the oldest *partially*-consumed sealed segment
  is additionally **rewritten**: its surviving records land in a fresh
  segment named by their start offset, so one slow group no longer pins
  a whole segment of disk for the sake of its unread suffix.  The
  manifest records the retention ``base`` per topic; a consumer that
  re-attaches needing reclaimed offsets gets the ``no longer retained``
  error and must bootstrap from its snapshot instead (see
  :meth:`FeedConsumer.load_snapshot` and
  :class:`~repro.conflicts.replica.ReplicaHypergraph`).  Both reclaim
  paths are crash-safe the same way: new files (compaction's rewritten
  segment) are written and fsync'd first, the manifest commits under the
  directory's advisory lock, and only then are victim files unlinked --
  a crash at any point leaves either the old consistent view or the new
  one plus orphan files, which the next open sweeps away.
"""

from __future__ import annotations

import bisect
import contextlib
import heapq
import io
import itertools
import json
import math
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional

from repro.errors import FeedError, FeedRetentionError

#: Record kinds.
RECORD_CHANGE = "change"
RECORD_CREATE_TABLE = "create_table"
RECORD_DROP_TABLE = "drop_table"

#: The topic DDL records are published to.
SCHEMA_TOPIC = "_schema"

#: Reserved pseudo-group prefix for shard-handoff transfer packets: a
#: packet for topic ``t`` is stored as the snapshot of group
#: ``__transfer__.t`` (sidecar subscribed to ``t`` only), so the
#: ordinary retention floor scan pins the topic's records past the
#: handoff cut for exactly as long as the packet exists.
TRANSFER_PREFIX = "__transfer__."

#: Manifest file name inside a feed directory.
MANIFEST = "manifest.json"

#: The non-finite floats JSON cannot carry, by their wire tag.
_NONFINITE = {
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
}


def encode_value(value: object) -> object:
    """JSON-safe encoding of one SQL value.

    ``json.dumps`` would emit the non-standard ``NaN`` / ``Infinity``
    tokens for non-finite REAL values, which strict parsers (and foreign
    JSONL readers) reject.  Those three values are therefore wrapped as
    ``{"$f": "nan" | "inf" | "-inf"}``; everything else passes through
    (no other SQL value is a JSON object, so the wrapper cannot collide).
    """
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return {"$f": "nan"}
        return {"$f": "inf"} if value > 0 else {"$f": "-inf"}
    return value


def decode_value(value: object) -> object:
    """Invert :func:`encode_value`.

    Raises:
        FeedError: for an unknown wrapper object.
    """
    if isinstance(value, dict):
        try:
            return _NONFINITE[value["$f"]]
        except (KeyError, TypeError):
            raise FeedError(f"bad encoded value {value!r}") from None
    return value


def _segment_start(name: str) -> int:
    """The first offset a segment file holds (encoded in its name)."""
    try:
        return int(name.split(".", 1)[0])
    except ValueError:
        raise FeedError(f"bad segment name {name!r}") from None


def _seq_of(record: "FeedRecord") -> int:
    return record.seq


@dataclass(frozen=True)
class FeedRecord:
    """One record of the feed.

    Attributes:
        seq: global sequence number (total order across topics).
        topic: the partition (relation name, or :data:`SCHEMA_TOPIC`).
        offset: position within the topic (monotonic from 0).
        kind: :data:`RECORD_CHANGE` or one of the DDL kinds.
        tid: tuple id (change records).
        row: the row as stored (change records).
        op: ``"insert"`` / ``"delete"`` (change records).
        table: table name (DDL records).
        schema: serialized table schema (``create_table`` records).
    """

    seq: int
    topic: str
    offset: int
    kind: str
    tid: Optional[int] = None
    row: Optional[tuple] = None
    op: Optional[str] = None
    table: Optional[str] = None
    schema: Optional[dict] = None

    def to_json(self) -> str:
        """One JSONL line (compact, stable key order, strictly valid
        JSON: non-finite REAL values are encoded, never emitted as the
        ``NaN`` / ``Infinity`` tokens)."""
        payload: dict[str, object] = {
            "seq": self.seq,
            "topic": self.topic,
            "offset": self.offset,
            "kind": self.kind,
        }
        if self.kind == RECORD_CHANGE:
            payload["tid"] = self.tid
            payload["row"] = [encode_value(v) for v in (self.row or ())]
            payload["op"] = self.op
        else:
            payload["table"] = self.table
            if self.schema is not None:
                payload["schema"] = self.schema
        return json.dumps(payload, separators=(",", ":"), allow_nan=False)

    @staticmethod
    def from_json(line: str) -> "FeedRecord":
        """Parse one JSONL line.

        Raises:
            FeedError: when the line is not a valid record.
        """
        try:
            payload = json.loads(line)
            return FeedRecord(
                seq=payload["seq"],
                topic=payload["topic"],
                offset=payload["offset"],
                kind=payload["kind"],
                tid=payload.get("tid"),
                row=(
                    tuple(decode_value(v) for v in payload["row"])
                    if payload.get("row") is not None
                    else None
                ),
                op=payload.get("op"),
                table=payload.get("table"),
                schema=payload.get("schema"),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise FeedError(f"bad feed record: {line!r}") from exc


@dataclass
class TopicInfo:
    """Public per-topic statistics (the CLI's ``.feed`` view)."""

    name: str
    start: int  # oldest retained offset
    end: int  # one past the newest offset
    segments: int  # durable segment files (0 for in-memory feeds)


@dataclass
class GroupRecovery:
    """One consumer group's recovery state, as retention sees it.

    Attributes:
        group: the group name.
        committed: committed offsets per topic.
        snapshot: the offsets of the group's snapshot, when it stored
            one -- then the group's recovery point (it rebuilds from
            the snapshot and replays forward).
        topics: the group's topic subscription (None = all topics);
            the group's floor only pins subscribed topics.
    """

    group: str
    committed: dict[str, int]
    snapshot: Optional[dict[str, int]] = None
    topics: Optional[frozenset[str]] = None

    @property
    def floor(self) -> dict[str, int]:
        """The offsets retention must keep for this group."""
        return self.snapshot if self.snapshot is not None else self.committed

    @property
    def source(self) -> str:
        """Where the floor comes from: ``"snapshot"`` or ``"committed"``."""
        return "snapshot" if self.snapshot is not None else "committed"

    def lag(self, ends: Mapping[str, int]) -> int:
        """Records between the group's *committed* offsets and the feed
        ``ends`` over its subscribed topics -- what a dead group still
        owes, computable from its registration alone."""
        return sum(
            max(end - self.committed.get(name, 0), 0)
            for name, end in ends.items()
            if self.topics is None or name in self.topics
        )


def _floor_of(
    name: str,
    contributions: Iterable[tuple[dict[str, int], Optional[frozenset[str]]]],
) -> int:
    """The retention floor of one topic over (offsets, subscription)
    contributions.  Groups not subscribed to the topic do not pin it; a
    topic with no subscriber at all stays pinned at 0 (conservative --
    nothing is reclaimed that a later subscribe-all attach could want).
    """
    floors = [
        offsets.get(name, 0)
        for offsets, topics in contributions
        if topics is None or name in topics
    ]
    return min(floors) if floors else 0


class _Topic:
    """One partition: the resident tail plus the durable segment chain.

    ``records`` holds the contiguous offsets ``[tail_start, end)``.  For
    in-memory feeds that is every retained record (``base`` always
    equals ``tail_start``); for durable feeds it is at most the newest
    -- active -- segment, parsed lazily, and everything below
    ``tail_start`` is read back from the sealed segment files on demand.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.records: list[FeedRecord] = []
        self.base = 0  # oldest retained offset (truncation point)
        self.tail_start = 0  # offset of records[0]
        self.end = 0  # one past the newest offset
        self.segments: list[str] = []  # durable file names, oldest first
        self.tail_loaded = True  # False: durable tail not parsed yet
        self.tail_bytes = 0  # validated bytes of the newest segment

    def drop_retained(self) -> None:
        self.base = self.tail_start = self.end
        self.records.clear()


class _SegmentCache:
    """A small LRU of parsed sealed segments, keyed by (topic, name).

    Sealed segments are immutable, so entries never go stale; eviction
    is purely a memory bound.  Truncation discards the entries of the
    segments it deletes.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = max(capacity, 1)
        self._entries: "OrderedDict[tuple[str, str], list[FeedRecord]]" = (
            OrderedDict()
        )

    @property
    def records(self) -> int:
        """Records currently held (for resident-memory accounting)."""
        return sum(len(records) for records in self._entries.values())

    def get(self, key: tuple[str, str]) -> Optional[list[FeedRecord]]:
        records = self._entries.get(key)
        if records is not None:
            self._entries.move_to_end(key)
        return records

    def put(self, key: tuple[str, str], records: list[FeedRecord]) -> None:
        self._entries[key] = records
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def discard(self, key: tuple[str, str]) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()


class ChangeFeed:
    """A partitioned change feed, optionally durable.

    Args:
        directory: when given, records are persisted as JSONL segments
            under it and consumer commits under ``consumers/``; an
            existing directory is opened *lazily* (only the newest
            segment of each topic is even line-counted) and sealed
            segments are streamed from disk on demand.
        max_retained: in-memory retention cap (ignored when durable).
        segment_records: records per segment before rotation.
        fsync: ``"rotate"`` (default; appends are buffered and made
            durable at segment rotation, :meth:`flush` and
            :meth:`close`) or ``"always"`` (flush + fsync every append).
        retention: ``"keep"`` (default; sealed segments live forever),
            ``"truncate"`` (sealed segments are deleted once every
            registered durable group -- and every group snapshot -- has
            passed them; see :meth:`truncate`), or ``"compact"``
            (truncation plus rewriting the surviving records of the
            oldest partially-consumed sealed segment; see
            :meth:`compact`).
        cache_segments: capacity of the parsed-sealed-segment LRU.
    """

    def __init__(
        self,
        directory: Optional[str | os.PathLike] = None,
        *,
        max_retained: int = 100_000,
        segment_records: int = 4096,
        fsync: str = "rotate",
        retention: str = "keep",
        cache_segments: int = 4,
    ) -> None:
        if fsync not in ("rotate", "always"):
            raise FeedError(f"unknown fsync policy {fsync!r}")
        if retention not in ("keep", "truncate", "compact"):
            raise FeedError(f"unknown retention policy {retention!r}")
        self.directory = Path(directory) if directory is not None else None
        self.max_retained = max_retained
        self.segment_records = segment_records
        self.fsync = fsync
        self.retention = retention
        self._next_seq: Optional[int] = 0
        #: bumped by every DDL record (consumers that cached
        #: schema-derived state rebuild when it moves).
        self.schema_version = 0
        self._topics: dict[str, _Topic] = {}
        self._groups: dict[str, dict[str, int]] = {}  # group -> committed
        #: group -> subscribed topic names (None = all topics).
        self._subscriptions: dict[str, Optional[frozenset[str]]] = {}
        self._ephemeral: set[str] = set()  # anonymous groups (no disk state)
        #: in-memory transfer packets (durable feeds store them as
        #: ``__transfer__.<topic>`` snapshots instead).
        self._transfers: dict[str, tuple[int, dict]] = {}
        self._next_anonymous = 0
        self._suspended = 0
        #: records dropped because nobody was listening (in-memory feeds
        #: only) -- a replica attaching later checks this to refuse an
        #: unrebuildable history.
        self.dropped = 0
        self._writers: dict[str, io.TextIOWrapper] = {}  # topic -> active file
        self._active_counts: dict[str, int] = {}  # records in active segment
        #: whether this instance ever appended -- a durable instance
        #: that never did is a *reader* and re-scans the directory on
        #: poll (live tailing); the single writer's memory is
        #: authoritative, so writers never re-scan.
        self._published = False
        self._cache = _SegmentCache(cache_segments)
        self._streaming = 0  # records held by in-flight stream chunks
        self._manifest_lock_depth = 0
        #: (st_mtime_ns, st_size) of the manifest at last read -- lets
        #: refresh() skip the JSON parse when nothing rotated/truncated.
        self._manifest_stat: Optional[tuple[int, int]] = None
        #: high-water mark of records resident in this instance (tails +
        #: segment cache + streaming chunks) -- the bounded-memory gate.
        self.peak_resident_records = 0
        #: records the last ``poll`` pulled out of topic storage -- the
        #: k-way merge materializes at most ``limit`` plus one look-ahead
        #: record per topic (pinned by a regression test).
        self.last_poll_materialized = 0
        if self.directory is not None:
            self._open_durable()

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
    def is_suspended(self) -> bool:
        """Whether publishing is currently suspended (replay in
        progress); nested :meth:`suspended` blocks stack."""
        return self._suspended > 0

    @property
    def durable(self) -> bool:
        """Whether this feed persists to a directory (False: in-memory
        retention only, lagging consumers can lose history)."""
        return self.directory is not None

    @property
    def next_seq(self) -> int:
        """One past the newest global sequence number.

        Lazily recovered from the durable tail on first use, so opening
        a feed only to read its offsets never parses a record body.
        """
        if self._next_seq is None:
            self._next_seq = self._scan_next_seq()
        return self._next_seq

    @next_seq.setter
    def next_seq(self, value: int) -> None:
        """Set the recovered sequence cursor (manifest reopen path)."""
        self._next_seq = value

    @property
    def has_history(self) -> bool:
        """Whether any records exist (retained or durable)."""
        if self._topics:
            return any(t.end > 0 for t in self._topics.values())
        return bool(self._next_seq)

    def publish_change(self, relation: str, tid: int, row: tuple, op: str) -> None:
        """Append one row mutation to the relation's topic.

        In-memory feeds drop the record when no consumer group exists
        (zero cost when unused); durable feeds always append.
        """
        if self.is_suspended:
            return
        if not self.durable and not self._groups:
            self.dropped += 1
            return
        topic = self._topic(relation)
        record = FeedRecord(
            seq=self.next_seq,
            topic=topic.name,
            offset=topic.end,
            kind=RECORD_CHANGE,
            tid=tid,
            row=tuple(row),
            op=op,
        )
        self._append(topic, record)

    def publish_schema(
        self, kind: str, table: str, schema: Optional[dict] = None
    ) -> None:
        """Append a DDL record and bump :attr:`schema_version`."""
        if self.is_suspended:
            return
        self.schema_version += 1
        if not self.durable and not self._groups:
            self.dropped += 1
            return
        topic = self._topic(SCHEMA_TOPIC)
        record = FeedRecord(
            seq=self.next_seq,
            topic=SCHEMA_TOPIC,
            offset=topic.end,
            kind=kind,
            table=table,
            schema=schema,
        )
        self._append(topic, record)

    def _append(self, topic: _Topic, record: FeedRecord) -> None:
        self.next_seq = record.seq + 1
        if self.durable:
            # The write prepares the tail (loads / repairs the resumed
            # segment) *before* the record joins it.
            self._write_durable(topic, record)
            topic.records.append(record)
            topic.end += 1
            self._published = True
            self._note_peak()
            if self._active_counts[topic.name] >= self.segment_records:
                self._rotate(topic)
            return
        topic.records.append(record)
        topic.end += 1
        retained = sum(len(t.records) for t in self._topics.values())
        self._note_peak()
        if retained > self.max_retained:
            # Overflow: drop everything; lagging groups observe ``lost``
            # and fall back to full re-detection.
            for t in self._topics.values():
                t.drop_retained()

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
        """
        ephemeral = group is None
        if group is None:
            group = f"cursor-{self._next_anonymous}"
            self._next_anonymous += 1
        subscription = (
            None
            if topics is None
            else frozenset(topic.lower() for topic in topics)
        )
        self._subscriptions[group] = subscription
        if group not in self._groups:
            # Ephemeral groups never touch consumers/ on disk: their
            # position is meaningless to any other process, and a stale
            # file under a recycled cursor-<n> name must not be resumed.
            committed = None if ephemeral else self._load_committed(group)
            fresh = committed is None
            if committed is None:
                committed = (
                    {}
                    if start == "beginning"
                    else {
                        name: t.end
                        for name, t in self._topics.items()
                        if subscription is None or name in subscription
                    }
                )
            self._groups[group] = committed
            if ephemeral:
                self._ephemeral.add(group)
            elif self.durable and fresh:
                # Register before the group's first commit, serialized
                # with truncation's consumers/ scan (which runs under
                # the same lock): a concurrent truncation either sees
                # this group's floor or completes before it attaches --
                # never in between.
                with self._manifest_lock():
                    self._store_committed(group, committed)
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
        truncation sees either the old floor set or the new one --
        never a torn mixture.  This is the shard-handoff primitive:
        transferring a topic is exactly a resubscription pair (the new
        owner pins the topic at the handoff cut, then the old owner
        releases it).  Returns the group's new committed offsets.

        Raises:
            FeedError: for an ephemeral (anonymous) group -- its
                registration is process-local and not transferable.
        """
        if group in self._ephemeral:
            raise FeedError(
                f"cannot resubscribe ephemeral group {group!r}"
            )
        subscription = frozenset(str(t).lower() for t in topics)
        committed = self._groups.get(group)
        if committed is None:
            committed = self._load_committed(group) or {}
        fresh = {
            str(name).lower(): int(offset)
            for name, offset in (positions or {}).items()
        }
        merged = {
            name: offset
            for name, offset in committed.items()
            if name in subscription
        }
        for name, offset in fresh.items():
            if name in subscription:
                merged.setdefault(name, offset)
        self._subscriptions[group] = subscription
        self._groups[group] = merged
        if self.durable:
            with self._manifest_lock():
                self._store_committed(group, merged)
        self._compact()
        return dict(merged)

    def close_group(self, group: str) -> None:
        """Drop a group's in-memory registration (durable commits stay)."""
        self._groups.pop(group, None)
        self._subscriptions.pop(group, None)
        self._ephemeral.discard(group)
        self._compact()

    def drop_group(self, group: str) -> None:
        """Deregister a group *everywhere*: in memory, its committed
        offsets on disk, and its snapshot.  Releases the group's
        retention hold -- the operator's tool for abandoned groups."""
        self._groups.pop(group, None)
        self._subscriptions.pop(group, None)
        self._ephemeral.discard(group)
        if self.durable:
            for path in (
                self._consumers_dir() / f"{group}.json",
                self._snapshots_dir() / f"{group}.json",
                self._snapshots_dir() / f"{group}.offsets.json",
            ):
                with contextlib.suppress(OSError):
                    path.unlink()
        self._compact()

    def groups(self) -> dict[str, dict[str, int]]:
        """Registered groups -> committed offsets per topic (a copy)."""
        return {group: dict(c) for group, c in self._groups.items()}

    def topics(self) -> list[TopicInfo]:
        """Per-topic statistics, creation order."""
        return [
            TopicInfo(
                name=t.name,
                start=t.base,
                end=t.end,
                segments=len(t.segments),
            )
            for t in self._topics.values()
        ]

    def end_offsets(self) -> dict[str, int]:
        """Topic -> one past the newest offset."""
        return {name: t.end for name, t in self._topics.items()}

    def iter_records(
        self,
        start: Optional[dict[str, int]] = None,
        upto: Optional[dict[str, int]] = None,
    ) -> Iterator[FeedRecord]:
        """Stream records with ``start <= offset < upto`` in seq order.

        This is the bounded-memory replay primitive: durable topics are
        read one segment at a time straight from disk (no tail loading,
        no LRU pollution) and the per-topic streams are merged by global
        ``seq``, so replaying an arbitrarily long history keeps at most
        one segment per topic resident.  ``start`` defaults to the
        beginning, ``upto`` to the current end offsets.

        Validation happens eagerly (before the first record is
        yielded), so a caller never applies half a prefix:

        Raises:
            FeedError: when part of the requested range is no longer
                retained (in-memory overflow, or durable truncation), or
                lies past the end of the history.
        """
        lows = dict(start or {})
        highs = dict(upto) if upto is not None else self.end_offsets()
        plans: list[tuple[_Topic, int, int]] = []
        for name, high in highs.items():
            low = lows.get(name, 0)
            if high <= 0 or high <= low:
                continue
            topic = self._topics.get(name)
            if topic is None or low < topic.base:
                raise FeedRetentionError(
                    f"topic {name!r}: committed prefix up to offset"
                    f" {high} is no longer retained"
                )
            if high > topic.end:
                # A commit that outlived its records (e.g. a crash that
                # tore away more history than the offsets acknowledge).
                raise FeedError(
                    f"topic {name!r}: committed offset {high} is past the"
                    f" end of the durable history ({topic.end})"
                )
            plans.append((topic, low, high))
        iterators = [
            self._iter_stream(topic, low, high) for topic, low, high in plans
        ]
        return heapq.merge(*iterators, key=_seq_of)

    def records_upto(self, committed: dict[str, int]) -> list[FeedRecord]:
        """All records strictly below ``committed``, seq order.

        This is the *committed prefix* a re-attaching replica rebuilds
        its state from -- materialized; prefer :meth:`iter_records` for
        long histories.

        Raises:
            FeedError: when part of the prefix is no longer retained
                (in-memory overflow, or durable retention truncation).
        """
        return list(self.iter_records(upto=committed))

    # ------------------------------------------------------------ resident

    def resident_records(self) -> int:
        """Feed records currently resident in this instance's memory:
        active tails + the sealed-segment LRU + in-flight stream chunks."""
        return (
            sum(len(t.records) for t in self._topics.values())
            + self._cache.records
            + self._streaming
        )

    def _note_peak(self, extra: int = 0) -> None:
        resident = self.resident_records() + extra
        if resident > self.peak_resident_records:
            self.peak_resident_records = resident

    # ------------------------------------------- group plumbing (consumers)

    def _topic(self, name: str) -> _Topic:
        topic = self._topics.get(name)
        if topic is None:
            topic = _Topic(name)
            self._topics[name] = topic
        return topic

    def _subscribed(self, group: str, topic: str) -> bool:
        subscription = self._subscriptions.get(group)
        return subscription is None or topic in subscription

    def _poll(
        self,
        positions: dict[str, int],
        limit: Optional[int],
        topics: Optional[frozenset[str]] = None,
    ) -> list[FeedRecord]:
        """Merge per-topic reads up to ``limit`` by global seq.

        A bounded k-way merge: each topic contributes a lazy iterator
        and the heap stops pulling once ``limit`` records came out, so a
        slow consumer polling in small batches does O(limit + topics)
        work per poll instead of materializing the whole backlog.
        ``topics`` restricts the merge to a subscription.
        """
        self.last_poll_materialized = 0
        iterators = []
        for name, topic in self._topics.items():
            if topics is not None and name not in topics:
                continue
            position = positions.get(name, 0)
            if position < topic.end:
                iterators.append(self._iter_topic(topic, position))
        merged = heapq.merge(*iterators, key=_seq_of)
        if limit is None:
            return list(merged)
        return list(itertools.islice(merged, limit))

    def _iter_topic(
        self, topic: _Topic, start: int, upto: Optional[int] = None
    ) -> Iterator[FeedRecord]:
        """Lazily yield ``[start, upto)`` of one topic (poll path).

        Sealed segments go through the LRU (repeated small polls inside
        the same segment parse it once); the tail is served resident.
        """
        end = topic.end if upto is None else min(upto, topic.end)
        position = max(start, topic.base)
        index: Optional[int] = None
        while self.durable and position < min(topic.tail_start, end):
            # The walk is strictly sequential: bisect once, then carry
            # the segment index forward (catch-up over S sealed
            # segments is O(S), not O(S^2) name re-parses).
            if index is None:
                index = self._segment_index(topic, position)
            else:
                index += 1
            records = self._segment_records(topic, index)
            first = _segment_start(topic.segments[index])
            for record in records[position - first :]:
                if record.offset >= end:
                    return
                self.last_poll_materialized += 1
                yield record
            position = first + len(records)
        if position >= end:
            return
        if self.durable:
            self._load_tail(topic)
            end = min(end, topic.end)  # a torn tail may shrink on parse
        for index in range(position - topic.tail_start, len(topic.records)):
            record = topic.records[index]
            if record.offset >= end:
                return
            self.last_poll_materialized += 1
            yield record

    def _iter_stream(
        self, topic: _Topic, start: int, upto: int
    ) -> Iterator[FeedRecord]:
        """Stream ``[start, upto)`` reading segment files directly.

        The bounded-memory replay path: no tail residency, no LRU
        pollution -- each segment's records are dropped as soon as the
        stream moves past them.
        """
        if not self.durable:
            yield from self._iter_topic(topic, start, upto)
            return
        position = max(start, topic.base)
        for index, name in enumerate(topic.segments):
            last = index == len(topic.segments) - 1
            first = _segment_start(name)
            seg_end = (
                topic.end
                if last
                else _segment_start(topic.segments[index + 1])
            )
            if seg_end <= position:
                continue
            if first >= upto:
                return
            if last and topic.tail_loaded:
                # The tail is already resident (writer, or a prior
                # poll): serve it from memory.
                for i in range(position - topic.tail_start, len(topic.records)):
                    record = topic.records[i]
                    if record.offset >= upto:
                        return
                    yield record
                return
            records = self._read_segment(
                topic, name, first, seg_end - first, sealed=not last
            )
            self._streaming += len(records)
            self._note_peak()
            try:
                for record in records[position - first :]:
                    if record.offset >= upto:
                        return
                    yield record
            finally:
                self._streaming -= len(records)
            position = seg_end

    def _segment_index(self, topic: _Topic, offset: int) -> int:
        starts = [_segment_start(name) for name in topic.segments]
        return max(bisect.bisect_right(starts, offset) - 1, 0)

    def _segment_records(self, topic: _Topic, index: int) -> list[FeedRecord]:
        """A sealed segment's parsed records, through the LRU."""
        name = topic.segments[index]
        key = (topic.name, name)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        first = _segment_start(name)
        expected = _segment_start(topic.segments[index + 1]) - first
        records = self._read_segment(topic, name, first, expected, sealed=True)
        self._cache.put(key, records)
        self._note_peak()
        return records

    def _read_segment(
        self, topic: _Topic, name: str, first: int, expected: int, sealed: bool
    ) -> list[FeedRecord]:
        path = self._segment_dir(topic.name) / name
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            if sealed:
                # Almost certainly a foreign process's retention
                # truncation (writers never re-scan the manifest, so
                # their base can be stale): fold the disk state in --
                # later _lost() checks then see the raised base -- and
                # signal retention loss, which consumers map to the
                # rebuild-from-scratch fallback.  Lock-free by design:
                # this path only *reads* the foreign manifest and raises
                # our in-memory base; it never writes MANIFEST.
                # hippolint: disable-next-line=HL001,HL014 -- read-only fold
                self._merge_disk_retention()
                raise FeedRetentionError(
                    f"topic {topic.name!r}: sealed segment {name} is"
                    " missing -- its offsets are no longer retained"
                ) from None
            return []  # rotation crashed before the first append
        records, _good = self._parse_lines(data, repair=not sealed, where=path)
        if sealed:
            if len(records) != expected or any(
                record.offset != first + i for i, record in enumerate(records)
            ):
                raise FeedError(
                    f"corrupt sealed segment {path}: expected {expected}"
                    f" records from offset {first}"
                )
        return records

    def _lost(
        self,
        positions: dict[str, int],
        topics: Optional[frozenset[str]] = None,
    ) -> bool:
        return any(
            positions.get(name, 0) < topic.base
            for name, topic in self._topics.items()
            if topics is None or name in topics
        )

    def _lag(
        self,
        positions: dict[str, int],
        topics: Optional[frozenset[str]] = None,
    ) -> int:
        return sum(
            max(topic.end - positions.get(name, 0), 0)
            for name, topic in self._topics.items()
            if topics is None or name in topics
        )

    def _commit(self, group: str, committed: dict[str, int]) -> None:
        self._groups[group] = dict(committed)
        if self.durable and group not in self._ephemeral:
            # The acknowledged records must hit disk before the offsets
            # that acknowledge them: a commit that survives a crash its
            # records did not would strand the group past data that
            # replays at lower offsets.
            self.flush()
            self._store_committed(group, committed)
        self._compact()

    def _compact(self) -> None:
        """In-memory: drop records every group consumed.  Durable with
        ``retention="truncate"``: delete fully-consumed sealed segments;
        with ``retention="compact"``: additionally rewrite the oldest
        partially-consumed sealed segment down to its surviving suffix."""
        if self.durable:
            if self.retention in ("truncate", "compact"):
                self._maybe_reclaim(rewrite=self.retention == "compact")
            return
        for name, topic in self._topics.items():
            if not self._groups:
                topic.drop_retained()
                continue
            lows = [
                committed.get(name, 0)
                for group, committed in self._groups.items()
                if self._subscribed(group, name)
            ]
            if not lows:
                # No *subscribed* listener right now -- but groups
                # exist, and a subscribe-all consumer may still attach:
                # retain, exactly like the durable floor pins an
                # unsubscribed topic at 0 (the overflow cap is the
                # backstop, and it marks lagging groups as lost).
                continue
            low = min(lows)
            if low > topic.tail_start:
                del topic.records[: low - topic.tail_start]
                topic.tail_start = topic.base = low

    # ----------------------------------------------------------- retention

    def _maybe_reclaim(self, rewrite: bool) -> None:
        """Run :meth:`truncate` / :meth:`compact` only when this
        instance's own groups already allow reclaiming something (the
        full scan reads every consumer/snapshot file; don't pay it on
        every commit)."""
        min_reclaim = self._auto_min_reclaim() if rewrite else 0
        if self._groups:
            local = [
                (committed, self._subscriptions.get(group))
                for group, committed in self._groups.items()
            ]
            for name, topic in self._topics.items():
                if len(topic.segments) < 2:
                    continue
                floor = _floor_of(name, local)
                if _segment_start(topic.segments[1]) <= floor:
                    break
                if (
                    rewrite
                    and floor - _segment_start(topic.segments[0])
                    >= min_reclaim
                ):
                    break
            else:
                return
        if rewrite:
            self.compact(min_reclaim=min_reclaim)
        else:
            self.truncate()

    def _auto_min_reclaim(self) -> int:
        """Records the automatic (post-commit) compaction must be able
        to reclaim from the straddling segment before it rewrites it --
        hysteresis so a group inching through a segment does not trigger
        an O(segment) rewrite on every commit."""
        return max(self.segment_records // 2, 1)

    def truncate(self) -> dict[str, int]:
        """Delete sealed segments every registered group has passed.

        A group's retention floor is its *recovery point*: the committed
        offsets of its latest snapshot when it has one (it can rebuild
        from there and replay forward), its committed offsets otherwise.
        Registered groups on disk (other processes included), their
        snapshots, and this instance's in-memory groups (ephemeral
        cursors included) all hold segments; with no groups at all
        nothing is deleted.  The newest segment of a topic is never
        deleted.  The manifest (with the new per-topic ``base``) is
        committed *before* any file is unlinked -- a crash in between
        leaves orphan files, swept by the next open.

        Returns the new ``base`` per truncated topic (empty when nothing
        was deleted).
        """
        return self._reclaim(rewrite=False, min_reclaim=0)

    def compact(self, min_reclaim: int = 0) -> dict[str, int]:
        """Truncate, then rewrite the oldest straddling sealed segment.

        Everything :meth:`truncate` deletes is deleted; on top of that,
        when the retention floor falls *inside* a sealed segment (a
        group mid-way through it), that segment's surviving records
        ``[floor, end)`` are rewritten into a fresh segment named by
        ``floor`` -- reclaiming the consumed prefix a whole-segment
        policy would keep pinned.  Offsets and seqs of the surviving
        records are unchanged; only the file boundary moves.

        Crash-safe write order: the rewritten segment is written and
        fsync'd under the manifest lock *before* the manifest commits,
        and the old file is unlinked only after; a crash leaves either
        the old view (plus a swept-on-next-open orphan rewrite) or the
        new view (plus a swept orphan victim).

        Args:
            min_reclaim: rewrite only when at least this many records of
                the straddling segment can be reclaimed (0 = any).

        Returns the new ``base`` per reclaimed topic.
        """
        return self._reclaim(rewrite=True, min_reclaim=min_reclaim)

    def _reclaim(self, rewrite: bool, min_reclaim: int) -> dict[str, int]:
        if not self.durable:
            return {}
        with self._manifest_lock():
            # Work from the live layout under the lock: a concurrent
            # rotation can no longer slip between our manifest read and
            # our store.
            self.refresh()
            contributions = self._floor_contributions()
            if not contributions:
                return {}
            # Phase 1 -- plan.  Pure reads: a corrupt sealed segment (or
            # a foreign reclaim racing us) surfaces here, before any
            # topic's in-memory state was touched.
            plans: list[
                tuple[_Topic, int, int, list[int], Optional[list[FeedRecord]]]
            ] = []
            for name, topic in self._topics.items():
                if len(topic.segments) < 2:
                    continue
                floor = _floor_of(name, contributions)
                starts = [_segment_start(s) for s in topic.segments]
                keep = 0
                while (
                    keep + 1 < len(topic.segments)
                    and starts[keep + 1] <= floor
                ):
                    keep += 1
                survivors: Optional[list[FeedRecord]] = None
                if (
                    rewrite
                    and keep + 1 < len(topic.segments)
                    and starts[keep] < floor < starts[keep + 1]
                    and floor - starts[keep] >= max(min_reclaim, 1)
                ):
                    try:
                        records = self._segment_records(topic, keep)
                    except FeedRetentionError:
                        records = None  # a foreign reclaim beat us here
                    if records is not None:
                        survivors = records[floor - starts[keep] :]
                if keep or survivors is not None:
                    plans.append((topic, keep, floor, starts, survivors))
            if not plans:
                return {}
            # Phase 2 -- apply: write the rewritten segments, repoint
            # the topics, commit the manifest.  Any failure before the
            # commit rolls the in-memory state back, so this instance
            # never serves a layout the on-disk manifest does not name
            # (the written files are then orphans the next open sweeps).
            saved = [
                (topic, list(topic.segments), topic.base)
                for topic, *_ in plans
            ]
            reclaimed: dict[str, int] = {}
            removed: list[tuple[str, str]] = []
            added: list[tuple[str, str]] = []
            try:
                for topic, keep, floor, starts, survivors in plans:
                    if keep:
                        removed.extend(
                            (topic.name, victim)
                            for victim in topic.segments[:keep]
                        )
                        topic.segments = topic.segments[keep:]
                        topic.base = starts[keep]
                        reclaimed[topic.name] = topic.base
                    if survivors is not None:
                        removed.append((topic.name, topic.segments[0]))
                        name = self._segment_name(floor)
                        self._write_sealed(topic, name, survivors)
                        added.append((topic.name, name))
                        topic.segments[0] = name
                        topic.base = floor
                        reclaimed[topic.name] = floor
                self._store_manifest()
            except BaseException:
                for topic, segments, base in saved:
                    topic.segments = segments
                    topic.base = base
                for key in added:
                    self._cache.discard(key)
                raise
        for name, victim in removed:
            self._cache.discard((name, victim))
            with contextlib.suppress(OSError):
                (self._segment_dir(name) / victim).unlink()
        return reclaimed

    def _write_sealed(
        self, topic: _Topic, name: str, records: list[FeedRecord]
    ) -> None:
        """Write a complete sealed segment file (fsync'd) and cache it."""
        path = self._segment_dir(topic.name) / name
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(record.to_json() + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._cache.put((topic.name, name), records)

    def _floor_contributions(
        self,
    ) -> list[tuple[dict[str, int], Optional[frozenset[str]]]]:
        """One (floor offsets, subscription) pair per consumer retention
        respects.  A group's floor only pins the topics it subscribes
        to (``None`` = all topics)."""
        return [
            (recovery.floor, recovery.topics)
            for recovery in self._registered_floors().values()
        ]

    def _registered_floors(self) -> dict[str, "GroupRecovery"]:
        """Every registered group's recovery state, on-disk groups of
        other processes included (durable feeds)."""
        by_group: dict[str, GroupRecovery] = {}
        if self.durable:
            directory = self._consumers_dir()
            if directory.exists():
                for path in sorted(directory.glob("*.json")):
                    offsets, topics = self._parse_offsets_file(path)
                    by_group[path.stem] = GroupRecovery(
                        group=path.stem, committed=offsets, topics=topics
                    )
            snapshots = self._snapshots_dir()
            if snapshots.exists():
                for path in sorted(snapshots.glob("*.offsets.json")):
                    group = path.name[: -len(".offsets.json")]
                    offsets, topics = self._parse_offsets_file(path)
                    entry = by_group.get(group)
                    if entry is None:
                        entry = GroupRecovery(
                            group=group, committed={}, topics=topics
                        )
                        by_group[group] = entry
                    elif topics is not None and entry.topics is None:
                        # The registration is the live subscription
                        # truth (a resubscribe rewrites it immediately;
                        # the sidecar only updates at checkpoint time).
                        # A topic subscribed but not yet covered by the
                        # snapshot pins at 0 -- conservative until the
                        # group's next checkpoint.
                        entry.topics = topics
                    # The snapshot is the group's recovery point: it
                    # overrides the (>=) committed offsets.
                    entry.snapshot = offsets
        for group, committed in self._groups.items():
            by_group.setdefault(
                group,
                GroupRecovery(
                    group=group,
                    committed=dict(committed),
                    topics=self._subscriptions.get(group),
                ),
            )
        return by_group

    @staticmethod
    def _parse_offsets_file(
        path: Path,
    ) -> tuple[dict[str, int], Optional[frozenset[str]]]:
        """One parse for a registration / sidecar file: its committed
        offsets plus its ``topics`` subscription (None = all)."""
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            offsets = {str(k): int(v) for k, v in data["committed"].items()}
        except (ValueError, KeyError) as exc:
            raise FeedError(f"corrupt consumer state {path}") from exc
        topics = data.get("topics")
        if topics is None:
            return offsets, None
        return offsets, frozenset(str(t) for t in topics)

    def recovery_points(self) -> dict[str, "GroupRecovery"]:
        """Every registered group's recovery point -- its snapshot
        offsets when it stored a snapshot, else its committed offsets
        -- plus its topic subscription.  This is exactly the state the
        retention floor scan reads, surfaced for operators (the CLI's
        ``.feed`` view): a topic is pinned at the minimum floor over
        the groups subscribed to it."""
        return self._registered_floors()

    # ------------------------------------------------------------ tailing

    def refresh(self) -> bool:
        """Re-scan the manifest and active segments for new records.

        Live tailing: a durable *reader* instance (this process never
        appended) picks up appends, rotations, new topics, and
        truncations another process performed since the last scan.
        Writers and in-memory feeds are authoritative in memory, so the
        call is a no-op there.  Returns whether anything changed.
        """
        if not self.durable or self._published or self._writers:
            return False
        path = self.directory / MANIFEST
        try:
            stat = path.stat()
        except FileNotFoundError:
            return False
        signature = (stat.st_mtime_ns, stat.st_size)
        if signature == self._manifest_stat:
            # Nothing rotated or truncated since the last scan: skip the
            # JSON parse and only look for appends to the known tails.
            changed = False
            for topic in self._topics.values():
                if self._extend_tail(topic):
                    changed = True
            if changed:
                self._next_seq = None
                schema_topic = self._topics.get(SCHEMA_TOPIC)
                if schema_topic is not None:
                    self.schema_version = max(
                        self.schema_version, schema_topic.end
                    )
            return changed
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
            topics = manifest["topics"]
        except FileNotFoundError:
            return False
        except (ValueError, KeyError) as exc:
            raise FeedError(f"corrupt manifest {path}") from exc
        self._manifest_stat = signature
        changed = False
        for name, entry in topics.items():
            topic = self._topic(name)
            base = int(entry.get("base", 0))
            segments = [str(s) for s in entry.get("segments", [])]
            if base > topic.base:
                topic.base = base
                changed = True
            if segments != topic.segments:
                same_tail = bool(
                    topic.segments
                    and segments
                    and segments[-1] == topic.segments[-1]
                )
                topic.segments = segments
                if same_tail:  # truncation only: the tail still applies
                    self._extend_tail(topic)
                else:  # rotation / first sight: re-point at the new tail
                    self._init_topic_from_disk(topic)
                changed = True
            elif self._extend_tail(topic):
                changed = True
        if changed:
            self._next_seq = None  # recover from the new tail on demand
            schema_topic = self._topics.get(SCHEMA_TOPIC)
            if schema_topic is not None:
                self.schema_version = max(
                    self.schema_version, schema_topic.end
                )
        return changed

    def _extend_tail(self, topic: _Topic) -> bool:
        """Pick up bytes appended to the newest segment since last scan."""
        if not topic.segments:
            return False
        path = self._segment_dir(topic.name) / topic.segments[-1]
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            return False
        if size < topic.tail_bytes:
            # The file shrank under us (a writer repaired a torn tail
            # differently than we scanned it): start over from disk.
            self._init_topic_from_disk(topic)
            return True
        if size == topic.tail_bytes:
            return False
        with open(path, "rb") as handle:
            handle.seek(topic.tail_bytes)
            data = handle.read()
        if topic.tail_loaded:
            records, good = self._parse_lines(data, repair=True, where=path)
            topic.records.extend(records)
            topic.end = topic.tail_start + len(topic.records)
            topic.tail_bytes += good
            self._note_peak()
            return bool(records)
        count, good = _count_lines(data)
        topic.end += count
        topic.tail_bytes += good
        return count > 0

    # ------------------------------------------------------------ durability

    @contextlib.contextmanager
    def _manifest_lock(self) -> Iterator[None]:
        """Advisory exclusive lock over manifest read-modify-write.

        Truncation (in a consumer process) and rotation (in the writer)
        both read the manifest, fold the other side's changes in, and
        write it back; without mutual exclusion one could overwrite the
        other's update in the read-to-write window -- e.g. a rotating
        writer resurrecting just-deleted segment names.  ``flock`` is
        advisory, per-host and reentrant here via a depth counter; on
        platforms without ``fcntl`` the lock degrades to a no-op (the
        single-process case needs none).
        """
        assert self.directory is not None
        if self._manifest_lock_depth:
            self._manifest_lock_depth += 1
            try:
                yield
            finally:
                self._manifest_lock_depth -= 1
            return
        try:
            import fcntl
        except ImportError:  # non-POSIX: single-process feeds only
            yield
            return
        with open(self.directory / "manifest.lock", "a") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            self._manifest_lock_depth = 1
            try:
                yield
            finally:
                self._manifest_lock_depth = 0
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _segment_dir(self, topic: str) -> Path:
        assert self.directory is not None
        return self.directory / "topics" / topic

    def _consumers_dir(self) -> Path:
        assert self.directory is not None
        return self.directory / "consumers"

    def _snapshots_dir(self) -> Path:
        assert self.directory is not None
        return self.directory / "snapshots"

    @staticmethod
    def _segment_name(start_offset: int) -> str:
        return f"{start_offset:012d}.jsonl"

    def _write_durable(self, topic: _Topic, record: FeedRecord) -> None:
        writer = self._writers.get(topic.name)
        if writer is None:
            writer = self._open_segment(topic, record.offset)
        line = record.to_json() + "\n"
        writer.write(line)
        if self.fsync == "always":
            writer.flush()
            os.fsync(writer.fileno())
        # Under the "rotate" policy appends stay in the userspace buffer
        # until rotation / flush() / close(): a crash can cost the tail
        # of the active segment, never a sealed one -- and the next
        # writer truncates any torn line it left behind.
        topic.tail_bytes += len(line.encode("utf-8"))
        self._active_counts[topic.name] += 1

    def _open_segment(self, topic: _Topic, next_offset: int) -> io.TextIOWrapper:
        directory = self._segment_dir(topic.name)
        directory.mkdir(parents=True, exist_ok=True)
        name = self._segment_name(next_offset)
        held = 0
        if topic.segments:
            # Becoming the writer of this topic: first drop any torn
            # bytes a crashed writer left on the newest segment.
            self._repair_tail(topic)
            last = topic.segments[-1]
            held = next_offset - _segment_start(last)
            if 0 <= held < self.segment_records:
                # Resume the newest segment while it still has room; the
                # resident tail must hold it in full before we append.
                name = last
                self._load_tail(topic)
            else:
                # The previous newest segment is sealed by this cut;
                # keep its parsed records around for in-process readers.
                if topic.tail_loaded and topic.records:
                    self._cache.put((topic.name, last), topic.records)
                topic.records = []
                topic.tail_loaded = True
                topic.tail_start = next_offset
                topic.tail_bytes = 0
                held = 0
        writer = open(directory / name, "a", encoding="utf-8")
        self._writers[topic.name] = writer
        self._active_counts[topic.name] = held
        if not topic.segments or topic.segments[-1] != name:
            topic.segments.append(name)
            self._store_manifest()
        return writer

    def _repair_tail(self, topic: _Topic) -> None:
        """Truncate torn bytes off the newest segment (writer open)."""
        if not topic.segments:
            return
        path = self._segment_dir(topic.name) / topic.segments[-1]
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            return  # rotation crashed before the first append created it
        if size > topic.tail_bytes:
            with open(path, "r+b") as handle:
                handle.truncate(topic.tail_bytes)

    def _rotate(self, topic: _Topic) -> None:
        """Seal the active segment: fsync it, then cut a new one."""
        writer = self._writers.pop(topic.name)
        try:
            writer.flush()
            os.fsync(writer.fileno())
        finally:
            # A failed flush/fsync must not strand the popped handle:
            # nothing references it once it leaves self._writers.
            writer.close()
            self._active_counts.pop(topic.name, None)
        # The next append opens the successor segment (named by the
        # first offset it will hold) and records it in the manifest; the
        # resident tail keeps serving readers until then.

    def _store_manifest(self) -> None:
        assert self.directory is not None
        with self._manifest_lock():
            self._merge_disk_retention()
            payload = {
                "version": 2,
                "segment_records": self.segment_records,
                "topics": {
                    name: {
                        "base": topic.base,
                        "segments": list(topic.segments),
                    }
                    for name, topic in self._topics.items()
                },
            }
            self._atomic_json(self.directory / MANIFEST, payload)

    def _merge_disk_retention(self) -> None:
        """Fold another instance's retention reclaim into our view.

        Truncation / compaction may run in a *consumer* process; a
        writer that rotates afterwards must not resurrect the deleted
        segments when it stores its own (stale) manifest.  The on-disk
        ``base`` only ever grows, so taking the max and pruning segments
        below it is always safe.  A foreign *compaction* additionally
        rewrites the straddling segment under a new start-offset name
        our stale list does not know: the disk names preceding our kept
        suffix are adopted, so the surviving records stay reachable."""
        path = self.directory / MANIFEST
        try:
            topics = json.loads(path.read_text(encoding="utf-8"))["topics"]
        except (OSError, ValueError, KeyError):
            return
        for name, entry in topics.items():
            topic = self._topics.get(name)
            if topic is None:
                continue
            base = int(entry.get("base", 0))
            if base > topic.base:
                topic.base = base
                kept = [
                    s for s in topic.segments if _segment_start(s) >= base
                ]
                cut = _segment_start(kept[0]) if kept else None
                adopted = [
                    str(s)
                    for s in entry.get("segments", [])
                    if _segment_start(str(s)) >= base
                    and (cut is None or _segment_start(str(s)) < cut)
                ]
                topic.segments = adopted + kept

    def _store_committed(self, group: str, committed: dict[str, int]) -> None:
        directory = self._consumers_dir()
        directory.mkdir(parents=True, exist_ok=True)
        payload: dict[str, object] = {
            "group": group,
            "committed": dict(committed),
        }
        subscription = self._subscriptions.get(group)
        if subscription is not None:
            # Persist the subscription so a *foreign* process's
            # retention scan knows this group only pins these topics.
            payload["topics"] = sorted(subscription)
        self._atomic_json(directory / f"{group}.json", payload)

    def _load_committed(self, group: str) -> Optional[dict[str, int]]:
        if not self.durable:
            return None
        path = self._consumers_dir() / f"{group}.json"
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            return {str(k): int(v) for k, v in payload["committed"].items()}
        except (ValueError, KeyError) as exc:
            raise FeedError(f"corrupt consumer state {path}") from exc

    def store_snapshot(
        self,
        group: str,
        committed: dict[str, int],
        payload: dict,
        topics: Optional[Iterable[str]] = None,
    ) -> None:
        """Persist a group's recovery snapshot: an opaque payload bound
        to the committed offsets it captures.  Retention never deletes
        past a group's snapshot, so the group can always restore the
        payload and replay forward from those offsets.  ``topics``
        overrides the subscription recorded in the sidecar (which
        otherwise comes from the group's live registration) -- what a
        pseudo-group with no live consumer, like a transfer packet,
        needs so its floor pins only the topics it actually covers."""
        if not self.durable:
            raise FeedError("snapshots need a durable feed")
        directory = self._snapshots_dir()
        directory.mkdir(parents=True, exist_ok=True)
        subscription = (
            frozenset(str(t).lower() for t in topics)
            if topics is not None
            else self._subscriptions.get(group)
        )
        extra: dict[str, object] = (
            {} if subscription is None else {"topics": sorted(subscription)}
        )
        self._atomic_json(
            directory / f"{group}.json",
            {
                "group": group,
                "committed": dict(committed),
                "payload": payload,
                **extra,
            },
        )
        # A small offsets sidecar, written *after* the payload it
        # describes (a crash in between leaves the older -- lower, so
        # safe -- floor on disk): truncation's floor scan reads this
        # instead of json-parsing every group's full snapshot payload.
        self._atomic_json(
            directory / f"{group}.offsets.json",
            {"group": group, "committed": dict(committed), **extra},
        )

    def load_snapshot(
        self, group: str
    ) -> Optional[tuple[dict[str, int], dict]]:
        """The group's snapshot as ``(committed offsets, payload)``, or
        None when it never stored one.

        Raises:
            FeedError: when the snapshot file is corrupt.
        """
        if not self.durable:
            return None
        path = self._snapshots_dir() / f"{group}.json"
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            committed = {
                str(k): int(v) for k, v in data["committed"].items()
            }
            return committed, data["payload"]
        except (ValueError, KeyError) as exc:
            raise FeedError(f"corrupt snapshot {path}") from exc

    # ---------------------------------------------------- transfer packets

    def store_transfer(self, topic: str, cut: int, payload: dict) -> None:
        """Persist a shard-handoff transfer packet for ``topic``.

        The packet carries the releasing worker's slice of the database
        for the topic at its committed ``cut``; the adopting worker
        restores it and replays only the retained suffix past the cut
        (no full re-bootstrap).  On durable feeds it is stored as the
        snapshot of the reserved pseudo-group ``__transfer__.<topic>``
        with a sidecar subscribed to the topic alone, so the ordinary
        retention floor scan keeps the suffix readable for as long as
        the packet exists; in-memory feeds keep it in the instance.
        """
        name = str(topic).lower()
        if not self.durable:
            self._transfers[name] = (int(cut), dict(payload))
            return
        self.store_snapshot(
            f"{TRANSFER_PREFIX}{name}",
            {name: int(cut)},
            payload,
            topics=(name,),
        )

    def load_transfer(self, topic: str) -> Optional[tuple[int, dict]]:
        """The pending transfer packet for ``topic`` as ``(cut,
        payload)``, or None when no handoff is in flight."""
        name = str(topic).lower()
        if not self.durable:
            entry = self._transfers.get(name)
            return None if entry is None else (entry[0], dict(entry[1]))
        snapshot = self.load_snapshot(f"{TRANSFER_PREFIX}{name}")
        if snapshot is None:
            return None
        committed, payload = snapshot
        return committed.get(name, 0), payload

    def clear_transfer(self, topic: str) -> None:
        """Delete ``topic``'s transfer packet (after the adopting worker
        checkpointed past the handoff cut), releasing its retention
        pin.  A no-op when no packet exists."""
        name = str(topic).lower()
        self._transfers.pop(name, None)
        if self.durable:
            group = f"{TRANSFER_PREFIX}{name}"
            for path in (
                self._snapshots_dir() / f"{group}.json",
                self._snapshots_dir() / f"{group}.offsets.json",
            ):
                with contextlib.suppress(OSError):
                    path.unlink()
        self._compact()

    def transfers(self) -> dict[str, int]:
        """Pending transfer packets: topic -> handoff cut (on-disk
        packets of other processes included)."""
        pending = {name: cut for name, (cut, _) in self._transfers.items()}
        if self.durable:
            for group, recovery in self._registered_floors().items():
                if group.startswith(TRANSFER_PREFIX):
                    name = group[len(TRANSFER_PREFIX):]
                    pending[name] = recovery.floor.get(name, 0)
        return pending

    @staticmethod
    def _atomic_json(path: Path, payload: dict) -> None:
        temp = path.with_suffix(path.suffix + ".tmp")
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"), allow_nan=False)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)

    def _open_durable(self) -> None:
        """Open (or create) the feed directory -- lazily.

        Nothing is parsed here: the manifest names each topic's segments
        and truncation base, the newest segment of each topic is
        line-counted to learn the end offset (and the repair point for a
        future writer), and everything else -- record bodies, the global
        sequence -- is recovered on demand.
        """
        assert self.directory is not None
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest_path = self.directory / MANIFEST
        if not manifest_path.exists():
            self._store_manifest()
            return
        # The manifest read and the orphan sweep share the manifest
        # lock: a foreign compaction commits its rewritten segment and
        # the manifest naming it atomically with respect to us, so the
        # sweep can never mistake a live rewrite for a crashed one.
        with self._manifest_lock():
            try:
                manifest = json.loads(
                    manifest_path.read_text(encoding="utf-8")
                )
                topics = manifest["topics"]
            except (ValueError, KeyError) as exc:
                raise FeedError(f"corrupt manifest {manifest_path}") from exc
            for name, entry in topics.items():
                topic = self._topic(name)
                topic.base = int(entry.get("base", 0))
                topic.segments = [str(s) for s in entry.get("segments", [])]
                self._sweep_orphans(topic)
                self._init_topic_from_disk(topic)
        schema_topic = self._topics.get(SCHEMA_TOPIC)
        self.schema_version = schema_topic.end if schema_topic else 0
        if self._topics:
            self._next_seq = None  # recovered lazily from the tails

    def _init_topic_from_disk(self, topic: _Topic) -> None:
        """Point the topic at its newest segment without parsing bodies."""
        if not topic.segments:
            topic.tail_start = topic.end = topic.base
            topic.records = []
            topic.tail_loaded = True
            topic.tail_bytes = 0
            return
        first = _segment_start(topic.segments[-1])
        path = self._segment_dir(topic.name) / topic.segments[-1]
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            data = b""  # rotation crashed before the first append
        count, good = _count_lines(data)
        topic.tail_start = first
        topic.end = first + count
        topic.tail_bytes = good
        topic.records = []
        topic.tail_loaded = False

    def _sweep_orphans(self, topic: _Topic) -> None:
        """Delete segment files a crashed retention reclaim left behind.

        Truncation commits the manifest first and unlinks after, so a
        crash between the two leaves victim files no manifest entry
        names (their offsets are below ``base``).  Compaction writes its
        rewritten segment *before* the manifest commit, so a crash in
        between leaves a temporary whose start offset falls inside a
        still-named segment's range.  Either way: any file the manifest
        does not name whose start lies below the newest named segment's
        start is dead weight.  Files at or past that start are left
        alone -- they are a resuming writer's successor segment, created
        just before its manifest store."""
        directory = self._segment_dir(topic.name)
        if not directory.exists():
            return
        named = set(topic.segments)
        cut = (
            _segment_start(topic.segments[-1])
            if topic.segments
            else topic.base
        )
        for path in directory.glob("*.jsonl"):
            if path.name in named:
                continue
            if _segment_start(path.name) < cut:
                with contextlib.suppress(OSError):
                    path.unlink()

    def _load_tail(self, topic: _Topic) -> None:
        """Parse the newest segment into the resident tail (idempotent)."""
        if topic.tail_loaded:
            return
        path = self._segment_dir(topic.name) / topic.segments[-1]
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            data = b""
        records, good = self._parse_lines(data, repair=True, where=path)
        topic.records = records
        topic.tail_loaded = True
        topic.tail_bytes = good
        topic.end = topic.tail_start + len(records)
        self._note_peak()

    def _parse_lines(
        self, data: bytes, repair: bool, where: Path
    ) -> tuple[list[FeedRecord], int]:
        """Parse JSONL bytes; on a torn tail, stop (``repair``) or raise."""
        records: list[FeedRecord] = []
        good_bytes = 0
        for line in data.splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break  # torn tail: the crash cut this append short
            try:
                records.append(FeedRecord.from_json(line.decode("utf-8")))
            except FeedError:
                break  # garbage tail (e.g. partial line + later append)
            good_bytes += len(line)
        if good_bytes < len(data) and not repair:
            raise FeedError(f"corrupt record inside sealed segment {where}")
        return records, good_bytes

    def _scan_next_seq(self) -> int:
        """Recover the global sequence from the newest durable records."""
        best = 0
        for topic in self._topics.values():
            record = self._last_record(topic)
            if record is not None:
                best = max(best, record.seq + 1)
        return best

    def _last_record(self, topic: _Topic) -> Optional[FeedRecord]:
        if self.durable:
            self._load_tail(topic)
        if topic.records:
            return topic.records[-1]
        for index in range(len(topic.segments) - 2, -1, -1):
            records = self._segment_records(topic, index)
            if records:
                return records[-1]
        return None

    def flush(self) -> None:
        """Flush + fsync every active segment writer."""
        for writer in self._writers.values():
            writer.flush()
            os.fsync(writer.fileno())

    def close(self) -> None:
        """Flush and close the durable writers (idempotent)."""
        for name in list(self._writers):
            writer = self._writers.pop(name)
            try:
                writer.flush()
                os.fsync(writer.fileno())
            finally:
                writer.close()
        self._active_counts.clear()
        self._cache.clear()

    def __enter__(self) -> "ChangeFeed":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _count_lines(data: bytes) -> tuple[int, int]:
    """Complete (newline-terminated) lines in ``data`` and their bytes.

    A crash truncates an append stream at a point, so only the final
    line can be partial -- counting complete lines is enough to know how
    many records are durable without parsing a single body.
    """
    count = 0
    good_bytes = 0
    for line in data.splitlines(keepends=True):
        if not line.endswith(b"\n"):
            break
        count += 1
        good_bytes += len(line)
    return count, good_bytes


class FeedConsumer:
    """One consumer group member: poll / commit with explicit offsets.

    ``poll()`` advances an *uncommitted* read position; ``commit()``
    publishes it as the group's committed offsets (durably, when the
    feed is).  A consumer that crashes between the two is re-delivered
    the uncommitted records on re-attach -- apply-then-commit therefore
    gives exactly-once effects for idempotent appliers.  On a reader
    instance of a durable feed, every poll / lag / pending / lost check
    first re-scans the directory (live tailing).
    """

    def __init__(self, feed: ChangeFeed, group: str) -> None:
        self.feed = feed
        self.group = group
        #: the group's topic subscription (None = all topics).
        self.topics = feed._subscriptions.get(group)
        self._positions = dict(feed._groups[group])
        if self.topics is not None:
            self._positions = {
                name: offset
                for name, offset in self._positions.items()
                if name in self.topics
            }
        self._closed = False

    @property
    def committed(self) -> dict[str, int]:
        """The group's committed offset per topic (a copy)."""
        return dict(self.feed._groups.get(self.group, {}))

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
        return self.feed._lag(self.feed._groups[self.group], self.topics)

    @property
    def pending(self) -> int:
        """Records past the current *read* position."""
        if self._closed:
            return 0
        self.feed.refresh()
        return self.feed._lag(self._positions, self.topics)

    @property
    def lost(self) -> bool:
        """Whether retention dropped records this consumer never read."""
        if self._closed:
            return False
        self.feed.refresh()
        return self.feed._lost(self._positions, self.topics)

    def resubscribe(
        self,
        topics: Iterable[str],
        positions: Optional[dict[str, int]] = None,
    ) -> dict[str, int]:
        """Rewrite this group's topic subscription in place (see
        :meth:`ChangeFeed.update_subscription`): kept topics keep their
        committed offsets, new topics start at their ``positions``
        entry (the handoff cut), dropped topics release their retention
        hold.  The read position resets to the new committed offsets,
        so call at a sync boundary (read position == committed).
        Returns the new committed offsets.

        Raises:
            FeedError: on a closed consumer or an ephemeral group.
        """
        if self._closed:
            raise FeedError(
                f"consumer group {self.group!r} is closed"
            )
        merged = self.feed.update_subscription(self.group, topics, positions)
        self.topics = self.feed._subscriptions.get(self.group)
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
            self._positions = self._subscribed_ends()
            return [], True
        try:
            records = self.feed._poll(self._positions, limit, self.topics)
        except FeedRetentionError:
            # A foreign truncation deleted segments between our _lost
            # check and the read (writers never re-scan, so their base
            # can be stale until the miss).  Same contract as any other
            # retention loss: reposition at the end, report lost.
            self._positions = self._subscribed_ends()
            return [], True
        for record in records:
            self._positions[record.topic] = record.offset + 1
        return records, False

    def commit(self) -> None:
        """Make the current read position the group's committed offsets."""
        if self._closed:
            return
        self.feed._commit(self.group, self._positions)

    def seek_to_end(self) -> None:
        """Jump past all retained (subscribed) records and commit there."""
        self.feed.refresh()
        self._positions = self._subscribed_ends()
        self.commit()

    def _subscribed_ends(self) -> dict[str, int]:
        ends = self.feed.end_offsets()
        if self.topics is None:
            return ends
        return {
            name: offset
            for name, offset in ends.items()
            if name in self.topics
        }

    def store_snapshot(self, payload: dict) -> None:
        """Persist ``payload`` as this group's recovery snapshot, bound
        to its *committed* offsets.  Retention keeps every record past
        the snapshot, so the group can always restore the payload and
        replay forward -- even after its committed prefix is truncated.

        Raises:
            FeedError: on an in-memory feed or an ephemeral group.
        """
        if self._closed or self.group in self.feed._ephemeral:
            raise FeedError("snapshots need a named group on a durable feed")
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


def serialize_schema(schema: object) -> dict:
    """Serialize a :class:`~repro.engine.schema.TableSchema` to JSON-safe
    form (the payload of ``create_table`` records)."""
    return {
        "name": schema.name,  # type: ignore[attr-defined]
        "columns": [
            {
                "name": column.name,
                "type": column.sql_type.value,
                "nullable": column.nullable,
            }
            for column in schema.columns  # type: ignore[attr-defined]
        ],
        "primary_key": list(schema.primary_key),  # type: ignore[attr-defined]
    }


def deserialize_schema(payload: dict) -> "object":
    """Rebuild a :class:`~repro.engine.schema.TableSchema` from
    :func:`serialize_schema` output."""
    from repro.engine.schema import Column, TableSchema
    from repro.engine.types import type_from_name

    return TableSchema(
        payload["name"],
        tuple(
            Column(
                column["name"],
                type_from_name(column["type"]),
                nullable=column.get("nullable", True),
            )
            for column in payload["columns"]
        ),
        tuple(payload.get("primary_key", ())),
    )
