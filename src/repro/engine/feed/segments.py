"""The segment log: a feed's records in a directory, crash-safe.

The *only* code that touches ``topics/<topic>/*.jsonl``,
``manifest.json`` and ``manifest.lock`` -- it owns the log format::

    <dir>/manifest.json   {"version": 2, "segment_records": N,
                           "topics": {t: {"base": b, "segments": [...]}}}
    <dir>/manifest.lock   advisory flock over manifest read-modify-write
    <dir>/topics/<t>/<first offset:012d>.jsonl   one FeedRecord per line

Every record is appended to its topic's active segment; at
``segment_records`` records the segment is fsync'd and sealed and a
fresh one becomes active.  Only the **active tail** of each topic is
resident, and of it only what some group attached to this instance has
yet to commit (:meth:`SegmentLog.release`).  Every other offset is read
back from its segment file by the one reader, :meth:`SegmentLog.read`,
which decodes only the lines its caller pulls; opening a log parses
nothing (:meth:`SegmentLog._open`).  A torn final
line (crash mid append) is ignored on read and truncated away when a
writer re-opens the segment, so replay converges on the longest durable
prefix.  One process writes, any number tail
(:meth:`SegmentLog.refresh`).  Retention and its crash-safe write order:
:meth:`SegmentLog.reclaim`.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import os
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional

from repro.engine.feed.records import (
    Contribution,
    FeedRecord,
    GroupRecovery,
    floor_of,
)
from repro.errors import FeedError, FeedRetentionError

#: Manifest file name inside a feed directory.
MANIFEST = "manifest.json"


def check_component(kind: str, name: str) -> None:
    """Refuse a caller-supplied topic/group name that is not a single
    path component -- it is about to become a file or directory name,
    and must not escape or nest below the directory that owns it.

    Raises:
        FeedError: for ``""``, ``.``, ``..`` or a separator / NUL inside.
    """
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise FeedError(f"{kind} name {name!r} is not a single path component")


def atomic_json(path: Path, payload: dict) -> None:
    """Publish ``payload`` at ``path`` atomically: the temporary file is
    fsync'd *before* the rename that makes it visible, so a crash leaves
    either the old complete file or the new one -- never a hole."""
    temp = path.with_suffix(path.suffix + ".tmp")
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"), allow_nan=False)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)


def _segment_start(name: str) -> int:
    """The first offset a segment file holds (encoded in its name)."""
    try:
        return int(name.split(".", 1)[0])
    except ValueError:
        raise FeedError(f"bad segment name {name!r}") from None


def _segment_name(start_offset: int) -> str:
    return f"{start_offset:012d}.jsonl"


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


def _parse_lines(data: bytes) -> tuple[list[FeedRecord], int]:
    """Parse the active segment's JSONL bytes up to a torn tail: the
    records and the bytes they span."""
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
    return records, good_bytes


class SegmentTopic:
    """One partition: the resident tail plus the durable segment chain.

    ``records`` holds the contiguous offsets ``[resident_start, end)``:
    the newest (active) segment ``[tail_start, end)``, parsed lazily,
    minus what :meth:`release` dropped -- plus, on a writer, the part
    of the segment sealed last that was still unreleased at the
    rotation.  Everything below ``resident_start`` is read back from
    the segment files on demand.
    """

    def __init__(self, name: str, directory: Path) -> None:
        self.name = name
        self.directory = directory  # topics/<name>/
        self.records: list[FeedRecord] = []
        self.base = 0  # oldest retained offset (reclaim point)
        self.tail_start = 0  # first offset of the newest segment
        self.resident_start = 0  # offset of records[0]
        self.end = 0  # one past the newest offset
        self.segments: list[str] = []  # file names, oldest first
        self.tail_loaded = True  # False: tail not parsed yet
        self.tail_bytes = 0  # validated bytes of the newest segment

    def point_at_newest(self) -> None:
        """Point the topic at its newest segment without parsing bodies."""
        self.records = []
        if not self.segments:
            self.tail_start = self.resident_start = self.end = self.base
            self.tail_loaded = True
            self.tail_bytes = 0
            return
        first = _segment_start(self.segments[-1])
        try:
            data = (self.directory / self.segments[-1]).read_bytes()
        except FileNotFoundError:
            data = b""  # rotation crashed before the first append
        count, good = _count_lines(data)
        self.tail_start = self.resident_start = first
        self.end = first + count
        self.tail_bytes = good
        self.tail_loaded = False

    def release(self, floor: int) -> None:
        """Drop the resident records below ``floor`` (they stay on disk)."""
        drop = min(floor, self.end) - self.resident_start
        if self.tail_loaded and drop > 0:
            del self.records[:drop]
            self.resident_start += drop

    def repair_tail(self) -> None:
        """Truncate torn bytes off the newest segment (writer open)."""
        path = self.directory / self.segments[-1]
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            return  # rotation crashed before the first append created it
        if size > self.tail_bytes:
            with open(path, "r+b") as handle:
                handle.truncate(self.tail_bytes)


class SegmentLog:
    """Per-topic JSONL segment chains under ``directory`` (created when
    missing, opened lazily).  Same feed-facing surface as
    :class:`~repro.engine.feed.memory.MemoryLog`; ``segment_records``,
    ``fsync`` and ``retention`` are :class:`ChangeFeed`'s arguments.
    """

    #: A durable log never drops a record for lack of listeners.
    dropped = 0

    def __init__(
        self,
        directory: "str | os.PathLike[str]",
        segment_records: int,
        fsync: str,
        retention: str,
    ) -> None:
        self.directory = Path(directory)
        self.segment_records = segment_records
        self.fsync = fsync
        self.retention = retention
        self.topics: dict[str, SegmentTopic] = {}
        self._next_seq: Optional[int] = 0
        self._writers: dict[str, io.TextIOWrapper] = {}  # topic -> active file
        self._active_counts: dict[str, int] = {}  # records in active segment
        self._unsynced: set[str] = set()  # topics appended to since their fsync
        #: whether this instance ever appended -- an instance that never
        #: did is a *reader* and re-scans the directory on refresh (live
        #: tailing); the single writer's memory is authoritative, so
        #: writers never re-scan.
        self._published = False
        self._manifest_lock_depth = 0
        #: (st_mtime_ns, st_size) of the manifest at last read -- lets
        #: refresh() skip the JSON parse when nothing rotated/reclaimed.
        self._manifest_stat: Optional[tuple[int, int]] = None
        #: high-water mark of records resident in this instance (the
        #: tails) -- the bounded-memory gate.
        self.peak_resident_records = 0
        #: records the current poll pulled out of topic storage.
        self.materialized = 0
        self._open()

    # ------------------------------------------------------------- appending

    @property
    def next_seq(self) -> int:
        """One past the newest global sequence number.

        Lazily recovered from the durable tail on first use, so opening
        a log only to read its offsets never parses a record body.
        """
        if self._next_seq is None:
            self._next_seq = self._scan_next_seq()
        return self._next_seq

    def append(self, name: str, kind: str, listening: bool, fields: tuple) -> None:
        """Append one record to topic ``name`` -- always: ``listening``
        only matters to the memory log.  ``fields`` are the
        :class:`FeedRecord` fields after ``kind``."""
        topic = self._topic(name)
        record = FeedRecord(self.next_seq, name, topic.end, kind, *fields)
        self._next_seq = record.seq + 1
        # The write prepares the tail (loads / repairs the resumed
        # segment) *before* the record joins it.
        self._write(topic, record)
        topic.records.append(record)
        topic.end += 1
        self._published = True
        self._note_peak()
        if self._active_counts[name] >= self.segment_records:
            # Rotate: seal the active segment.  The next append opens
            # the successor (named by the first offset it will hold) and
            # records it in the manifest; the resident tail keeps
            # serving readers until then.
            self._seal(name)

    def _topic(self, name: str) -> SegmentTopic:
        topic = self.topics.get(name)
        if topic is None:
            # The name becomes a directory: refuse it before any state
            # (in memory or on disk) remembers it.
            check_component("topic", name)
            topic = self.topics[name] = SegmentTopic(
                name, self.directory / "topics" / name
            )
        return topic

    def _write(self, topic: SegmentTopic, record: FeedRecord) -> None:
        writer = self._writers.get(topic.name)
        if writer is None:
            writer = self._open_segment(topic, record.offset)
        line = record.to_json() + "\n"
        writer.write(line)
        if self.fsync == "always":
            writer.flush()
            os.fsync(writer.fileno())
        else:
            self._unsynced.add(topic.name)
        # Under the "rotate" policy appends stay in the userspace buffer
        # until rotation / flush() / close(): a crash can cost the tail
        # of the active segment, never a sealed one -- and the next
        # writer truncates any torn line it left behind.
        topic.tail_bytes += len(line.encode("utf-8"))
        self._active_counts[topic.name] += 1

    def _open_segment(
        self, topic: SegmentTopic, next_offset: int
    ) -> io.TextIOWrapper:
        topic.directory.mkdir(parents=True, exist_ok=True)
        name = _segment_name(next_offset)
        held = 0
        if topic.segments:
            # Becoming the writer of this topic: first drop any torn
            # bytes a crashed writer left on the newest segment.
            topic.repair_tail()
            last = topic.segments[-1]
            held = next_offset - _segment_start(last)
            if 0 <= held < self.segment_records:
                # Resume the newest segment while it still has room; its
                # tail must be parsed (and repaired) before we append.
                name = last
                self._load_tail(topic)
            else:
                # The previous newest segment is sealed by this cut.
                # Resident in full, it leaves memory (its file has it);
                # partly released, what is left of it stays in
                # ``records`` until its readers commit past it.
                if topic.tail_start >= topic.resident_start:
                    topic.records = []
                    topic.resident_start = next_offset
                topic.tail_loaded = True
                topic.tail_start = next_offset
                topic.tail_bytes = 0
                held = 0
        writer = open(topic.directory / name, "a", encoding="utf-8")
        self._writers[topic.name] = writer
        self._active_counts[topic.name] = held
        if not topic.segments or topic.segments[-1] != name:
            topic.segments.append(name)
            self._store_manifest()
        return writer

    def _seal(self, name: str) -> None:
        """fsync and close topic ``name``'s active segment writer."""
        writer = self._writers.pop(name)
        try:
            writer.flush()
            os.fsync(writer.fileno())
        finally:
            # A failed flush/fsync must not strand the popped handle:
            # nothing references it once it leaves self._writers.
            writer.close()
            self._active_counts.pop(name, None)
            self._unsynced.discard(name)

    def flush(self) -> None:
        """Flush + fsync every active segment writer appended to since
        its last fsync (a commit right behind the acknowledging flush
        finds nothing to sync)."""
        for name, writer in self._writers.items():
            if name in self._unsynced:
                writer.flush()
                os.fsync(writer.fileno())
        self._unsynced.clear()

    def close(self) -> None:
        """Flush and close the segment writers (idempotent)."""
        for name in list(self._writers):
            self._seal(name)
        for topic in self.topics.values():
            topic.release(topic.end)

    # --------------------------------------------------------------- reading

    def resident_records(self) -> int:
        """Records resident in this instance's memory: the active tails
        (plus, on a writer, the unreleased rest of a segment sealed
        since)."""
        return sum(len(t.records) for t in self.topics.values())

    def _note_peak(self) -> None:
        resident = self.resident_records()
        if resident > self.peak_resident_records:
            self.peak_resident_records = resident

    def read(
        self, name: str, start: int, upto: Optional[int] = None
    ) -> Iterator[FeedRecord]:
        """Lazily yield ``[start, upto)`` of topic ``name`` -- the one
        reader behind polls, replays, reclaim and sequence recovery.

        A resident offset is served from memory; the newest segment is
        parsed into the resident tail the first time a read reaches it.
        Any other offset is read from its segment file
        (:meth:`_read_segment`), decoding only the lines the caller
        pulls, and kept nowhere.
        """
        topic = self.topics[name]
        end = topic.end if upto is None else min(upto, topic.end)
        position = max(start, topic.base)
        index: Optional[int] = None
        while position < end:
            if position >= topic.tail_start:
                self._load_tail(topic)
                end = min(end, topic.end)  # a torn tail may shrink on parse
            if position >= topic.resident_start:
                records = topic.records
                for i in range(position - topic.resident_start, len(records)):
                    record = records[i]
                    if record.offset >= end:
                        return
                    self.materialized += 1
                    yield record
                return
            # The walk is strictly sequential: bisect once, then carry
            # the segment index forward (catch-up over S segments is
            # O(S), not O(S^2) name re-parses).
            index = (
                self._segment_index(topic, position)
                if index is None
                else index + 1
            )
            stop = min(end, topic.resident_start)
            if index + 1 < len(topic.segments):
                stop = min(stop, _segment_start(topic.segments[index + 1]))
            for record in self._read_segment(topic, index, position, stop):
                self.materialized += 1
                yield record
            position = stop

    def _segment_index(self, topic: SegmentTopic, offset: int) -> int:
        starts = [_segment_start(name) for name in topic.segments]
        return max(bisect.bisect_right(starts, offset) - 1, 0)

    def _read_segment(
        self, topic: SegmentTopic, index: int, start: int, stop: int
    ) -> Iterator[FeedRecord]:
        """Yield offsets ``[start, stop)`` from segment file ``index``.

        Lines before ``start`` are skipped undecoded.  A sealed segment
        must hold exactly the offsets up to its successor's first and
        every decoded record its own offset, else :class:`FeedError`;
        the newest segment may end in a torn line (the read stops).
        """
        name = topic.segments[index]
        path = topic.directory / name
        first = _segment_start(name)
        sealed = index + 1 < len(topic.segments)
        if not sealed and topic.name in self._writers:
            self._writers[topic.name].flush()  # the file lags our appends
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            if sealed:
                # Almost certainly a foreign process's retention
                # reclaim (writers never re-scan the manifest, so
                # their base can be stale): fold the disk state in --
                # later lost checks then see the raised base -- and
                # signal retention loss, which consumers map to the
                # rebuild-from-scratch fallback.  Lock-free by design:
                # this path only *reads* the foreign manifest and raises
                # our in-memory base; it never writes MANIFEST.
                # hippolint: disable-next-line=HL014 -- read-only fold
                self._merge_disk_retention()
                raise FeedRetentionError(
                    f"topic {topic.name!r}: sealed segment {name} is"
                    " missing -- its offsets are no longer retained"
                ) from None
            return  # rotation crashed before the first append
        lines = data.splitlines(keepends=True)
        if sealed:
            expected = _segment_start(topic.segments[index + 1]) - first
            if len(lines) != expected or not data.endswith(b"\n"):
                raise FeedError(
                    f"corrupt sealed segment {path}: expected {expected}"
                    f" records from offset {first}"
                )
        for line in lines[start - first : stop - first]:
            if not line.endswith(b"\n"):
                return  # torn tail: the crash cut this append short
            try:
                record = FeedRecord.from_json(line.decode("utf-8"))
            except (FeedError, UnicodeDecodeError):
                if sealed:
                    raise FeedError(
                        f"corrupt record inside sealed segment {path}"
                    ) from None
                return  # garbage tail (e.g. partial line + later append)
            if record.offset != start:
                raise FeedError(
                    f"corrupt segment {path}: the record at offset {start}"
                    f" says {record.offset}"
                )
            start += 1
            yield record

    def _load_tail(self, topic: SegmentTopic) -> None:
        """Parse the newest segment into the resident tail (idempotent)."""
        if topic.tail_loaded:
            return
        path = topic.directory / topic.segments[-1]
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            data = b""
        records, good = _parse_lines(data)
        topic.records = records
        topic.tail_loaded = True
        topic.tail_bytes = good
        topic.end = topic.tail_start + len(records)
        self._note_peak()

    def _scan_next_seq(self) -> int:
        """Recover the global sequence from the newest durable records."""
        best = 0
        for topic in self.topics.values():
            record = self._last_record(topic)
            if record is not None:
                best = max(best, record.seq + 1)
        return best

    def _last_record(self, topic: SegmentTopic) -> Optional[FeedRecord]:
        self._load_tail(topic)  # a torn tail settles the end first
        return next(self.read(topic.name, topic.end - 1), None)

    # ------------------------------------------------------------- retention

    def release(
        self,
        local: Callable[[], list[Contribution]],
        floors: Callable[[], Mapping[str, GroupRecovery]],
    ) -> None:
        """Bound residency by consumer lag, then reclaim (under
        ``retention="compact"``), after a group moved.

        Residency follows :meth:`MemoryLog.release
        <repro.engine.feed.memory.MemoryLog.release>`: tail records
        below the lowest committed offset of this instance's groups
        (``local``) are dropped from memory -- with no group at all,
        everything is; the files keep them, so a later read below that
        floor re-reads its segment.  :meth:`reclaim`
        then runs only when those groups already allow reclaiming
        something: the full scan behind ``floors`` reads every
        consumer/snapshot file, so it is not paid on every commit.
        """
        groups = local()
        for name, topic in self.topics.items():
            floor = floor_of(name, groups) if groups else topic.end
            topic.release(floor)
        if self.retention == "keep":
            return
        # Hysteresis: a group inching through a segment must not trigger
        # an O(segment) rewrite on every commit.
        min_reclaim = max(self.segment_records // 2, 1)
        if groups:
            for name, topic in self.topics.items():
                if len(topic.segments) < 2:
                    continue
                floor = floor_of(name, groups)
                if (
                    _segment_start(topic.segments[1]) <= floor
                    or floor - _segment_start(topic.segments[0]) >= min_reclaim
                ):
                    break
            else:
                return
        self.reclaim(min_reclaim, floors)

    def reclaim(
        self,
        min_reclaim: int,
        floors: Callable[[], Mapping[str, GroupRecovery]],
    ) -> dict[str, int]:
        """Delete the sealed segments every floor has passed, and
        rewrite the oldest segment a floor falls *inside* down to its
        surviving records ``[floor, end)``, under a name carrying
        ``floor`` (offsets and seqs are unchanged, only the file
        boundary moves) -- when that drops ``min_reclaim`` records or
        more (half a segment on the automatic path, any amount on an
        explicit compact).

        ``floors`` is called *under the manifest lock, after a refresh*
        and names every registered group (other processes' included): a
        group holds segments back to its recovery point, over the topics
        it subscribes to; with no group at all nothing is reclaimed, and
        the newest segment of a topic never is.  Write order: (1) a
        rewritten segment is written and fsync'd before anything names
        it; (2) the manifest commits, with the new per-topic ``base``,
        still under the lock; (3) only then are victim files unlinked.
        A crash at any point leaves either the old consistent view or
        the new one plus orphan files, which the next open sweeps away.
        Returns the new ``base`` per reclaimed topic.
        """
        with self.manifest_lock():
            # Work from the live layout under the lock: a concurrent
            # rotation can no longer slip between our manifest read and
            # our store.
            self.refresh()
            # A group's floor only pins the topics it subscribes to.
            contributions = [(r.floor, r.topics) for r in floors().values()]
            if not contributions:
                return {}
            # Phase 1 -- plan.  Pure reads: a corrupt sealed segment (or
            # a foreign reclaim racing us) surfaces here, before any
            # topic's in-memory state was touched.
            plans: list[
                tuple[
                    SegmentTopic,
                    int,
                    int,
                    list[int],
                    Optional[list[FeedRecord]],
                ]
            ] = []
            for name, topic in self.topics.items():
                if len(topic.segments) < 2:
                    continue
                floor = floor_of(name, contributions)
                starts = [_segment_start(s) for s in topic.segments]
                keep = 0
                while (
                    keep + 1 < len(topic.segments)
                    and starts[keep + 1] <= floor
                ):
                    keep += 1
                survivors: Optional[list[FeedRecord]] = None
                if (
                    keep + 1 < len(topic.segments)
                    and starts[keep] < floor < starts[keep + 1]
                    and floor - starts[keep] >= max(min_reclaim, 1)
                ):
                    try:
                        survivors = list(
                            self.read(name, floor, starts[keep + 1])
                        )
                    except FeedRetentionError:
                        pass  # a foreign reclaim beat us here
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
                        name = _segment_name(floor)
                        self._write_sealed(topic, name, survivors)
                        topic.segments[0] = name
                        topic.base = floor
                        reclaimed[topic.name] = floor
                self._store_manifest()
            except BaseException:
                for topic, segments, base in saved:
                    topic.segments = segments
                    topic.base = base
                raise
        for name, victim in removed:
            with contextlib.suppress(OSError):
                (self.topics[name].directory / victim).unlink()
        return reclaimed

    def _write_sealed(
        self, topic: SegmentTopic, name: str, records: list[FeedRecord]
    ) -> None:
        """Write a complete sealed segment file (fsync'd)."""
        path = topic.directory / name
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(record.to_json() + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    # --------------------------------------------------------------- tailing

    def refresh(self) -> bool:
        """Re-scan the manifest and active segments for new records.

        Live tailing: a *reader* instance (this process never appended)
        picks up appends, rotations, new topics, and reclaims another
        process performed since the last scan.  A writer is
        authoritative in memory, so the call is a no-op there.  Returns
        whether anything changed.
        """
        if self._published or self._writers:
            return False
        path = self.directory / MANIFEST
        try:
            stat = path.stat()
        except FileNotFoundError:
            return False
        signature = (stat.st_mtime_ns, stat.st_size)
        changed = False
        if signature != self._manifest_stat:
            # Something rotated or reclaimed since the last scan (else
            # the JSON parse is skipped and only the tails are checked).
            try:
                topics = self._manifest_topics()
            except FileNotFoundError:
                return False
            self._manifest_stat = signature
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
                    if not same_tail:
                        # Rotation / first sight: re-point at the new
                        # tail (after a reclaim only, the old tail
                        # still applies).
                        topic.point_at_newest()
                    changed = True
        for topic in self.topics.values():  # appends to the known tails
            if self._extend_tail(topic):
                changed = True
        if changed:
            self._next_seq = None  # recover from the new tail on demand
        return changed

    def _extend_tail(self, topic: SegmentTopic) -> bool:
        """Pick up bytes appended to the newest segment since last scan."""
        if not topic.segments:
            return False
        path = topic.directory / topic.segments[-1]
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            return False
        if size < topic.tail_bytes:
            # The file shrank under us (a writer repaired a torn tail
            # differently than we scanned it): start over from disk.
            topic.point_at_newest()
            return True
        if size == topic.tail_bytes:
            return False
        with open(path, "rb") as handle:
            handle.seek(topic.tail_bytes)
            data = handle.read()
        if topic.tail_loaded:
            records, good = _parse_lines(data)
            topic.records.extend(records)
            topic.end = topic.resident_start + len(topic.records)
            topic.tail_bytes += good
            self._note_peak()
            return bool(records)
        count, good = _count_lines(data)
        topic.end += count
        topic.tail_bytes += good
        return count > 0

    # -------------------------------------------------------------- manifest

    @contextlib.contextmanager
    def manifest_lock(self) -> Iterator[None]:
        """Advisory exclusive lock over manifest read-modify-write.

        Reclaim (possibly in a consumer process) and rotation (in the
        writer) both read the manifest, fold the other side's changes in, and
        write it back; without mutual exclusion one could overwrite the
        other's update in the read-to-write window -- e.g. a rotating
        writer resurrecting just-deleted segment names.  ``flock`` is
        advisory, per-host and reentrant here via a depth counter; on
        platforms without ``fcntl`` the lock degrades to a no-op (the
        single-process case needs none).
        """
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

    def _manifest_topics(self) -> dict:
        """The on-disk manifest's topic table (FeedError when corrupt)."""
        path = self.directory / MANIFEST
        try:
            return json.loads(path.read_text(encoding="utf-8"))["topics"]
        except (ValueError, KeyError) as exc:
            raise FeedError(f"corrupt manifest {path}") from exc

    def _store_manifest(self) -> None:
        with self.manifest_lock():
            self._merge_disk_retention()
            payload = {
                "version": 2,
                "segment_records": self.segment_records,
                "topics": {
                    name: {
                        "base": topic.base,
                        "segments": list(topic.segments),
                    }
                    for name, topic in self.topics.items()
                },
            }
            atomic_json(self.directory / MANIFEST, payload)

    def _merge_disk_retention(self) -> None:
        """Fold another instance's retention reclaim into our view.

        A reclaim may run in a *consumer* process; a writer that
        rotates afterwards must not resurrect the deleted segments when
        it stores its own (stale) manifest.  The on-disk ``base`` only
        ever grows, so taking the max and pruning segments below it is
        always safe.  A foreign reclaim may also rewrite the straddling
        segment under a new start-offset name our stale list does not
        know: the disk names preceding our kept suffix are adopted, so
        the surviving records stay reachable."""
        try:
            topics = self._manifest_topics()
        except (OSError, FeedError):
            return
        for name, entry in topics.items():
            topic = self.topics.get(name)
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

    def _open(self) -> None:
        """Open (or create) the feed directory -- lazily.

        Nothing is parsed here: the manifest names each topic's segments
        and reclaim base, the newest segment of each topic is
        line-counted to learn the end offset (and the repair point for a
        future writer), and everything else -- record bodies, the global
        sequence -- is recovered on demand.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest_path = self.directory / MANIFEST
        if not manifest_path.exists():
            self._store_manifest()
            return
        # The manifest read and the orphan sweep share the manifest
        # lock: a foreign reclaim commits its rewritten segment and
        # the manifest naming it atomically with respect to us, so the
        # sweep can never mistake a live rewrite for a crashed one.
        with self.manifest_lock():
            for name, entry in self._manifest_topics().items():
                topic = self._topic(name)
                topic.base = int(entry.get("base", 0))
                topic.segments = [str(s) for s in entry.get("segments", [])]
                self._sweep_orphans(topic)
                topic.point_at_newest()
        if self.topics:
            self._next_seq = None  # recovered lazily from the tails

    def _sweep_orphans(self, topic: SegmentTopic) -> None:
        """Delete segment files a crashed retention reclaim left behind.

        A reclaim commits the manifest first and unlinks after, so a
        crash between the two leaves victim files no manifest entry
        names (their offsets are below ``base``).  It writes a rewritten
        segment *before* the manifest commit, so a crash in between
        leaves a temporary whose start offset falls inside a
        still-named segment's range.  Either way: any file the manifest
        does not name whose start lies below the newest named segment's
        start is dead weight.  Files at or past that start are left
        alone -- they are a resuming writer's successor segment, created
        just before its manifest store."""
        if not topic.directory.exists():
            return
        named = set(topic.segments)
        cut = (
            _segment_start(topic.segments[-1])
            if topic.segments
            else topic.base
        )
        for path in topic.directory.glob("*.jsonl"):
            if path.name in named:
                continue
            if _segment_start(path.name) < cut:
                with contextlib.suppress(OSError):
                    path.unlink()
