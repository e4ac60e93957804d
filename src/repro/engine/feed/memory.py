"""The memory log: a feed's records when there is no directory.

Records are retained only while some consumer group may still want
them.  This module never touches the file system (it imports neither
``os`` nor ``pathlib``); the durable half of the same seam is
:mod:`repro.engine.feed.segments`.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Optional

from repro.engine.feed.records import (
    Contribution,
    FeedRecord,
    GroupRecovery,
    floor_of,
)


class MemoryTopic:
    """One partition: the retained records ``[base, end)``."""

    segments: tuple[str, ...] = ()  # no files behind an in-memory topic

    def __init__(self, name: str) -> None:
        self.name = name
        self.records: list[FeedRecord] = []
        self.base = 0  # oldest retained offset == offset of records[0]
        self.end = 0  # one past the newest offset

    def drop_retained(self) -> None:
        """Forget every retained record (``base`` jumps to ``end``)."""
        self.base = self.end
        self.records.clear()


class MemoryLog:
    """Retained records per topic, capped at ``max_retained``.

    Same feed-facing surface as
    :class:`~repro.engine.feed.segments.SegmentLog`; the durability
    verbs (``refresh`` / ``reclaim`` / ``flush`` / ``close``) are no-ops.
    """

    def __init__(self, max_retained: int) -> None:
        self.max_retained = max_retained
        self.topics: dict[str, MemoryTopic] = {}
        self.next_seq = 0  # one past the newest global sequence number
        #: records dropped because nobody was listening -- a replica
        #: attaching later checks this to refuse an unrebuildable
        #: history.
        self.dropped = 0
        self.peak_resident_records = 0  # high-water mark of retention
        self._resident = 0  # records retained, over every topic
        self.materialized = 0  # records the current poll pulled out

    def append(self, name: str, kind: str, listening: bool, fields: tuple) -> None:
        """Append one record to topic ``name`` -- or count it as dropped
        when no consumer group is ``listening`` (zero cost when unused).
        ``fields`` are the :class:`FeedRecord` fields after ``kind``."""
        if not listening:
            self.dropped += 1
            return
        topic = self.topics.get(name)
        if topic is None:
            topic = self.topics[name] = MemoryTopic(name)
        topic.records.append(
            FeedRecord(self.next_seq, name, topic.end, kind, *fields)
        )
        self.next_seq += 1
        topic.end += 1
        self._resident += 1
        if self._resident > self.peak_resident_records:
            self.peak_resident_records = self._resident
        if self._resident > self.max_retained:
            # Overflow: drop everything; lagging groups observe ``lost``
            # (positions below ``base``) and fall back to full
            # re-detection.
            for t in self.topics.values():
                t.drop_retained()
            self._resident = 0

    def read(
        self, name: str, start: int, upto: Optional[int] = None
    ) -> Iterator[FeedRecord]:
        """Lazily yield ``[start, upto)`` of one topic."""
        topic = self.topics[name]
        end = topic.end if upto is None else min(upto, topic.end)
        position = max(start, topic.base)
        for index in range(position - topic.base, len(topic.records)):
            record = topic.records[index]
            if record.offset >= end:
                return
            self.materialized += 1
            yield record

    def resident_records(self) -> int:
        """Records currently retained."""
        return self._resident

    def release(
        self,
        local: Callable[[], list[Contribution]],
        floors: Callable[[], Mapping[str, GroupRecovery]],
    ) -> None:
        """Drop the records every group in ``local()`` has consumed (with
        no group at all, everything).  A topic no *subscribed* group
        listens to is retained while groups exist -- a subscribe-all
        consumer may still attach, exactly like the durable floor pins
        an unsubscribed topic at 0 (the overflow cap is the backstop,
        and it marks lagging groups as lost).  ``floors``, the
        cross-process scan, has nothing to add in memory."""
        groups = local()
        for name, topic in self.topics.items():
            if not groups:
                topic.drop_retained()
                continue
            low = floor_of(name, groups)
            if low > topic.base:
                del topic.records[: low - topic.base]
                topic.base = low
        self._resident = sum(len(t.records) for t in self.topics.values())

    def refresh(self) -> bool:
        """Nothing to re-scan: this instance's memory is the log."""
        return False

    def reclaim(
        self,
        min_reclaim: int,
        floors: Callable[[], Mapping[str, GroupRecovery]],
    ) -> dict[str, int]:
        """No segments to delete or rewrite (:meth:`release` suffices)."""
        return {}

    def flush(self) -> None:
        """Nothing is buffered outside this process's memory."""

    def close(self) -> None:
        """Nothing to close."""
