"""Feed records: the wire format, and nothing else.

One :class:`FeedRecord` is one JSONL line of a segment file and one
element of every poll batch; the value codec keeps those lines strictly
valid JSON; schema (de)serialisation is the payload of ``create_table``
records.  Everything here is pure -- no file, no clock, no state -- so
the memory log, the segment log and a foreign reader of the log format
all share exactly one definition of a record.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional

from repro.engine.schema import Column, TableSchema
from repro.engine.types import type_from_name
from repro.errors import FeedError

#: Record kinds.
RECORD_CHANGE = "change"
RECORD_CREATE_TABLE = "create_table"
RECORD_DROP_TABLE = "drop_table"

#: The topic DDL records are published to.
SCHEMA_TOPIC = "_schema"

#: The non-finite floats JSON cannot carry, by their wire tag.
_NONFINITE = {
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
}

#: One consumer's say in retention: (floor offsets per topic, topic
#: subscription -- None = all topics).
Contribution = tuple[dict[str, int], Optional[frozenset[str]]]


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


class FeedRecord(NamedTuple):
    """One record of the feed.

    A named tuple rather than a frozen dataclass: every published row
    mutation builds one, and a tuple is about four times cheaper to
    build and is one object for the garbage collector, not two.

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


def seq_of(record: FeedRecord) -> int:
    """Merge key: records of different topics interleave by global seq."""
    return record.seq


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
            the snapshot and replays forward), and what makes it a
            shard handoff's donor for the topics it subscribes.
        topics: the group's topic subscription (None = all topics);
            the group's floor only pins subscribed topics.
    """

    group: str
    committed: dict[str, int]
    snapshot: Optional[dict[str, int]] = None
    topics: Optional[frozenset[str]] = None

    @property
    def floor(self) -> dict[str, int]:
        """The offsets retention must keep for this group: its recovery
        point, over the topics it subscribes."""
        offsets = self.snapshot if self.snapshot is not None else self.committed
        if self.topics is None:
            return offsets
        return {n: o for n, o in offsets.items() if n in self.topics}

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


def floor_of(name: str, contributions: Iterable[Contribution]) -> int:
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


def serialize_schema(schema: TableSchema) -> dict:
    """Serialize a :class:`~repro.engine.schema.TableSchema` to JSON-safe
    form (the payload of ``create_table`` records)."""
    return {
        "name": schema.name,
        "columns": [
            {
                "name": column.name,
                "type": column.sql_type.value,
                "nullable": column.nullable,
            }
            for column in schema.columns
        ],
        "primary_key": list(schema.primary_key),
    }


def deserialize_schema(payload: dict) -> TableSchema:
    """Rebuild a :class:`~repro.engine.schema.TableSchema` from
    :func:`serialize_schema` output."""
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
