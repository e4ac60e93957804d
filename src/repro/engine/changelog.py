"""The database change log: what storage publishes row mutations to.

One row mutation is ``(relation, tid, row, op)`` -- the change fields
of a :class:`~repro.engine.feed.FeedRecord`, the one delta shape every
consumer reads.  An UPDATE keeps its tid but changes the row, so storage
publishes it as a ``delete`` of the old row followed by an ``insert`` of
the new one under the same tid; consumers treat the pair as "retract
everything incident to the tuple, then re-derive".  :class:`ChangeLog`
binds one database to one :class:`~repro.engine.feed.ChangeFeed`, which
owns topics, consumer groups, retention and durability -- see its
package docstring.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.feed import (
    RECORD_CREATE_TABLE,
    RECORD_DROP_TABLE,
    ChangeFeed,
    serialize_schema,
)
from repro.engine.schema import TableSchema

#: Ops a change can carry.  UPDATE is published as DELETE + INSERT.
OP_INSERT = "insert"
OP_DELETE = "delete"


class ChangeLog:
    """The mutation stream of one database, backed by a change feed.

    Writers call :meth:`record`; readers attach to :attr:`feed` with
    :meth:`~repro.engine.feed.ChangeFeed.consumer`.  Without an explicit
    ``feed`` the log owns an in-memory one, which buffers nothing until
    a consumer group exists.
    """

    def __init__(self, feed: Optional[ChangeFeed] = None) -> None:
        self.feed = feed if feed is not None else ChangeFeed()

    @property
    def end(self) -> int:
        """The global sequence number one past the newest record."""
        return self.feed.next_seq

    def record(self, relation: str, tid: int, row: tuple, op: str) -> None:
        """Publish one mutation (dropped when nobody is listening and
        the feed is not durable).  ``relation`` is lower-cased; ``row``
        is the inserted row for ``insert`` and the row as it was stored
        for ``delete``."""
        self.feed.publish_change(relation, tid, row, op)

    def schema_created(self, schema: TableSchema) -> None:
        """Publish a CREATE TABLE (serialized schema rides the feed)."""
        self.feed.publish_schema(
            RECORD_CREATE_TABLE, schema.name.lower(), serialize_schema(schema)
        )

    def schema_dropped(self, name: str) -> None:
        """Publish a DROP TABLE."""
        self.feed.publish_schema(RECORD_DROP_TABLE, name.lower())
