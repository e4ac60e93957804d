"""Database snapshots: the shared recovery wire format.

A snapshot is a JSON-safe serialization of a whole database -- every
table's schema plus its rows *under their original tids* (tids are the
conflict hypergraph's vertices, so recovery must reproduce them
exactly).  Three recovery participants share the format, and one routine
(:func:`~repro.engine.database.recover_database`) restores it for all of
them -- the group's snapshot plus the retained records past its cut:

* **Replicas** (:class:`~repro.conflicts.replica.ReplicaHypergraph`)
  store one as their consumer group's snapshot, so re-attaching costs
  what they missed and survives retention truncating their prefix.
* **The durable writer itself** (:class:`~repro.engine.database.Database`
  with a durable feed) checkpoints one so ``Database(durable=dir)`` can
  reopen even after its own retention policy deleted the sealed
  segments a full replay would need.
* **Shard workers** (:class:`~repro.conflicts.shard.ShardWorker`)
  checkpoint *partial* snapshots -- every schema, but rows only for the
  relations their topic subscription covers -- and the shard merge
  assembles a full database by restoring each worker's owned slice into
  one target (``restore_database(..., merge=True)``).

Values ride through :func:`~repro.engine.feed.encode_value` /
:func:`~repro.engine.feed.decode_value`, so non-finite REALs survive the
strict-JSON snapshot files exactly like they survive feed segments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.engine.changelog import OP_INSERT
from repro.engine.feed import (
    decode_value,
    deserialize_schema,
    encode_value,
    serialize_schema,
)

if TYPE_CHECKING:
    from repro.engine.database import Database


def snapshot_database(
    db: Database, tables: Optional[Iterable[str]] = None
) -> dict:
    """Serialize ``db`` (schemas + rows with tids) to a JSON-safe dict.

    Tables appear in catalog (creation) order; restoring them in that
    order can therefore never trip over a dependency the original
    database did not have.

    Args:
        tables: when given, a *partial* snapshot: every table's schema
            is still serialized (a restore must rebuild the full
            catalog), but rows -- and the tid allocation cursor --
            only for the named tables (case-insensitive).  This is the
            shard-worker shape: one worker's slice of the database.
    """
    include = (
        None if tables is None else {str(name).lower() for name in tables}
    )
    serialized = []
    for name in db.catalog.table_names():
        table = db.table(name)
        entry: dict[str, object] = {"schema": serialize_schema(table.schema)}
        if include is None or name.lower() in include:
            # The allocation cursor travels with the rows: rows that
            # lived and died before the cut must not get their tids
            # re-issued after a restore (a full-history replay would
            # never re-issue them).
            entry["next_tid"] = table.next_tid
            entry["rows"] = [
                [tid, [encode_value(v) for v in row]]
                for tid, row in table.items()
            ]
        serialized.append(entry)
    return {"tables": serialized}


def restore_database(
    db: Database,
    payload: dict,
    tables: Optional[Iterable[str]] = None,
    merge: bool = False,
) -> None:
    """Rebuild ``db`` from a :func:`snapshot_database` payload.

    Publishing is suspended for the duration: restoring history must
    not append that history back onto the database's own change feed.

    Args:
        tables: restore rows only for these tables (case-insensitive);
            schemas are always restored, so the catalog comes back in
            full.  A replica subscribed to a topic subset restores the
            writer's checkpoint through this filter.
        merge: tolerate tables that already exist (rows are added into
            them, the allocation cursor is raised, the schema is left
            as-is).  The shard merge restores one worker's owned slice
            after another into the same target database.
    """
    include = (
        None if tables is None else {str(name).lower() for name in tables}
    )
    with db.changes.feed.suspended():
        for entry in payload.get("tables", []):
            schema = deserialize_schema(entry["schema"])
            if merge and db.catalog.has_table(schema.name):
                table = db.catalog.table(schema.name)
            else:
                table = db.catalog.create_table(schema)
            if include is not None and schema.name.lower() not in include:
                continue  # partial restore: schema only
            table.apply_changes(
                (int(tid), tuple(decode_value(v) for v in row), OP_INSERT)
                for tid, row in entry.get("rows", [])
            )
            table.reserve_tids(int(entry.get("next_tid", 0)))
