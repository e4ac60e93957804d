"""The `Database` facade: the in-memory RDBMS the Hippo frontend talks to.

This plays the role PostgreSQL played in the original system: it executes
SQL (DDL, DML and queries), answers point membership lookups, and keeps
execution statistics so the Hippo layer's optimizations are observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from repro.engine.catalog import Catalog
from repro.engine.changelog import ChangeLog
from repro.engine.feed import (
    RECORD_CHANGE,
    RECORD_CREATE_TABLE,
    RECORD_DROP_TABLE,
    ChangeFeed,
    FeedConsumer,
    FeedRecord,
    deserialize_schema,
)
from repro.engine.expressions import ExpressionCompiler, Scope, bound_entries
from repro.engine.planner import PlannedQuery, Planner
from repro.engine.schema import Column, TableSchema
from repro.engine.snapshot import restore_database, snapshot_database
from repro.engine.stats import ExecutionStats
from repro.engine.storage import Table
from repro.engine.types import SQLType, SQLValue, type_from_name
from repro.errors import (
    CatalogError,
    ExecutionError,
    FeedError,
    FeedRetentionError,
)
from repro.sql import ast
from repro.sql.parser import parse_script, parse_statement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backends.mirror import MirrorBackend

#: The consumer-group name under which a durable database's writer
#: registers itself as a retention participant.  Its latest checkpoint
#: (snapshot of catalog + tables bound to a committed cut) is the
#: writer's *recovery point*: retention never reclaims past it, and
#: before the first checkpoint the registration pins the whole history
#: -- retention never reclaims records the writer would need to reopen.
WRITER_GROUP = "__writer__"

#: Batch size for streamed feed replay: large enough to amortize
#: per-record overhead, small enough that recovery memory stays bounded
#: by the database plus one batch.
REPLAY_BATCH_RECORDS = 512


@dataclass
class Result:
    """The outcome of executing a statement.

    Attributes:
        columns: output column names (empty for DDL / DML).
        rows: result rows (empty for DDL / DML).
        rowcount: number of rows affected (DML) or returned (queries).
    """

    columns: list[str]
    rows: list[tuple]
    rowcount: int

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def as_set(self) -> frozenset[tuple]:
        """The rows as a set (order-insensitive comparisons in tests)."""
        return frozenset(self.rows)

    def scalar(self) -> SQLValue:
        """The single value of a single-row, single-column result.

        Raises:
            ExecutionError: if the shape is not 1x1.
        """
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got {len(self.rows)} rows"
            )
        return self.rows[0][0]


class Database:
    """An in-memory SQL database instance.

    Args:
        durable: a directory path; when given, every mutation (DDL and
            DML) is appended to a crash-safe partitioned change feed
            there, and opening the same directory again **restores** the
            database -- from the writer's latest :meth:`checkpoint`
            snapshot plus a replay of the retained suffix when one
            exists, by full replay otherwise.
        feed: an explicit :class:`~repro.engine.feed.ChangeFeed` to
            publish to (mutually exclusive with ``durable``); if it
            already holds history, the database is restored from it.
            Pass ``feed=ChangeFeed(directory, retention="compact")``
            for a durable database that reclaims its own history.
        checkpoint_records: when set, automatically :meth:`checkpoint`
            once at least this many new feed records have been published
            since the last one (checked after each executed statement
            and bulk insert); needs a durable feed.
    """

    def __init__(
        self,
        durable: Optional[str] = None,
        feed: Optional[ChangeFeed] = None,
        checkpoint_records: Optional[int] = None,
    ) -> None:
        if durable is not None and feed is not None:
            raise ExecutionError("pass either durable= or feed=, not both")
        if durable is not None:
            feed = ChangeFeed(directory=durable)
        #: row-mutation feed consumed by incremental conflict detection;
        #: an in-memory feed buffers nothing until a cursor is opened.
        self.changes = ChangeLog(feed=feed) if feed is not None else ChangeLog()
        if checkpoint_records is not None and not self.changes.feed.durable:
            raise ExecutionError("checkpoint_records= needs a durable feed")
        self.catalog = Catalog(self.changes)
        self.stats = ExecutionStats()
        # index name (lower) -> (table name, column names) for diagnostics.
        self._indexes: dict[str, tuple[str, tuple[str, ...]]] = {}
        self.checkpoint_records = checkpoint_records
        #: how the last open recovered state: "fresh" (no history),
        #: "replay" (full feed replay) or "snapshot" (writer checkpoint
        #: + retained-suffix replay) -- and how many feed records that
        #: recovery replayed (the suffix only, under "snapshot").
        self.restore_mode = "fresh"
        self.restore_records = 0
        if self.changes.feed.has_history:
            self._restore_from_feed()
        #: the writer's registration as a retention participant (durable
        #: feeds only): until the first checkpoint it pins offset 0
        #: everywhere, so the writer's own (or a foreign) retention
        #: policy can never delete history the writer still needs.
        self._writer: Optional[FeedConsumer] = None
        if self.changes.feed.durable:
            self._writer = self.changes.feed.consumer(
                WRITER_GROUP, start="beginning"
            )
        self._checkpoint_seq = (
            self.changes.end if checkpoint_records is not None else 0
        )
        #: optional execution backend SELECTs are routed through (see
        #: :meth:`attach_backend`); None means native execution.
        self._backend: Optional["MirrorBackend"] = None

    # ------------------------------------------------------------ durability

    def checkpoint(self) -> dict[str, int]:
        """Persist a writer recovery snapshot at the current feed end.

        The snapshot (catalog + tables with tids, the replica snapshot
        format from :mod:`repro.engine.snapshot`) is stored under the
        :data:`WRITER_GROUP` registration and becomes the writer's
        recovery point: reopening the directory restores it and replays
        only the records published after it, and retention may now
        reclaim sealed segments below it.  Write order is crash-safe --
        the snapshot lands on disk *before* the registration's floor
        moves, so a crash in between merely retains more than strictly
        necessary.

        Returns the committed cut (offset per topic) the snapshot is
        bound to.

        Raises:
            ExecutionError: on a non-durable database.
        """
        feed = self.changes.feed
        if self._writer is None:
            raise ExecutionError("checkpoint() needs a durable database")
        feed.flush()
        committed = feed.end_offsets()
        feed.store_snapshot(WRITER_GROUP, committed, snapshot_database(self))
        # Only now advance the registered floor (and give retention a
        # chance to reclaim what the new snapshot just released).
        self._writer.seek_to_end()
        self._checkpoint_seq = self.changes.end
        return committed

    def _maybe_checkpoint(self) -> None:
        if self._writer is None or self.checkpoint_records is None:
            return
        if self.changes.end - self._checkpoint_seq >= self.checkpoint_records:
            self.checkpoint()

    def _restore_from_feed(self) -> None:
        """Rebuild catalog + tables from the feed's durable history:
        :func:`recover_database` under :data:`WRITER_GROUP`, up to the
        feed's end.

        Raises:
            FeedRetentionError: when retention reclaimed part of the
                history and no writer checkpoint covers it -- the
                directory belonged to a writer that never called
                :meth:`checkpoint` (or whose :data:`WRITER_GROUP`
                registration was dropped) while something else reclaimed
                the feed.
        """
        feed = self.changes.feed
        try:
            self.restore_mode, applied = recover_database(
                self, feed, WRITER_GROUP
            )
        except FeedRetentionError as exc:
            raise FeedRetentionError(
                f"cannot restore the database at {feed.directory}:"
                " retention reclaimed part of its history and no"
                " writer checkpoint covers it (see"
                " Database.checkpoint())"
            ) from exc
        self.restore_records = sum(applied.values())

    # ------------------------------------------------------------- execution

    def execute(self, sql: str) -> Result:
        """Parse and execute a single SQL statement."""
        return self.execute_statement(parse_statement(sql))

    def execute_script(self, sql: str) -> list[Result]:
        """Execute a ``;``-separated script, returning one result each."""
        return [self.execute_statement(stmt) for stmt in parse_script(sql)]

    def query(self, sql: str) -> Result:
        """Execute a statement that must be a query."""
        statement = parse_statement(sql)
        if not isinstance(statement, ast.SelectStatement):
            raise ExecutionError("query() requires a SELECT statement")
        return self.execute_statement(statement)

    # ------------------------------------------------------------- backends

    def attach_backend(self, backend: "MirrorBackend") -> None:
        """Route SELECT execution through ``backend``.

        The database stays the source of truth (DML and DDL always run
        natively); SELECTs are pushed to the backend, and one it
        declines runs natively and counts a ``backend_fallbacks``.
        """
        backend.attach(self)
        self._backend = backend

    def detach_backend(self) -> None:
        """Return to native-only execution (the backend stays usable)."""
        self._backend = None

    @property
    def backend(self) -> Optional["MirrorBackend"]:
        """The attached execution backend, if any."""
        return self._backend

    @property
    def backend_id(self) -> str:
        """The name of the current executor (``"native"`` without a
        backend)."""
        return self._backend.name if self._backend is not None else "native"

    # ------------------------------------------------------------- execution

    def execute_statement(self, statement: ast.Statement) -> Result:
        """Execute an already-parsed statement."""
        result = self._execute_statement(statement)
        self._maybe_checkpoint()
        return result

    def _execute_statement(self, statement: ast.Statement) -> Result:
        self.stats.statements += 1
        if isinstance(statement, ast.SelectStatement):
            return self._execute_select(statement.query)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create(statement)
        if isinstance(statement, ast.DropTable):
            self.catalog.drop_table(statement.name, statement.if_exists)
            self._indexes = {
                name: info
                for name, info in self._indexes.items()
                if info[0].lower() != statement.name.lower()
            }
            return Result([], [], 0)
        if isinstance(statement, ast.CreateIndex):
            return self._execute_create_index(statement)
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement)
        raise ExecutionError(f"cannot execute {type(statement).__name__}")

    def plan(self, query: ast.Query) -> PlannedQuery:
        """Plan a query AST (exposed for the RA layer and for EXPLAIN)."""
        return Planner(self.catalog, self.stats).plan_query(query)

    def explain(self, sql: str) -> str:
        """The physical plan of a query -- or, for an UPDATE / DELETE,
        of its ``WHERE`` matching -- as an indented tree."""
        statement = parse_statement(sql)
        if isinstance(statement, (ast.Update, ast.Delete)):
            return self._plan_matching(statement).plan.explain()
        if not isinstance(statement, ast.SelectStatement):
            raise ExecutionError(
                "explain() requires a SELECT, UPDATE or DELETE statement"
            )
        return self.plan(statement.query).plan.explain()

    # ----------------------------------------------------- programmatic API

    def create_table(
        self,
        name: str,
        columns: Sequence[tuple[str, SQLType] | Column],
        primary_key: Optional[Sequence[str]] = None,
    ) -> Table:
        """Create a table without going through SQL (used by workloads)."""
        built = tuple(
            column if isinstance(column, Column) else Column(column[0], column[1])
            for column in columns
        )
        schema = TableSchema(name, built, tuple(primary_key or ()))
        return self.catalog.create_table(schema)

    def insert_rows(
        self, table_name: str, rows: Iterable[Sequence[SQLValue]]
    ) -> list[int]:
        """Bulk-insert rows; returns the assigned tids."""
        table = self.catalog.table(table_name)
        tids = [table.insert(row) for row in rows]
        self._maybe_checkpoint()
        return tids

    def table(self, name: str) -> Table:
        """Access a stored table by name."""
        return self.catalog.table(name)

    def lookup(self, table_name: str, row: Sequence[SQLValue]) -> frozenset[int]:
        """Point membership query: tids of rows equal to ``row``.

        This is the primitive the paper's base Prover uses ("executing the
        appropriate membership queries on the database"); it bumps the
        ``point_lookups`` statistic so benchmarks can count them.
        """
        self.stats.point_lookups += 1
        return self.catalog.table(table_name).lookup(row)

    # ------------------------------------------------------------- internals

    def _execute_select(self, query: ast.Query) -> Result:
        """Run a SELECT on the attached backend (a decline falls back,
        counted), natively when there is none -- the one path every
        SELECT takes, text or AST."""
        backend = self._backend
        if backend is None:
            return self._native_select(query)

        def pushed() -> Result:
            columns, rows = backend.execute_query(query)
            return Result(list(columns), rows, len(rows))

        return backend.pushdown(pushed, lambda: self._native_select(query))

    def _native_select(self, query: ast.Query) -> Result:
        """Plan and run a SELECT natively."""
        planned = self.plan(query)
        rows = planned.run()
        return Result(planned.columns, rows, len(rows))

    def _execute_create(self, statement: ast.CreateTable) -> Result:
        if statement.if_not_exists and self.catalog.has_table(statement.name):
            return Result([], [], 0)
        columns = tuple(
            Column(col.name, type_from_name(col.type_name), nullable=not col.not_null)
            for col in statement.columns
        )
        schema = TableSchema(statement.name, columns, statement.primary_key)
        self.catalog.create_table(schema)
        return Result([], [], 0)

    def _execute_create_index(self, statement: ast.CreateIndex) -> Result:
        key = statement.name.lower()
        if key in self._indexes:
            if statement.if_not_exists:
                return Result([], [], 0)
            raise CatalogError(f"index {statement.name!r} already exists")
        table = self.catalog.table(statement.table)
        positions = [table.schema.index_of(c) for c in statement.columns]
        table.create_index(positions)
        self._indexes[key] = (statement.table, statement.columns)
        return Result([], [], 0)

    def create_index(self, table_name: str, columns: Sequence[str]) -> None:
        """Programmatic CREATE INDEX (used by workloads and tests)."""
        name = f"idx_{table_name}_{'_'.join(columns)}"
        self._execute_create_index(
            ast.CreateIndex(name, table_name, tuple(columns), if_not_exists=True)
        )

    def indexes(self) -> dict[str, tuple[str, tuple[str, ...]]]:
        """Declared indexes: name -> (table, columns)."""
        return dict(self._indexes)

    def _evaluate_literal_row(
        self, exprs: Sequence[ast.Expression]
    ) -> list[SQLValue]:
        compiler = ExpressionCompiler(Scope([], None, 0))
        values = []
        for expr in exprs:
            evaluator = compiler.compile(expr)
            values.append(evaluator(((),)))
        return values

    def _execute_insert(self, statement: ast.Insert) -> Result:
        table = self.catalog.table(statement.table)
        schema = table.schema
        count = 0
        for row_exprs in statement.rows:
            values = self._evaluate_literal_row(row_exprs)
            if statement.columns:
                if len(values) != len(statement.columns):
                    raise ExecutionError(
                        f"INSERT has {len(values)} values for"
                        f" {len(statement.columns)} columns"
                    )
                full_row: list[SQLValue] = [None] * schema.arity
                for column_name, value in zip(statement.columns, values):
                    full_row[schema.index_of(column_name)] = value
                table.insert(full_row)
            else:
                table.insert(values)
            count += 1
        return Result([], [], count)

    def _plan_matching(self, statement: ast.Update | ast.Delete) -> PlannedQuery:
        """The plan producing the rows (tid last) the statement hits."""
        planner = Planner(self.catalog, self.stats)
        return planner.plan_matching(statement.table, statement.where)

    def _row_compiler(self, table: Table) -> ExpressionCompiler:
        """Compiles DML expressions over one row of ``table``."""
        schema = table.schema
        scope = Scope(bound_entries(schema.name, schema.column_names), None, 0)
        return Planner(self.catalog, self.stats)._compiler(scope)

    def _execute_delete(self, statement: ast.Delete) -> Result:
        table = self.catalog.table(statement.table)
        # Matches are materialised before the first mutation.
        matches = self._plan_matching(statement).run()
        for row in matches:
            table.delete(row[-1])
        return Result([], [], len(matches))

    def _execute_update(self, statement: ast.Update) -> Result:
        table = self.catalog.table(statement.table)
        schema = table.schema
        compiler = self._row_compiler(table)
        compiled = [
            (schema.index_of(column), compiler.compile(value))
            for column, value in statement.assignments
        ]
        # Every new row is computed before the first mutation, so a
        # subquery in SET reads the table as the statement found it.
        updates = []
        for row in self._plan_matching(statement).run():
            new_row = list(row[:-1])
            for index, evaluator in compiled:
                new_row[index] = evaluator((row,))
            updates.append((row[-1], new_row))
        for tid, new_row in updates:
            table.update(tid, new_row)
        return Result([], [], len(updates))


def apply_feed_record(db: Database, record: FeedRecord) -> None:
    """Apply one change-feed record to a database (replay primitive).

    Used by durable-database recovery and by replicas rebuilding their
    own copy of the state: DDL records create/drop tables, change
    records restore/delete rows under their original tids (an UPDATE
    arrives as its delete + insert pair).

    Raises:
        FeedError: for an unknown record kind.
    """
    if record.kind == RECORD_CHANGE:
        table = db.catalog.table(record.topic)
        if record.op == "insert":
            table.restore(record.tid, record.row)
        else:
            table.delete(record.tid)
        return
    if record.kind == RECORD_CREATE_TABLE:
        db.catalog.create_table(deserialize_schema(record.schema))
        return
    if record.kind == RECORD_DROP_TABLE:
        db.catalog.drop_table(record.table, if_exists=True)
        return
    raise FeedError(f"unknown feed record kind {record.kind!r}")


def apply_feed_records(db: Database, records: Sequence[FeedRecord]) -> None:
    """Apply a poll batch of feed records (batched replay primitive).

    Equivalent to calling :func:`apply_feed_record` on each record in
    order, but runs of change records on the same topic are folded into
    one :meth:`~repro.engine.storage.Table.apply_changes` call -- one
    catalog lookup, one columnar-cache invalidation and one tight loop
    per run instead of full per-record dispatch.  This is what lets feed
    replay and replica sync amortize per-record overhead across a batch.

    Order is preserved exactly (a DDL record ends the current run), so
    the database state after this call is identical to the per-record
    replay -- including on failure, where every record before the
    failing one has been applied.

    Raises:
        FeedError: for an unknown record kind.
    """
    count = len(records)
    start = 0
    while start < count:
        record = records[start]
        if record.kind != RECORD_CHANGE:
            apply_feed_record(db, record)
            start += 1
            continue
        topic = record.topic
        stop = start + 1
        while stop < count:
            nxt = records[stop]
            if nxt.kind != RECORD_CHANGE or nxt.topic != topic:
                break
            stop += 1
        db.catalog.table(topic).apply_changes(
            [(r.tid, r.row, r.op) for r in records[start:stop]]
        )
        start = stop


def replay_feed_records(
    db: Database, records: Iterable[FeedRecord], applied: dict[str, int]
) -> None:
    """Apply a record *stream* in bounded batches, counting the records
    per topic into ``applied`` once their batch was applied.

    The one replay loop (recovery and replica sync both call it):
    records accumulate up to :data:`REPLAY_BATCH_RECORDS`, then one
    :func:`apply_feed_records` folds them in -- amortized per-record
    overhead, and a lazy stream (feed segments read one at a time) is
    never materialized whole.
    """
    stream = iter(records)
    while batch := list(islice(stream, REPLAY_BATCH_RECORDS)):
        apply_feed_records(db, batch)
        for record in batch:
            applied[record.topic] = applied.get(record.topic, 0) + 1


def recover_database(
    db: Database,
    feed: ChangeFeed,
    group: str,
    upto: Optional[dict[str, int]] = None,
) -> tuple[str, dict[str, int]]:
    """Rebuild the (empty) ``db`` as ``group`` last saw ``feed``.

    The one recovery rule, for every participant: when the group stored
    a snapshot, restore it and replay only the retained records past its
    cut (``"snapshot"``); otherwise replay the history from offset 0
    (``"replay"``).  Either way the replay stops at ``upto`` (default:
    the feed's end) and is *streamed* -- one segment per topic resident
    at a time -- so recovery costs memory proportional to the database,
    not to every write ever made.  ``db``'s own publishing is suspended
    throughout: recovery must not append its history back onto a feed.

    Returns ``(mode, records applied per topic)``.

    Raises:
        FeedRetentionError: when retention reclaimed part of the range
            and no snapshot of the group covers it.
        FeedError: for any other unreadable history.
    """
    snapshot = feed.load_snapshot(group)
    start = None
    applied: dict[str, int] = {}
    with db.changes.feed.suspended():
        if snapshot is not None:
            start, payload = snapshot
            restore_database(db, payload)
        try:
            # iter_records validates retention eagerly, but segment
            # files are read lazily -- a reclaim racing us (another
            # process's retention) can still surface mid-replay, so the
            # whole replay is inside the try.
            replay_feed_records(
                db, feed.iter_records(start=start, upto=upto), applied
            )
        except FeedError:
            # Whoever reclaimed the history may have stored a snapshot
            # first: look again before giving up, on an emptied
            # database (the replay half-applied).
            if snapshot is not None or feed.load_snapshot(group) is None:
                raise
            db.catalog = Catalog(db.changes)
            db._indexes.clear()
            return recover_database(db, feed, group, upto)
    return ("replay" if snapshot is None else "snapshot"), applied
