"""The pushdown backend: native relations mirrored into a SQL engine.

The paper's point about the rewriting approach is that consistent
queries are *first-order*, hence runnable on any ordinary RDBMS; this
package makes that concrete.  A :class:`MirrorBackend` is the one
executor the CQA layers hand relational work to -- an SJUD tree (a
query's raw answers), a SELECT AST (a rewritten consistent query) or a
denial constraint's residual join.  Where a layer takes a backend,
``None`` means the native engine: there is no native backend object.
Subclasses differ only by driver
(:class:`~repro.backends.sqlite.SQLiteBackend`,
:class:`~repro.backends.duckdb.DuckDBBackend`).

Ownership rules: a backend never owns the data.  The native
:class:`~repro.engine.database.Database` is the single source of truth,
and the backend keeps one mirror table per native relation.  A mirror
follows its database's change feed exactly as the hypergraph engine
does: :meth:`MirrorBackend.attach` opens an ephemeral consumer group at
the feed's end, and every execution entry point first syncs -- it polls
the group, folds each relation's change records to their net effect
per tid (last op wins; an UPDATE is delete + insert under one tid) and
applies that as one delete-by-tid batch plus one insert batch.  A
table is copied whole (:meth:`MirrorBackend._rebuild_mirror`) only on
its first sync, after a DDL record naming it, after lost feed history,
when its schema or index shape changed, when a mutation reached it
without reaching the feed (replica replay, snapshot restore, a
suspended feed) -- :attr:`repro.engine.storage.Table.version` moves by
one per row mutation, so a version that moved further than the table's
records in the batch exposes exactly that -- and when the batch touches
so many of its rows (over 40 %) that copying them is cheaper.  Tids
survive the crossing -- subclasses either pin them into the engine's
``rowid`` (SQLite) or store them in an explicit, indexed leading
column (DuckDB) -- so residual-join results are directly usable as
conflict-hypergraph vertices, and a delta addresses its rows by tid.
Answers flow back coerced to the native type system (booleans in
particular, derived tables included), so every backend is
exchangeable under the differential oracle suite
(``tests/backends/test_differential.py``).

Every pushdown goes through :meth:`MirrorBackend.pushdown`: a call the
backend declines (:class:`~repro.errors.BackendError`) is counted in
``db.stats.backend_fallbacks`` and re-run natively -- a fallback is
never silent.

All SQL text handed to the driver comes from
:mod:`repro.ra.to_sql` (parameterized rendering and quoting helpers);
no interpolated SQL is built here (hippolint HL015).
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from dataclasses import fields, replace
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence, TypeVar

from repro.engine.catalog import Catalog
from repro.engine.changelog import OP_INSERT
from repro.engine.database import Database
from repro.engine.expressions import Scope, bound_entries
from repro.engine.feed import RECORD_CHANGE, FeedConsumer, FeedRecord
from repro.engine.schema import TableSchema
from repro.engine.storage import Table
from repro.engine.types import SQLType
from repro.errors import AlgebraError, BackendError
from repro.ra.sjud import SJUDCore, SJUDTree, output_types_of
from repro.ra.to_sql import (
    ParameterizedSQL,
    create_index_sql,
    create_table_sql,
    delete_by_key_sql,
    drop_table_sql,
    insert_sql,
    render_core_tids,
    render_query,
    render_tree,
)
from repro.sql import ast

T = TypeVar("T")
N = TypeVar("N", bound=ast.Node)

_MAX_EDGE_ARITY = 64

#: A batch touching more tids than this share of a table's rows rebuilds
#: the mirror instead of applying a delta: a delta costs per touched tid,
#: a rebuild per row, and on SQLite (both tid layouts, N = 2k and 16k)
#: the two cross between 0.4 and 0.5 of the rows.
_REBUILD_SHARE = 0.4


class _Mirror(NamedTuple):
    """What one mirror table was last synced from: the native table
    (weakly -- a dropped table's id may be reused by its successor),
    its :attr:`~repro.engine.storage.Table.version` and its shape."""

    table: "weakref.ref[Table]"
    version: int
    shape: tuple


def _shape(table: Table) -> tuple:
    """Schema + index layout: a change means rebuild (``CREATE INDEX``
    publishes no feed record)."""
    schema = table.schema
    return (
        schema.column_names,
        tuple(column.sql_type for column in schema.columns),
        tuple(sorted(table.indexed_column_sets())),
    )


class MirrorBackend(ABC):
    """A SQL engine holding mirrors of one attached database's relations.

    Lifecycle: construct, :meth:`attach` to a database, execute any
    number of trees / queries / residual joins, :meth:`close`.  A
    backend is bound to at most one database at a time; attaching a
    second one replaces the first.
    """

    #: Registry name (``"sqlite"``, ``"duckdb"``).
    name: str = "abstract"
    #: The column (or pseudo-column) carrying native tids in mirrors.
    tid_column: str = "_tid"
    #: Whether :attr:`tid_column` is the engine's rowid (not a real
    #: column) rather than an explicit leading column of the mirror.
    tid_is_rowid: bool = False

    def __init__(self) -> None:
        self._db: Optional[Database] = None
        self._conn: Optional[Any] = None
        self._consumer: Optional[FeedConsumer] = None
        self._release: Callable[[], object] = lambda: None
        #: relation -> its mirror's sync state; None while the mirror
        #: table may exist but must be rebuilt before use.
        self._mirrored: dict[str, Optional[_Mirror]] = {}

    # ------------------------------------------------------------- plumbing

    @abstractmethod
    def _connect(self) -> Any:
        """Open and configure the driver connection."""

    @abstractmethod
    def _driver_errors(self) -> tuple[type[BaseException], ...]:
        """The driver's exception classes, wrapped into BackendError."""

    @abstractmethod
    def type_name(self, sql_type: SQLType) -> str:
        """The backend's column type name for a native :class:`SQLType`."""

    def attach(self, db: Database) -> None:
        """Bind the backend to ``db`` (the oracle and source of truth)
        and follow its change feed.

        Re-attaching to the same database keeps the mirrors; attaching
        another one releases the old feed group and rebuilds every
        mirror on the next sync.
        """
        if db is self._db:
            return
        self._release()
        self._forget()
        feed = db.changes.feed
        # Ephemeral: its position means nothing to another process, so
        # a durable feed writes nothing under consumers/ for it.
        consumer = feed.consumer()
        # A backend dropped without close() must not pin the feed.
        self._release = weakref.finalize(self, feed.close_group, consumer.group)
        self._consumer = consumer
        self._db = db

    @property
    def db(self) -> Database:
        """The attached database.

        Raises:
            BackendError: when no database is attached.
        """
        if self._db is None:
            raise BackendError(f"backend {self.name!r} is not attached")
        return self._db

    @property
    def connection(self) -> Any:
        """The live driver connection (opened on first use)."""
        if self._conn is None:
            self._conn = self._connect()
        return self._conn

    def close(self) -> None:
        """Release the database and its feed group, drop mirror state,
        close the driver."""
        try:
            if self._conn is not None:
                self._conn.close()
        finally:
            # Even a failing driver close() must not leave the backend
            # half-alive: the next use would sync against stale mirror
            # state over a dead connection.
            self._release()
            self._conn = None
            self._consumer = None
            self._mirrored.clear()
            self._db = None

    def pushdown(self, pushed: Callable[[], T], native: Callable[[], T]) -> T:
        """Run ``pushed`` here; if the backend declines, count a fallback
        on the attached database and run ``native`` instead.

        The one place a pushdown may fall back: every caller offering
        work to a backend goes through it, so ``backend_fallbacks``
        sees every decline.
        """
        try:
            return pushed()
        except BackendError:
            self.db.stats.backend_fallbacks += 1
            return native()

    # ----------------------------------------------------------------- sync

    def _forget(self) -> None:
        """Mark every mirror for rebuild (the tables stay until then)."""
        self._mirrored = dict.fromkeys(self._mirrored)

    def sync(self) -> None:
        """Bring every mirror up to date with the attached database.

        Applies the polled change records as one delete-by-tid batch
        and one insert batch per relation; rebuilds a relation when the
        batch cannot bring its mirror up to date (see the module
        docstring) or touches so many of its rows that a copy is
        cheaper; drops mirrors of relations that no longer exist.
        Called automatically by the execution entry points.

        Raises:
            BackendError: on any driver failure (the mirror state is
                forgotten, so the next sync rebuilds everything).
        """
        db = self.db
        assert self._consumer is not None  # attached
        self._consumer.consume(lambda records, lost: self._apply(db, records, lost))

    def _apply(self, db: Database, records: list[FeedRecord], lost: bool) -> None:
        """:meth:`sync`'s apply step over one polled batch."""
        conn = self.connection
        if lost:
            self._forget()
        mirrored = self._mirrored
        net: dict[str, dict[int, Optional[tuple]]] = {}
        counts: dict[str, int] = {}
        for record in records:
            topic = record.topic
            if record.kind == RECORD_CHANGE:
                net.setdefault(topic, {})[record.tid] = (
                    record.row if record.op == OP_INSERT else None
                )
                counts[topic] = counts.get(topic, 0) + 1
            elif record.table in mirrored:
                mirrored[record.table] = None
        try:
            live: set[str] = set()
            for table in db.catalog:
                key = table.schema.name.lower()
                live.add(key)
                state = mirrored.get(key)
                shape = _shape(table)
                changes = net.get(key, {})
                if (
                    state is None
                    or state.table() is not table
                    or state.shape != shape
                    or table.version - state.version != counts.get(key, 0)
                    or len(changes) > _REBUILD_SHARE * len(table)
                ):
                    self._rebuild_mirror(conn, table)
                    mirrored[key] = _Mirror(weakref.ref(table), table.version, shape)
                elif changes:
                    self._apply_changes(conn, table.schema, changes)
                    mirrored[key] = state._replace(version=table.version)
            for key in sorted(set(mirrored) - live):
                conn.execute(drop_table_sql(key))
                del mirrored[key]
            conn.commit()
        except self._driver_errors() as exc:
            # Native storage is the truth: the next sync rebuilds every
            # mirror from it, whatever records it is delivered again.
            self._forget()
            raise BackendError(
                f"backend {self.name!r} failed to sync mirrors: {exc}"
            ) from exc

    def _insert_sql(self, schema: TableSchema) -> str:
        return insert_sql(
            schema.name.lower(),
            schema.arity + 1,
            columns=(self.tid_column,) + schema.column_names,
        )

    def _apply_changes(
        self,
        conn: Any,
        schema: TableSchema,
        net: dict[int, Optional[tuple]],
    ) -> None:
        """Fold one relation's net changes (tid -> final row, None for
        gone) into its mirror."""
        conn.executemany(
            delete_by_key_sql(schema.name.lower(), self.tid_column),
            [(tid,) for tid in net],
        )
        rows = [(tid,) + row for tid, row in net.items() if row is not None]
        if rows:
            conn.executemany(self._insert_sql(schema), rows)

    def _rebuild_mirror(self, conn: Any, table: Table) -> None:
        schema = table.schema
        key = schema.name.lower()
        names = schema.column_names
        columns = [
            (column.name, self.type_name(column.sql_type))
            for column in schema.columns
        ]
        if not self.tid_is_rowid:
            columns.insert(0, (self.tid_column, self.type_name(SQLType.INTEGER)))
        elif self.tid_column.lower() in {n.lower() for n in names}:
            raise BackendError(
                f"relation {key!r} has a column named {self.tid_column!r},"
                f" which backend {self.name!r} reserves for native tids"
            )
        conn.execute(drop_table_sql(key))
        conn.execute(create_table_sql(key, columns))
        conn.executemany(
            self._insert_sql(schema),
            [(tid,) + row for tid, row in table.items()],
        )
        for number, positions in enumerate(table.indexed_column_sets()):
            conn.execute(
                create_index_sql(
                    f"idx_{key}_{number}",
                    key,
                    [names[position] for position in positions],
                )
            )
        if not self.tid_is_rowid:
            # A delta deletes by tid: without an index each one scans.
            conn.execute(create_index_sql(f"idx_{key}_tid", key, [self.tid_column]))

    # ------------------------------------------------------------ execution

    def _run(self, rendered: ParameterizedSQL) -> tuple[tuple[str, ...], list[tuple]]:
        try:
            cursor = self.connection.execute(rendered.text, rendered.params)
            columns = tuple(
                description[0] for description in cursor.description or ()
            )
            rows = [tuple(row) for row in cursor.fetchall()]
        except self._driver_errors() as exc:
            raise BackendError(
                f"backend {self.name!r} rejected pushed SQL: {exc}"
            ) from exc
        self.db.stats.backend_pushdowns += 1
        return columns, rows

    @staticmethod
    def _coerce_rows(rows: list[tuple], boolean: Sequence[int]) -> list[tuple]:
        """``rows`` with the values in the ``boolean`` columns made bool."""
        if not boolean:
            return rows
        coerced = []
        for row in rows:
            values = list(row)
            for index in boolean:
                if values[index] is not None:
                    values[index] = bool(values[index])
            coerced.append(tuple(values))
        return coerced

    def execute_tree(self, tree: SJUDTree) -> frozenset[tuple]:
        """Render the tree to parameterized SQL and push it down."""
        self.sync()
        try:
            rendered = render_tree(tree)
        except AlgebraError as exc:
            raise BackendError(f"cannot lower tree: {exc}") from exc
        _, rows = self._run(rendered)
        types = output_types_of(tree, self.db.catalog)
        boolean = [
            i for i, kinds in enumerate(types) if kinds - {None} == {SQLType.BOOLEAN}
        ]
        return frozenset(self._coerce_rows(rows, boolean))

    def execute_query(
        self, query: ast.Query
    ) -> tuple[tuple[str, ...], list[tuple]]:
        """Render the SELECT to parameterized SQL and push it down.

        Raises:
            BackendError: when the query cannot be lowered or executed
                here (:meth:`pushdown` turns that into a counted native
                fallback).
        """
        self.sync()
        catalog = self.db.catalog
        try:
            rendered = render_query(
                query if self.tid_is_rowid else _spell_out_stars(query, catalog)
            )
        except AlgebraError as exc:
            raise BackendError(f"cannot lower query: {exc}") from exc
        columns, rows = self._run(rendered)
        _, types = _body_columns(query.body, catalog)
        if len(types) != len(columns):
            raise BackendError(
                f"pushed SELECT returned {len(columns)} columns, its typing"
                f" {len(types)}"
            )
        boolean = [i for i, kind in enumerate(types) if kind is SQLType.BOOLEAN]
        return columns, self._coerce_rows(rows, boolean)

    def residual_join(self, core: SJUDCore) -> list[tuple[int, ...]]:
        """Evaluate a denial constraint's residual join here.

        ``core`` is the constraint body (atoms + condition, no outputs);
        the result rows carry one native tid per atom, in atom order.
        Conflict detection turns each row into a hyperedge.
        """
        if len(core.atoms) > _MAX_EDGE_ARITY:
            raise BackendError(
                f"residual join over {len(core.atoms)} atoms exceeds the"
                f" mirror backend limit of {_MAX_EDGE_ARITY}"
            )
        self.sync()
        try:
            rendered = render_core_tids(core, self.tid_column)
        except AlgebraError as exc:
            raise BackendError(f"cannot lower residual join: {exc}") from exc
        _, rows = self._run(rendered)
        return [tuple(int(tid) for tid in row) for row in rows]


# ---------------------------------------------------------------------------
# Output typing (read-side coercion contract)
# ---------------------------------------------------------------------------


def _cores(body: ast.SelectCore | ast.SetOperation) -> list[ast.SelectCore]:
    """A SELECT body's cores, left to right."""
    if isinstance(body, ast.SetOperation):
        return _cores(body.left) + _cores(body.right)
    return [body]


def _from_tables(items: Sequence[ast.FromItem]) -> list[ast.FromItem]:
    """The stored and derived tables a FROM list reads, joins flattened,
    in scope order."""
    tables: list[ast.FromItem] = []
    for item in items:
        if isinstance(item, ast.Join):
            tables.extend(_from_tables((item.left, item.right)))
        else:
            tables.append(item)
    return tables


def _covers(star: ast.Star, binding: str) -> bool:
    """Whether ``star`` (``*`` or ``alias.*``) includes ``binding``'s columns."""
    return star.table is None or star.table.lower() == binding.lower()


def _core_scope(core: ast.SelectCore, catalog: Catalog) -> Scope:
    """The typed scope a SELECT core's items resolve in: each stored
    relation's declared columns and each derived table's body columns
    (:func:`_body_columns`), bound by alias, in FROM order."""
    entries: list[tuple[Optional[str], str]] = []
    types: list[Optional[SQLType]] = []
    for item in _from_tables(core.from_items):
        if isinstance(item, ast.DerivedTable):
            names, kinds = _body_columns(item.query.body, catalog)
            entries.extend(bound_entries(item.alias, names))
            types.extend(kinds)
        elif isinstance(item, ast.TableRef):
            schema = catalog.table(item.name).schema
            entries.extend(bound_entries(item.binding, schema.column_names))
            types.extend(column.sql_type for column in schema.columns)
    return Scope(entries, types=types)


def _core_columns(
    core: ast.SelectCore, catalog: Catalog
) -> list[tuple[str, set[Optional[SQLType]]]]:
    """Each output column of a SELECT core: its name ("" when it has
    none) and the types its values can have -- none for a NULL literal,
    else :meth:`~repro.engine.expressions.Scope.declared_type`."""
    scope = _core_scope(core, catalog)
    columns: list[tuple[str, set[Optional[SQLType]]]] = []
    for item in core.items:
        if isinstance(item, ast.Star):
            columns.extend(
                (column, {kind})
                for (binding, column), kind in zip(scope.entries, scope.types)
                if item.table is None or binding == item.table.lower()
            )
            continue
        expr = item.expr
        name = item.alias or (expr.name if isinstance(expr, ast.ColumnRef) else "")
        null = isinstance(expr, ast.Literal) and expr.value is None
        columns.append((name, set() if null else {scope.declared_type(expr)}))
    return columns


def _body_columns(
    body: ast.SelectCore | ast.SetOperation, catalog: Catalog
) -> tuple[list[str], list[Optional[SQLType]]]:
    """A SELECT body's output column names (its first core's) and types,
    from the AST and the catalog alone.  A column has the one type every
    branch gives it (a NULL literal fits any); None when the branches
    disagree or one is untyped -- backends leave such values as the
    driver returned them."""
    cores = [_core_columns(core, catalog) for core in _cores(body)]
    types: list[Optional[SQLType]] = []
    for column in zip(*cores):
        kinds = set().union(*(kinds for _, kinds in column))
        types.append(kinds.pop() if len(kinds) == 1 else None)
    return [name for name, _ in cores[0]], types


def _spelled_items(
    core: ast.SelectCore, catalog: Catalog
) -> Iterator[ast.SelectItem | ast.Star]:
    """A core's select list with each ``*`` over a stored relation
    spelled out as its declared columns; a derived table's stays."""
    for item in core.items:
        if not isinstance(item, ast.Star):
            yield item
            continue
        for table in _from_tables(core.from_items):
            if isinstance(table, ast.DerivedTable):
                if _covers(item, table.alias):
                    yield ast.Star(table.alias)
            elif isinstance(table, ast.TableRef) and _covers(item, table.binding):
                names = catalog.table(table.name).schema.column_names
                yield from (
                    ast.SelectItem(ast.ColumnRef(table.binding, name))
                    for name in names
                )


def _spell_out_stars(node: N, catalog: Catalog) -> N:
    """``node`` with every SELECT core in it -- its own, derived tables'
    and expression subqueries' -- spelled out by :func:`_spelled_items`:
    a mirror with an explicit tid column would otherwise return that
    column too (and an ``IN (SELECT * ...)`` one column too many)."""
    if isinstance(node, ast.SelectCore):
        node = replace(node, items=tuple(_spelled_items(node, catalog)))

    def spell(value: Any) -> Any:
        if isinstance(value, ast.Node):
            return _spell_out_stars(value, catalog)
        if isinstance(value, tuple):
            return tuple(map(spell, value))
        return value

    spelled = {
        field.name: spell(getattr(node, field.name))
        for field in fields(node)  # type: ignore[arg-type]
    }
    return replace(node, **spelled)  # type: ignore[type-var]
