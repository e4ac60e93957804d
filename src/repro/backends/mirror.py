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
:class:`~repro.engine.database.Database` is the single source of truth;
the backend keeps one mirror table per native relation and syncs
lazily: every execution entry point first compares each native table's
monotone mutation counter (:attr:`repro.engine.storage.Table.version`,
plus its schema and index signature) against what the mirror last
copied, and rebuilds only the relations that changed.  Tids survive the
crossing -- subclasses either pin them into the engine's ``rowid``
(SQLite) or store them in an explicit leading column (DuckDB) -- so
residual-join results are directly usable as conflict-hypergraph
vertices.  Answers flow back coerced to the native type system
(booleans in particular), so every backend is exchangeable under the
differential oracle suite (``tests/backends/test_differential.py``).

Every pushdown goes through :meth:`MirrorBackend.pushdown`: a call the
backend declines (:class:`~repro.errors.BackendError`) is counted in
``db.stats.backend_fallbacks`` and re-run natively -- a fallback is
never silent.

All SQL text handed to the driver comes from
:mod:`repro.ra.to_sql` (parameterized rendering and quoting helpers);
no interpolated SQL is built here (hippolint HL015).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Iterator, Optional, Sequence, TypeVar

from repro.engine.catalog import Catalog
from repro.engine.database import Database
from repro.engine.storage import Table
from repro.engine.types import SQLType, SQLValue
from repro.errors import AlgebraError, BackendError
from repro.ra.sjud import SJUDCore, SJUDTree, column_type, output_types_of
from repro.ra.to_sql import (
    ParameterizedSQL,
    create_index_sql,
    create_table_sql,
    drop_table_sql,
    insert_sql,
    render_core_tids,
    render_query,
    render_tree,
)
from repro.sql import ast

#: A mirror signature: source-table identity + mutation version +
#: schema/index shape.  Any component changing forces a rebuild.
MirrorSignature = tuple

T = TypeVar("T")

_MAX_EDGE_ARITY = 64


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
        self._mirrored: dict[str, MirrorSignature] = {}

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
        """Bind the backend to ``db`` (the oracle and source of truth)."""
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
        """Release the database, drop mirror state, close the driver."""
        try:
            if self._conn is not None:
                self._conn.close()
        finally:
            # Even a failing driver close() must not leave the backend
            # half-alive: the next use would sync against stale mirror
            # signatures over a dead connection.
            self._conn = None
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

    def _signature(self, table: Table) -> MirrorSignature:
        schema = table.schema
        return (
            id(table),
            table.version,
            schema.column_names,
            tuple(column.sql_type.value for column in schema.columns),
            tuple(sorted(table.indexed_column_sets())),
        )

    def _mirror_rows(self, table: Table) -> Iterator[tuple[SQLValue, ...]]:
        for tid, row in table.items():
            yield (tid,) + row

    def sync(self) -> None:
        """Bring every mirror up to date with the attached database.

        Rebuilds only relations whose signature changed; drops mirrors
        of relations that no longer exist.  Called automatically by the
        execution entry points.

        Raises:
            BackendError: on any driver failure.
        """
        conn = self.connection
        live: set[str] = set()
        try:
            for table in self.db.catalog:
                key = table.schema.name.lower()
                live.add(key)
                signature = self._signature(table)
                if self._mirrored.get(key) == signature:
                    continue
                self._rebuild_mirror(conn, table)
                self._mirrored[key] = signature
            for key in sorted(set(self._mirrored) - live):
                conn.execute(drop_table_sql(key))
                del self._mirrored[key]
        except self._driver_errors() as exc:
            raise BackendError(
                f"backend {self.name!r} failed to sync mirrors: {exc}"
            ) from exc

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
        insert = insert_sql(
            key, schema.arity + 1, columns=(self.tid_column,) + names
        )
        conn.executemany(insert, self._mirror_rows(table))
        for number, positions in enumerate(table.indexed_column_sets()):
            conn.execute(
                create_index_sql(
                    f"idx_{key}_{number}",
                    key,
                    [names[position] for position in positions],
                )
            )

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
        try:
            rendered = render_query(query)
        except AlgebraError as exc:
            raise BackendError(f"cannot lower query: {exc}") from exc
        columns, rows = self._run(rendered)
        types = query_output_types(query, self.db.catalog)
        if rows and len(types) != len(rows[0]):
            return columns, rows
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


def _alias_map(from_items: Sequence[ast.FromItem]) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for item in from_items:
        if isinstance(item, ast.TableRef):
            mapping[(item.alias or item.name).lower()] = item.name
    return mapping


def query_output_types(
    query: ast.Query, catalog: Catalog
) -> tuple[Optional[SQLType], ...]:
    """Declared types of a query's output columns, where derivable.

    ``None`` marks a column whose type cannot be resolved statically (an
    expression, or an unresolvable reference); backends leave those
    values as the driver returned them.  Set operations take the left
    branch's types (both sides are union-compatible by construction).
    """
    body = query.body
    while isinstance(body, ast.SetOperation):
        body = body.left
    aliases = _alias_map(body.from_items)
    types: list[Optional[SQLType]] = []
    for item in body.items:
        if isinstance(item, ast.Star):
            relations = (
                [aliases[item.table.lower()]]
                if item.table is not None and item.table.lower() in aliases
                else list(aliases.values())
            )
            for relation in relations:
                if catalog.has_table(relation):
                    schema = catalog.table(relation).schema
                    types.extend(c.sql_type for c in schema.columns)
            continue
        types.append(column_type(item.expr, aliases, catalog))
    return tuple(types)
