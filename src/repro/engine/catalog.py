"""The catalog: the named tables of a database instance."""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.engine.changelog import ChangeLog
from repro.engine.feed import SCHEMA_TOPIC
from repro.engine.schema import TableSchema
from repro.engine.storage import Table
from repro.errors import CatalogError


class Catalog:
    """Case-insensitive registry of tables.

    When constructed with a :class:`~repro.engine.changelog.ChangeLog`,
    every table it creates publishes its row mutations there, and DDL
    (create/drop) bumps the log's schema version and -- when anyone is
    listening -- publishes the serialized schema on the feed's
    ``_schema`` topic so replicas can rebuild the catalog.
    """

    def __init__(self, changelog: Optional[ChangeLog] = None) -> None:
        self._tables: Dict[str, Table] = {}
        self._changelog = changelog

    def create_table(self, schema: TableSchema) -> Table:
        """Create and register an empty table.

        Raises:
            CatalogError: if a table with that name already exists, or
                the name is the feed's reserved DDL topic (a relation
                is its own topic; sharing the DDL topic would interleave
                its rows with schema records).
        """
        key = schema.name.lower()
        if key == SCHEMA_TOPIC:
            raise CatalogError(
                f"table name {schema.name!r} is reserved for the feed's"
                " DDL topic"
            )
        if key in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        table = Table(schema, changelog=self._changelog)
        self._tables[key] = table
        if self._changelog is not None:
            self._changelog.schema_created(schema)
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        """Remove a table.

        Raises:
            CatalogError: if the table is missing and ``if_exists`` is False.
        """
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"no such table: {name!r}")
        del self._tables[key]
        if self._changelog is not None:
            self._changelog.schema_dropped(key)

    def table(self, name: str) -> Table:
        """Look a table up by name.

        Raises:
            CatalogError: if the table does not exist.
        """
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no such table: {name!r}") from None

    def has_table(self, name: str) -> bool:
        """Whether a table with this name exists."""
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        """Declared names of all tables (creation order)."""
        return [table.schema.name for table in self._tables.values()]

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)
