"""Table schemas: columns, types and primary keys."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.engine.types import SQLType, SQLValue, coerce_value
from repro.errors import SchemaError


@dataclass(frozen=True)
class Column:
    """A named, typed column.

    Attributes:
        name: column name (case-preserved; lookups are case-insensitive).
        sql_type: declared type.
        nullable: whether NULL values are accepted on insert.
    """

    name: str
    sql_type: SQLType
    nullable: bool = True

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        null = "" if self.nullable else " NOT NULL"
        return f"{self.name} {self.sql_type}{null}"


@dataclass(frozen=True)
class TableSchema:
    """The schema of a stored table.

    Attributes:
        name: table name.
        columns: ordered column definitions.
        primary_key: names of primary-key columns (may be empty).  The
            engine does *not* enforce key uniqueness on insert -- Hippo's
            whole point is querying databases whose data violates its
            constraints -- but the key is recorded so functional
            dependencies can be derived from the schema.
    """

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for column in self.columns:
            lowered = column.name.lower()
            if lowered in seen:
                raise SchemaError(
                    f"duplicate column {column.name!r} in table {self.name!r}"
                )
            seen.add(lowered)
        for key_col in self.primary_key:
            if key_col.lower() not in seen:
                raise SchemaError(
                    f"primary key column {key_col!r} not in table {self.name!r}"
                )

    @property
    def column_names(self) -> tuple[str, ...]:
        """Ordered column names."""
        return tuple(column.name for column in self.columns)

    @property
    def arity(self) -> int:
        """Number of columns."""
        return len(self.columns)

    def index_of(self, name: str) -> int:
        """Position of a column by (case-insensitive) name.

        Raises:
            SchemaError: if the column does not exist.
        """
        lowered = name.lower()
        for position, column in enumerate(self.columns):
            if column.name.lower() == lowered:
                return position
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def column(self, name: str) -> Column:
        """The :class:`Column` with the given name."""
        return self.columns[self.index_of(name)]

    def coerce_row(self, values: Sequence[SQLValue]) -> tuple[SQLValue, ...]:
        """Validate and coerce an inserted row against this schema.

        Raises:
            SchemaError: on arity mismatch or NOT NULL violation.
            TypeError_: on an untypable / incompatible value.
        """
        if len(values) != self.arity:
            raise SchemaError(
                f"table {self.name!r} expects {self.arity} values,"
                f" got {len(values)}"
            )
        coerced = []
        for column, value in zip(self.columns, values):
            if value is None and not column.nullable:
                raise SchemaError(
                    f"column {self.name}.{column.name} is NOT NULL"
                )
            coerced.append(coerce_value(value, column.sql_type))
        return tuple(coerced)

    def key_indexes(self) -> tuple[int, ...]:
        """Positions of the primary-key columns."""
        return tuple(self.index_of(name) for name in self.primary_key)


def make_schema(
    name: str,
    columns: Iterable[tuple[str, SQLType] | Column],
    primary_key: Optional[Sequence[str]] = None,
) -> TableSchema:
    """Convenience constructor used heavily by tests and workloads.

    ``columns`` may mix ``(name, type)`` pairs and :class:`Column` objects.
    """
    built = tuple(
        column if isinstance(column, Column) else Column(column[0], column[1])
        for column in columns
    )
    return TableSchema(name, built, tuple(primary_key or ()))
