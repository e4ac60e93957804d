"""SQL value model: types, NULL semantics and three-valued logic.

The engine stores values as plain Python objects:

* ``INTEGER``  -> :class:`int`
* ``REAL``     -> :class:`float`
* ``TEXT``     -> :class:`str`
* ``BOOLEAN``  -> :class:`bool`
* SQL ``NULL`` -> :data:`None`

SQL comparisons involving NULL yield *unknown*, which is also represented by
:data:`None`; the three-valued connectives below (:func:`logic_and`,
:func:`logic_or`, :func:`logic_not`) propagate it the way SQL's WHERE clause
requires.  A WHERE clause keeps a row only when its condition evaluates to
``True`` (not to ``None``).

This module is the one owner of SQL's comparison rule: :func:`comparable`
says which declared types compare at all, :func:`compare_values` decides
``a op b`` (NaN equals NaN and sorts above every number), and every access
path -- compiled predicates, hash joins, semi-joins, index lookups,
ORDER BY, MIN / MAX -- agrees with it.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import Collection, Iterable, Optional, Sequence

from repro.errors import TypeError_

#: The Python value used for SQL NULL (and for *unknown* in 3-valued logic).
NULL = None

SQLValue = Optional[object]

#: The one NaN object the engine stores (see :func:`coerce_value`) and
#: computes (see :func:`canonical`).  Hash lookups match on identity before
#: ``==``, so joins, indexes, DISTINCT and GROUP BY treat NaN as equal to
#: itself, as :func:`compare_values` does.
NAN = float("nan")


def canonical(value: SQLValue) -> SQLValue:
    """``value``, or :data:`NAN` when it is a NaN: every NaN the engine
    stores or computes is the one object, so NaNs hash alike."""
    return NAN if value != value else value


class SQLType(enum.Enum):
    """Column types supported by the engine."""

    INTEGER = "INTEGER"
    REAL = "REAL"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_NUMERIC = frozenset({SQLType.INTEGER, SQLType.REAL})


_TYPE_SYNONYMS = {
    "INT": SQLType.INTEGER,
    "INTEGER": SQLType.INTEGER,
    "BIGINT": SQLType.INTEGER,
    "SMALLINT": SQLType.INTEGER,
    "REAL": SQLType.REAL,
    "FLOAT": SQLType.REAL,
    "DOUBLE": SQLType.REAL,
    "NUMERIC": SQLType.REAL,
    "DECIMAL": SQLType.REAL,
    "TEXT": SQLType.TEXT,
    "VARCHAR": SQLType.TEXT,
    "CHAR": SQLType.TEXT,
    "STRING": SQLType.TEXT,
    "BOOLEAN": SQLType.BOOLEAN,
    "BOOL": SQLType.BOOLEAN,
}


def type_from_name(name: str) -> SQLType:
    """Resolve a SQL type name (with common synonyms) to a :class:`SQLType`.

    Raises:
        TypeError_: if the name is not a known type.
    """
    try:
        return _TYPE_SYNONYMS[name.upper()]
    except KeyError:
        raise TypeError_(f"unknown SQL type: {name!r}") from None


def infer_type(value: SQLValue) -> Optional[SQLType]:
    """Infer the :class:`SQLType` of a Python value (``None`` for NULL)."""
    if value is None:
        return None
    if isinstance(value, bool):  # bool before int: bool is an int subclass
        return SQLType.BOOLEAN
    if isinstance(value, int):
        return SQLType.INTEGER
    if isinstance(value, float):
        return SQLType.REAL
    if isinstance(value, str):
        return SQLType.TEXT
    raise TypeError_(f"value {value!r} has no SQL type")


def coerce_value(value: SQLValue, sql_type: SQLType) -> SQLValue:
    """Coerce ``value`` for storage in a column of type ``sql_type``.

    NULL is always accepted.  The only implicit conversions performed are
    the numeric widenings SQL allows (INTEGER -> REAL) and exact
    REAL -> INTEGER when the float is integral.  Anything else raises.
    Every NaN is stored as :data:`NAN`.
    """
    if value is None:
        return None
    actual = infer_type(value)
    if actual is sql_type:
        return canonical(value)
    if sql_type is SQLType.REAL and actual is SQLType.INTEGER:
        return float(value)
    if sql_type is SQLType.INTEGER and actual is SQLType.REAL:
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise TypeError_(f"cannot store non-integral REAL {value!r} in INTEGER column")
    raise TypeError_(f"cannot store {actual} value {value!r} in {sql_type} column")


def comparable(left: SQLType, right: SQLType) -> bool:
    """Whether SQL compares values of these types: the same type, or both
    numeric.  Anything else (TEXT vs INTEGER, BOOLEAN vs INTEGER, ...)
    is a type error, as in PostgreSQL."""
    return left is right or (left in _NUMERIC and right in _NUMERIC)


def compare_values(left: SQLValue, right: SQLValue) -> Optional[int]:
    """SQL comparison: -1 / 0 / +1, or ``None`` when either side is NULL.

    NaN equals NaN and sorts above every other number (PostgreSQL's rule).

    Raises:
        TypeError_: when the operands are non-NULL but of incomparable
            types (e.g. TEXT vs INTEGER); SQL engines reject these too.
    """
    if left is None or right is None:
        return None
    if not comparable(infer_type(left), infer_type(right)):
        raise TypeError_(
            f"cannot compare {infer_type(left)} with {infer_type(right)}"
            f" ({left!r} vs {right!r})"
        )
    if left == right:
        return 0
    if left < right:
        return -1
    if left > right:
        return 1
    # Unordered: at least one side is NaN (the only value unequal to itself).
    return (left != left) - (right != right)


def logic_and(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    """Three-valued AND (Kleene logic, as used by SQL)."""
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def logic_or(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    """Three-valued OR (Kleene logic, as used by SQL)."""
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def logic_not(value: Optional[bool]) -> Optional[bool]:
    """Three-valued NOT."""
    return None if value is None else not value


def sort_key(value: SQLValue) -> tuple:
    """A total-order key for ORDER BY: NULLs first, then by type, then value.

    SQL leaves NULL ordering implementation-defined; we pin NULLS FIRST so
    results are deterministic and testable.  NaN sorts after every other
    number, as :func:`compare_values` orders it.
    """
    if value is None:
        return (0, "", 0)
    if isinstance(value, bool):
        return (1, "", int(value))
    if isinstance(value, (int, float)):
        return (2, "", value) if value == value else (3, "", 0)
    return (4, value, 0)


def default_order(
    rows: Iterable[tuple],
    types: Optional[Sequence[Collection[Optional[SQLType]]]] = None,
) -> list[tuple]:
    """``rows`` in the deterministic default order of an answer set: that
    of each row's :func:`sort_key` tuples (stable).

    ``types`` holds the types each column's values can have (read off the
    values when not given).  Python orders values as their keys do, or
    raises (NULL against a value, TEXT against a number: then the keys
    sort), except BOOLEAN against a number and NaN: a column mixing those
    types, or a REAL one holding a NaN, sorts on the keys.

    Python's order is ``sorted(rows)``, taken in two stable passes: on
    the leading column alone, where CPython compares ints or strs with
    its specialised compare, then on the whole rows, which are then
    almost in order (in order when the leading column is distinct).
    Rows tied on the whole row are tied on the leading column, so both
    passes keep them in input order, as ``sorted`` does.  A pass that
    raises works on a copy: the keys then sort the input.
    """
    ordered = list(rows)
    if types is None:
        types = [set(map(infer_type, column)) for column in zip(*ordered)]
    if all(
        not (SQLType.BOOLEAN in kinds and not _NUMERIC.isdisjoint(kinds))
        and (SQLType.REAL not in kinds or all(row[i] == row[i] for row in ordered))
        for i, kinds in enumerate(types)
    ):
        try:
            if not (ordered and ordered[0]):  # no rows, or rows of arity 0
                return sorted(ordered)
            python = sorted(ordered, key=itemgetter(0))
            python.sort()
            return python
        except TypeError:
            pass
    ordered.sort(key=lambda row: tuple(map(sort_key, row)))
    return ordered


def format_value(value: SQLValue) -> str:
    """Render a value the way the CLI / examples print it."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return value
    return str(value)


def literal_sql(value: SQLValue) -> str:
    """Render a value as a SQL literal (used by the formatter/rewriting)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)
