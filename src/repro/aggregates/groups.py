"""Per-group aggregate ranges under a key FD (extension).

Extends the scalar ranges of :mod:`repro.aggregates.ranges` to
``GROUP BY`` queries of the shape::

    SELECT g, agg(v) FROM r GROUP BY g

under a key FD ``k -> rest``.  Every repair keeps exactly one tuple per
key, so the keys contribute *independently* to each group ``g``:

* a key whose tuples all carry group value ``g`` always contributes one
  chosen tuple to ``g``;
* a key with tuples both inside and outside ``g`` can contribute either
  one tuple or nothing (the choice may "escape" the group);
* a key with no tuple in ``g`` never contributes.

Summing per-key contribution extrema gives exact glb/lub per group for
COUNT and SUM (a vanished contribution counts as 0; this also makes the
bounds correct for negative values).  MIN/MAX per group are *not*
computed here: a group can be empty in some repairs, where its MIN/MAX is
undefined rather than 0 -- the scalar module handles the global case.

Everything is validated against brute-force repair enumeration in the
test suite.
"""

from __future__ import annotations

from typing import Optional

from repro.aggregates.ranges import AggregateRange, _validate_key_fd
from repro.constraints.fd import FunctionalDependency
from repro.engine.database import Database
from repro.engine.types import SQLValue
from repro.errors import UnsupportedQueryError

#: key tuple -> the (group value, contribution value) options of its tuples.
_Contributions = dict[tuple[SQLValue, ...], list[tuple[SQLValue, SQLValue]]]


def _group_contributions(
    db: Database,
    fd: FunctionalDependency,
    group_column: str,
    value_column: Optional[str],
) -> _Contributions:
    """Per (group, key): the contribution values and escapability."""
    key_indexes = _validate_key_fd(db, fd)
    table = db.catalog.table(fd.relation)
    group_index = table.schema.index_of(group_column)
    value_index = (
        table.schema.index_of(value_column) if value_column is not None else None
    )

    # key -> list of (group value, aggregated value)
    per_key: _Contributions = {}
    for row in set(table.rows()):  # set semantics: duplicates count once
        key = tuple(row[i] for i in key_indexes)
        value = 1 if value_index is None else row[value_index]
        if value_index is not None:
            if value is None:
                raise UnsupportedQueryError(
                    f"NULL in {fd.relation}.{value_column}: grouped ranges"
                    " assume a NULL-free aggregated column"
                )
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise UnsupportedQueryError(
                    f"SUM requires a numeric column, found {value!r}"
                )
        per_key.setdefault(key, []).append((row[group_index], value))
    return per_key


def _ranges_from_contributions(
    per_key: _Contributions,
) -> dict[SQLValue, AggregateRange]:
    """One pass over the keys: each key adds its contribution extrema to
    the groups its tuples fall in (per group, the keys are summed in the
    same order as a walk over every key for that group would)."""
    glb: dict[SQLValue, float] = {}
    lub: dict[SQLValue, float] = {}
    for options in per_key.values():
        inside: dict[SQLValue, list[SQLValue]] = {}
        for group, value in options:
            inside.setdefault(group, []).append(value)
        # Tuples in another group too: the key's choice may escape this one.
        escapable = len(inside) > 1
        for group, values in inside.items():
            low, high = min(values), max(values)
            if escapable:
                low, high = min(0.0, low), max(0.0, high)
            glb[group] = glb.get(group, 0.0) + low
            lub[group] = lub.get(group, 0.0) + high
    return {group: AggregateRange(glb[group], lub[group]) for group in glb}


def grouped_count_range(
    db: Database, fd: FunctionalDependency, group_column: str
) -> dict[SQLValue, AggregateRange]:
    """Ranges of ``SELECT group_column, COUNT(*) ... GROUP BY group_column``.

    Groups are the values present in the full instance; a group whose
    count can drop to zero reports ``glb == 0``.
    """
    per_key = _group_contributions(db, fd, group_column, None)
    return _ranges_from_contributions(per_key)


def grouped_sum_range(
    db: Database,
    fd: FunctionalDependency,
    group_column: str,
    value_column: str,
) -> dict[SQLValue, AggregateRange]:
    """Ranges of ``SELECT group_column, SUM(value) ... GROUP BY group_column``.

    An empty group sums to 0 (SQL would return no row; reporting the
    zero range keeps the group comparable across repairs).
    """
    if group_column.lower() == value_column.lower():
        raise UnsupportedQueryError(
            "grouping column and aggregated column must differ"
        )
    per_key = _group_contributions(db, fd, group_column, value_column)
    return _ranges_from_contributions(per_key)
