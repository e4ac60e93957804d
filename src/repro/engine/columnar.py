"""Column-major batch storage behind the table API.

The row store in :mod:`repro.engine.storage` keeps ``tid -> row`` dicts,
which is the right shape for point mutations and membership lookups but
pays per-row iterator and counter overhead in the scan/filter/join hot
loops.  A :class:`ColumnStore` is a *derived*, immutable, column-major
snapshot of one table: materialized row batches for scans (one counter
bump per batch instead of one per row) and per-column value arrays for
vectorized equality filtering when no hash index exists.

Lifecycle and invalidation contract:

* A store is built lazily by :meth:`~repro.engine.storage.Table.columnar`
  and cached on the table; **any** mutation (insert / delete / update /
  replay restore) drops the cached store wholesale.  Readers therefore
  never observe a stale batch -- at worst they rebuild.
* Everything inside a store is derived from the row dict at build time
  and never mutated afterwards, so a store handed to a plan operator
  stays internally consistent even if the table moves on (the operator
  sees the snapshot it started with, matching the iterator semantics of
  a dict scan that materialized its rows up front).
* Column arrays and tid-suffixed row batches are themselves built
  lazily, so tables that are only ever scanned row-major never pay for
  the transpose.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.engine.types import SQLValue

Row = Tuple[SQLValue, ...]


class ColumnStore:
    """An immutable column-major snapshot of a table's current rows.

    Args:
        items: the ``(tid, row)`` pairs to snapshot, in storage order.
        arity: number of columns (needed for the empty-table transpose).
    """

    __slots__ = ("tids", "rows", "_arity", "_columns", "_tid_rows")

    def __init__(self, items: List[Tuple[int, Row]], arity: int) -> None:
        #: tids in storage (insertion) order, parallel to :attr:`rows`.
        self.tids: Tuple[int, ...] = tuple(tid for tid, _row in items)
        #: materialized row batch in storage order (the scan hot path).
        self.rows: List[Row] = [row for _tid, row in items]
        self._arity = arity
        self._columns: Dict[int, List[SQLValue]] = {}
        self._tid_rows: Optional[List[Row]] = None

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, position: int) -> List[SQLValue]:
        """The value array of one column (built on first use, cached)."""
        values = self._columns.get(position)
        if values is None:
            values = [row[position] for row in self.rows]
            self._columns[position] = values
        return values

    def tid_rows(self) -> List[Row]:
        """Row batch with the tid appended as a trailing column.

        This is the shape conflict detection and provenance scans
        consume (``Scan(include_tid=True)``); cached after first use.
        """
        if self._tid_rows is None:
            self._tid_rows = [
                row + (tid,) for tid, row in zip(self.tids, self.rows)
            ]
        return self._tid_rows

    def select_equals(
        self, positions: Tuple[int, ...], values: Row, include_tid: bool = False
    ) -> List[Row]:
        """Rows whose columns at ``positions`` equal ``values``.

        A vectorized constant-equality filter: the comparison runs over
        the column arrays instead of calling a compiled predicate per
        row.  Matches hash-index lookup semantics (``=`` with NULL
        matches nothing), so the planner may use it interchangeably with
        an :class:`~repro.engine.plan.IndexScan` when no index exists.
        ``include_tid`` returns the matches from :meth:`tid_rows`.
        """
        if any(value is None for value in values):
            return []
        rows = self.tid_rows() if include_tid else self.rows
        if len(positions) == 1:
            column = self.column(positions[0])
            wanted = values[0]
            return [rows[i] for i, seen in enumerate(column) if seen == wanted]
        columns = [self.column(position) for position in positions]
        return [
            rows[i]
            for i in range(len(rows))
            if all(column[i] == value for column, value in zip(columns, values))
        ]
