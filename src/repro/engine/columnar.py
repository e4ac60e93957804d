"""The materialized row batch behind unrestricted table scans.

The row store in :mod:`repro.engine.storage` keeps ``tid -> row`` dicts,
which is the right shape for point mutations and membership lookups but
pays per-row iterator and counter overhead in the scan hot loops.  A
:class:`ColumnStore` is a *derived*, immutable snapshot of one table's
rows as one list (one counter bump per batch instead of one per row),
its tids as one column, plus two derived forms built on first use: the
batch with each tid appended, and each tid as a 1-tuple (the witness of
a single-atom core, see :meth:`~repro.engine.plan.Project.split`).
Filtering is not its job:
an equality no hash index covers is a ``Filter`` over the scan, so every
comparison goes through the one compiled rule.

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
* The tid-suffixed batch and the tid 1-tuples are built lazily, so
  tables that are only ever scanned without tids (or whose cores never
  need the form) never pay for it; they live and die with the store.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.engine.types import SQLValue

Row = Tuple[SQLValue, ...]


class ColumnStore:
    """An immutable snapshot of a table's current rows, in storage order.

    Args:
        items: the ``(tid, row)`` pairs to snapshot, in storage order.
    """

    __slots__ = ("tids", "rows", "_tid_rows", "_tid_tuples")

    def __init__(self, items: List[Tuple[int, Row]]) -> None:
        #: tids in storage (insertion) order, parallel to :attr:`rows`.
        self.tids: Tuple[int, ...] = tuple(tid for tid, _row in items)
        #: materialized row batch in storage order (the scan hot path).
        self.rows: List[Row] = [row for _tid, row in items]
        self._tid_rows: Optional[List[Row]] = None
        self._tid_tuples: Optional[List[Tuple[int]]] = None

    def __len__(self) -> int:
        return len(self.rows)

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

    def tid_tuples(self) -> List[Tuple[int]]:
        """Each tid as a 1-tuple, parallel to :attr:`rows`: the witness
        tids of a single-atom core's rows; cached after first use."""
        if self._tid_tuples is None:
            self._tid_tuples = list(zip(self.tids))
        return self._tid_tuples
