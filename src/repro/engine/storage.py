"""Heap storage for tables.

Every stored row is identified by a *tuple id* (tid), a small integer that
is stable for the lifetime of the row.  Tids are the vertices of the
conflict hypergraph, so the whole CQA stack depends on them:  conflict
detection emits sets of tids, the Prover reasons about tids, and membership
checks translate value tuples back to tids through the value index kept
here.

The value index (value tuple -> tids, see :data:`Postings`) also serves
the engine's point membership lookups, which is how the paper's base
system answers the Prover's membership checks "by simply executing the
appropriate membership queries on the database".
"""

from __future__ import annotations

from collections.abc import Callable
from operator import itemgetter
from typing import (
    Collection,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.engine.changelog import OP_DELETE, OP_INSERT, ChangeLog
from repro.engine.columnar import ColumnStore
from repro.engine.schema import TableSchema
from repro.engine.types import SQLValue
from repro.errors import ExecutionError

Row = Tuple[SQLValue, ...]

#: The tids stored under one key: the common single owner is a bare tid;
#: only a key with several owners pays for a set.
Owners = Union[int, Set[int]]

#: A posting list: key -> its :data:`Owners`.
Postings = Dict[object, Owners]


class IndexReader(NamedTuple):
    """Read access to one posting list, the one shape every keyed read of
    a plan takes (``plan.Access.reader``): ``owners(key)`` is the key's
    owners or None -- a bare owner, or a collection of several -- and
    ``rows`` what an owner addresses.

    A secondary index reads as :meth:`Table.index_reader`: its
    :data:`Owners` and the table's tid -> row map, the live structures,
    not copies (a reader reads them and never writes).  A plan's hash
    reads as postings filed the same way over the list of its source's
    rows: an owner is a position in that list, several a list of
    positions in source order."""

    owners: Callable[[object], Optional[Union[int, Collection[int]]]]
    rows: Union[Mapping[int, Row], Sequence[Row]]


def in_tid_order(owners: Union[int, Collection[int]]) -> Sequence[int]:
    """The owners of one posting, in tid order (a hash's positions: in
    source order)."""
    return (owners,) if isinstance(owners, int) else sorted(owners)


def column_key(positions: Sequence[int]) -> Callable[[Row], object]:
    """The key a row is filed under by the columns at ``positions``, in a
    secondary index or a plan's hash: the bare value for one column, a
    tuple for several (``itemgetter``'s form), or None -- filed nowhere --
    when it holds a NULL, since ``=`` never matches a NULL."""
    key_of = itemgetter(*positions)
    if len(positions) == 1:
        return key_of

    def key(row: Row) -> object:
        values = key_of(row)
        return None if None in values else values

    return key


def _post(postings: Postings, key: object, tid: int) -> None:
    """Make ``tid`` an owner of ``key`` (idempotent, like ``set.add``)."""
    owners = postings.get(key)
    if owners is None:
        postings[key] = tid
    elif isinstance(owners, set):
        owners.add(tid)
    elif owners != tid:
        postings[key] = {owners, tid}


def _unpost(postings: Postings, key: object, tid: int) -> None:
    """Stop ``tid`` owning ``key``; the last owner out removes the key."""
    owners = postings.get(key)
    if isinstance(owners, set):
        owners.discard(tid)
        if len(owners) == 1:
            postings[key] = owners.pop()
    elif owners == tid:
        del postings[key]


def _owners(postings: Postings, key: Tuple) -> frozenset[int]:
    """The tids stored under ``key`` (empty when absent)."""
    owners = postings.get(key)
    if owners is None:
        return frozenset()
    return frozenset(owners if isinstance(owners, set) else (owners,))


class Table:
    """A stored table: schema + rows addressable by tid.

    Duplicate rows are permitted in storage (SQL bag semantics); they get
    distinct tids.  The CQA layer treats facts at the value level and
    handles duplicates explicitly (see ``repro.core.facts``).

    When a :class:`~repro.engine.changelog.ChangeLog` is attached, every
    mutation is published to it (an UPDATE as delete + insert under the
    same tid), which is what keeps the conflict hypergraph incrementally
    maintainable.
    """

    def __init__(
        self, schema: TableSchema, changelog: Optional[ChangeLog] = None
    ) -> None:
        self.schema = schema
        self._rows: Dict[int, Row] = {}
        self._by_value: Postings = {}
        # Secondary hash indexes: column positions -> (the key a row is
        # filed under, key -> tids).
        self._indexes: Dict[Tuple[int, ...], Tuple[Callable, Postings]] = {}
        self._next_tid = 0
        self._changelog = changelog
        self._key = schema.name.lower()
        # Row batch for unrestricted scans; dropped on any mutation.
        self._columnar: Optional[ColumnStore] = None
        #: Row mutations ever applied: one step per row inserted,
        #: deleted, restored or replayed (an UPDATE is two, delete +
        #: insert).  Every published mutation is one change record, so
        #: a feed consumer that saw fewer records for this table than
        #: the version moved knows some mutation bypassed the feed
        #: (:meth:`restore`, :meth:`apply_changes`, a suspended feed).
        #: A failed replay also counts the change it failed on: an
        #: over-count costs a mirror rebuild, an under-count a stale one.
        self.version = 0

    # -------------------------------------------------------------- indexes

    def create_index(self, positions: Sequence[int]) -> None:
        """Create (or keep) a hash index over the given column positions."""
        key = tuple(positions)
        if not key or any(not 0 <= p < self.schema.arity for p in key):
            raise ExecutionError(
                f"bad index column positions {key} for table"
                f" {self.schema.name!r}"
            )
        if key in self._indexes:
            return
        key_of = column_key(key)
        index: Postings = {}
        for tid, row in self._rows.items():
            entry = key_of(row)
            if entry is not None:
                _post(index, entry, tid)
        self._indexes[key] = (key_of, index)

    def indexed_column_sets(self) -> list[Tuple[int, ...]]:
        """The position tuples of all secondary indexes."""
        return list(self._indexes.keys())

    def index_reader(self, positions: Tuple[int, ...]) -> IndexReader:
        """The :class:`IndexReader` of the index on ``positions``.

        Raises:
            ExecutionError: when no such index exists.
        """
        if positions not in self._indexes:
            raise ExecutionError(
                f"table {self.schema.name!r} has no index on {positions}"
            )
        return IndexReader(self._indexes[positions][1].get, self._rows)

    def _post_row(self, tid: int, row: Row) -> None:
        """Enter ``row`` into the value index and every secondary index."""
        _post(self._by_value, row, tid)
        for key_of, index in self._indexes.values():
            key = key_of(row)
            if key is not None:
                _post(index, key, tid)

    def _unpost_row(self, tid: int, row: Row) -> None:
        _unpost(self._by_value, row, tid)
        for key_of, index in self._indexes.values():
            key = key_of(row)
            if key is not None:
                _unpost(index, key, tid)

    # ------------------------------------------------------------------ DML

    def insert(self, values: Sequence[SQLValue]) -> int:
        """Insert a row (validated against the schema); returns its tid."""
        row = self.schema.coerce_row(values)
        tid = self._next_tid
        self._next_tid += 1
        self._rows[tid] = row
        self._post_row(tid, row)
        self._columnar = None
        self.version += 1
        if self._changelog is not None:
            self._changelog.record(self._key, tid, row, OP_INSERT)
        return tid

    @property
    def next_tid(self) -> int:
        """The tid the next insert will receive.

        Part of a table's durable state: a snapshot that restored only
        the live rows would re-issue the tids of rows that lived and
        died before the cut, diverging from a full-history replay (and
        from every replica that witnessed those rows).
        """
        return self._next_tid

    def reserve_tids(self, next_tid: int) -> None:
        """Raise the allocation cursor to at least ``next_tid``
        (snapshot restore; never lowers it)."""
        self._next_tid = max(self._next_tid, next_tid)

    def restore(self, tid: int, values: Sequence[SQLValue]) -> None:
        """Re-insert a row under an explicit tid (change-feed replay).

        Tids are hypergraph vertices, so a replica rebuilding state from
        the feed must reproduce them exactly.  Nothing is published to
        the change log -- replay is history, not new history.

        Raises:
            ExecutionError: if the tid is already occupied.
        """
        if tid in self._rows:
            raise ExecutionError(
                f"table {self.schema.name!r} already stores tid {tid}"
            )
        row = self.schema.coerce_row(values)
        self._next_tid = max(self._next_tid, tid + 1)
        self._rows[tid] = row
        self._post_row(tid, row)
        self._columnar = None
        self.version += 1

    def apply_changes(
        self, changes: Iterable[tuple[int, Optional[Sequence[SQLValue]], str]]
    ) -> None:
        """Replay a batch of feed change records as ``(tid, row, op)``.

        The batched twin of :meth:`restore` + :meth:`delete` for feed
        replay: one call amortizes attribute lookups, the columnar-cache
        invalidation and the publish check across the whole poll batch
        instead of paying them per record.  Exactly like :meth:`restore`,
        nothing is published to the change log -- replay is history.

        Raises:
            ExecutionError: on a tid collision (insert) or a missing tid
                (delete); storage state reflects every change before the
                failing one, matching the record-at-a-time replay.
        """
        rows = self._rows
        coerce = self.schema.coerce_row
        next_tid = self._next_tid
        self._columnar = None
        for tid, values, op in changes:
            self.version += 1
            if op == OP_INSERT:
                if tid in rows:
                    self._next_tid = next_tid
                    raise ExecutionError(
                        f"table {self.schema.name!r} already stores tid {tid}"
                    )
                row = coerce(values)
                if tid >= next_tid:
                    next_tid = tid + 1
                rows[tid] = row
                self._post_row(tid, row)
            else:
                old = rows.pop(tid, None)
                if old is None:
                    self._next_tid = next_tid
                    raise ExecutionError(
                        f"table {self.schema.name!r} has no tuple with tid {tid}"
                    )
                self._unpost_row(tid, old)
        self._next_tid = next_tid

    def delete(self, tid: int) -> None:
        """Delete a row by tid.

        Raises:
            ExecutionError: if the tid does not exist.
        """
        row = self._rows.pop(tid, None)
        if row is None:
            raise ExecutionError(
                f"table {self.schema.name!r} has no tuple with tid {tid}"
            )
        self._unpost_row(tid, row)
        self._columnar = None
        self.version += 1
        if self._changelog is not None:
            self._changelog.record(self._key, tid, row, OP_DELETE)

    def update(self, tid: int, values: Sequence[SQLValue]) -> None:
        """Replace the row stored under ``tid``, keeping the tid stable.

        Raises:
            ExecutionError: if the tid does not exist.
        """
        old_row = self._rows.get(tid)
        if old_row is None:
            raise ExecutionError(
                f"table {self.schema.name!r} has no tuple with tid {tid}"
            )
        new_row = self.schema.coerce_row(values)
        self._unpost_row(tid, old_row)
        self._rows[tid] = new_row
        self._post_row(tid, new_row)
        self._columnar = None
        self.version += 2
        if self._changelog is not None:
            self._changelog.record(self._key, tid, old_row, OP_DELETE)
            self._changelog.record(self._key, tid, new_row, OP_INSERT)

    # --------------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: Sequence[SQLValue]) -> bool:
        return tuple(row) in self._by_value

    def get(self, tid: int) -> Row:
        """The row stored under ``tid``.

        Raises:
            ExecutionError: if the tid does not exist.
        """
        try:
            return self._rows[tid]
        except KeyError:
            raise ExecutionError(
                f"table {self.schema.name!r} has no tuple with tid {tid}"
            ) from None

    def tids(self) -> Iterator[int]:
        """All current tids (insertion order)."""
        return iter(self._rows.keys())

    def rows(self) -> Iterator[Row]:
        """All current rows (insertion order)."""
        return iter(self._rows.values())

    def items(self) -> Iterator[tuple[int, Row]]:
        """All ``(tid, row)`` pairs (insertion order)."""
        return iter(self._rows.items())

    def lookup(self, row: Sequence[SQLValue]) -> frozenset[int]:
        """Tids of rows exactly equal to ``row`` (empty set when absent).

        This is the engine-level *membership query* primitive.
        """
        return _owners(self._by_value, tuple(row))

    def has_duplicates(self) -> bool:
        """Whether any row value occurs more than once (bag, not set):
        every row is posted under its value, so fewer keys than rows."""
        return len(self._by_value) < len(self._rows)

    def columnar(self) -> ColumnStore:
        """The batch snapshot of the current rows.

        Built lazily and cached; **any** mutation (insert / delete /
        update / replay) drops the cache, so the returned store always
        reflects the table as of this call.  Unrestricted scans use it
        to amortize per-row overhead into per-batch operations (see
        :mod:`repro.engine.columnar` for the full contract).
        """
        store = self._columnar
        if store is None:
            store = ColumnStore(list(self._rows.items()))
            self._columnar = store
        return store

    def snapshot(self) -> Dict[int, Row]:
        """A shallow copy of the tid -> row mapping (for repair checkers)."""
        return dict(self._rows)

    def restricted_rows(
        self, keep: Optional[frozenset[int]]
    ) -> Iterator[tuple[int, Row]]:
        """``(tid, row)`` pairs restricted to ``keep`` (or all when None).

        Used to evaluate queries over a repair, or over the conflict-free
        core of a table, without copying the data.
        """
        if keep is None:
            yield from self._rows.items()
            return
        for tid, row in self._rows.items():
            if tid in keep:
                yield tid, row
