"""Physical plan operators (iterator / volcano model).

Every node implements ``rows(env)``, yielding output tuples.  ``env`` is
the tuple of *outer* rows (for correlated subplans); a node combines its
own row with ``env`` as ``(row,) + env`` when evaluating expressions.

The planner wires compiled expression evaluators (closures produced by
:mod:`repro.engine.expressions`) into these operators, so the operators
themselves are independent of the SQL AST.
"""

from __future__ import annotations

from itertools import compress, count, repeat
from operator import is_not, itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.engine import functions
from repro.engine.columnar import ColumnStore
from repro.engine.expressions import Env, Evaluator, PairTest, RowTest
from repro.engine.stats import ExecutionStats
from repro.engine.storage import IndexReader, Table, column_key, in_tid_order
from repro.engine.types import SQLType, comparable, sort_key

Row = tuple
Predicate = Callable[[Env], bool]


class PlanNode:
    """Base class for physical operators."""

    #: number of columns in this node's output rows
    width: int

    def rows(self, env: Env) -> Iterator[Row]:
        raise NotImplementedError

    def children(self) -> Sequence["PlanNode"]:
        """Child operators (for plan display / tests)."""
        return ()

    def explain(self, indent: int = 0) -> str:
        """A compact, indented rendering of the plan tree."""
        line = "  " * indent + self.describe()
        parts = [line]
        for child in self.children():
            parts.append(child.explain(indent + 1))
        return "\n".join(parts)

    def describe(self) -> str:
        """One-line description of this operator."""
        return type(self).__name__


class Scan(PlanNode):
    """Full scan of a stored table.

    Unrestricted scans run over the table's cached row batch
    (:meth:`~repro.engine.storage.Table.columnar`): the whole batch is
    produced as one materialized list and ``rows_scanned`` is bumped
    once per batch rather than once per row -- a consumer that stops
    early has still "scanned" the batch.  Restricted scans (``keep_tids``)
    keep the row-at-a-time path, since they only touch a subset.

    Args:
        table: the storage table.
        stats: counter sink.
        include_tid: when True, the tid is appended as an extra trailing
            column -- used by conflict detection and provenance tracking.
        keep_tids: when not None, only rows whose tid is in this set are
            produced -- used to evaluate queries over a repair or over the
            conflict-free database (``cleaned_answers``) without copying data.
    """

    def __init__(
        self,
        table: Table,
        stats: ExecutionStats,
        include_tid: bool = False,
        keep_tids: Optional[frozenset[int]] = None,
    ) -> None:
        self.table = table
        self.stats = stats
        self.include_tid = include_tid
        self.keep_tids = keep_tids
        self.width = table.schema.arity + (1 if include_tid else 0)

    def rows(self, env: Env) -> Iterator[Row]:
        if self.keep_tids is None:
            store = self.store()
            return iter(store.tid_rows() if self.include_tid else store.rows)
        return self._restricted(self.keep_tids)

    def store(self) -> ColumnStore:
        """The table's row batch, counted as scanned (unrestricted scans
        only: a restricted scan touches just its kept rows)."""
        store = self.table.columnar()
        self.stats.rows_scanned += len(store)
        return store

    def _restricted(self, keep: frozenset[int]) -> Iterator[Row]:
        include_tid = self.include_tid
        stats = self.stats
        for tid, row in self.table.restricted_rows(keep):
            stats.rows_scanned += 1
            yield row + (tid,) if include_tid else row

    def describe(self) -> str:
        extra = " +tid" if self.include_tid else ""
        restricted = " restricted" if self.keep_tids is not None else ""
        return f"Scan({self.table.schema.name}{extra}{restricted})"


def hashable(left: Optional[SQLType], right: Optional[SQLType]) -> bool:
    """Whether an equality between values declared ``left`` and ``right``
    may be an :class:`Access` key.  Python's hashing says ``1 = TRUE`` and
    never raises, so an incomparable pair stays a conjunct, whose compiled
    comparison raises before any row is read.  An unknown (None) type
    hashes."""
    return left is None or right is None or comparable(left, right)


class Access(PlanNode):
    """The rows of ``source`` whose key columns equal a probe key, in the
    form ``Planner._access`` picks: :meth:`lookup` returns a function from
    a key (a bare value for one column, a tuple for several) to its rows.

    * **live index** (``index`` given): ``source`` is an unrestricted
      :class:`Scan` and each probe reads the posting list of the table's
      secondary index on exactly those positions
      (:meth:`~repro.engine.storage.Table.probe`).  Nothing is built, and
      nothing is scanned.
    * **hash** (``keys`` given): the source's rows hashed on the key
      evaluators, built per :meth:`lookup` call; :meth:`shared` keeps one
      build for the statement.

    Both follow SQL's ``=``.  A key holding NULL matches nothing: neither
    a hash nor an index files one (:func:`~repro.engine.storage.column_key`),
    so probing with one finds nothing.  A NaN key matches a NaN: every NaN
    the engine stores or computes is the one object
    :data:`~repro.engine.types.NAN`, and dict lookups match on identity
    before ``==``.  Types are the planner's side: it keys only equalities
    whose two sides are :func:`hashable`.
    """

    def __init__(
        self,
        source: PlanNode,
        stats: ExecutionStats,
        keys: Sequence[Evaluator] = (),
        index: Sequence[int] = (),
    ) -> None:
        self.source = source
        self.stats = stats
        self.keys = list(keys)
        self.index = tuple(index)
        self.width = source.width
        self._shared: Optional[Callable[[object], Optional[Sequence[Row]]]] = None

    def rows(self, env: Env) -> Iterator[Row]:
        return self.source.rows(env)  # read whole, an access is its source

    def lookup(self, env: Env) -> Callable[[object], Optional[Sequence[Row]]]:
        """The probe function over the source as of ``env``."""
        if self.index:
            scan: Scan = self.source  # type: ignore[assignment]
            return scan.table.probe(self.index, scan.include_tid)
        key_of = self._key_of()
        table: dict[object, list[Row]] = {}
        for row in self.source.rows(env):
            key = key_of(row)
            if key is not None:
                table.setdefault(key, []).append(row)
        return table.get

    def _key_of(self) -> Callable[[Row], object]:
        """A source row's key, filed as an index files it
        (:func:`~repro.engine.storage.column_key`): picked straight off the
        row when every key is a plain column (the compiler marks those
        with ``column_index``), else off the tuple of computed keys."""
        picks = [getattr(key, "column_index", None) for key in self.keys]
        if None not in picks:
            return column_key(picks)  # type: ignore[arg-type]
        keys, pick = self.keys, column_key(range(len(self.keys)))

        def key_of(row: Row) -> object:
            env = (row,)
            return pick(tuple(key(env) for key in keys))

        return key_of

    def index_reader(self) -> Optional[tuple[IndexReader, bool]]:
        """A live-index access's :class:`~repro.engine.storage.IndexReader`
        and whether its rows carry the tid; None for a hash."""
        if not self.index:
            return None
        scan: Scan = self.source  # type: ignore[assignment]
        return scan.table.index_reader(self.index), scan.include_tid

    def shared(self) -> Callable[[object], Optional[Sequence[Row]]]:
        """:meth:`lookup` for an uncorrelated source, made on first use and
        kept for the statement (a decorrelated subquery's partner); a
        hash build counts one ``subquery_evaluations``."""
        if self._shared is None:
            if not self.index:
                self.stats.subquery_evaluations += 1
            self._shared = self.lookup(())
        return self._shared

    def children(self) -> Sequence[PlanNode]:
        return () if self.index else (self.source,)

    def describe(self) -> str:
        if self.index:
            return "IndexProbe" + self.index_label()
        return f"Hash({len(self.keys)} keys)"

    def index_label(self) -> str:
        """``(table on [columns])`` of a live-index access, ``+tid`` marked."""
        scan: Scan = self.source  # type: ignore[assignment]
        names = scan.table.schema.column_names
        columns = ", ".join(names[p] for p in self.index)
        extra = " +tid" if scan.include_tid else ""
        return f"({scan.table.schema.name} on [{columns}]{extra})"


class IndexScan(PlanNode):
    """A live-index :class:`Access` probed once per execution with the
    values its ``col = literal`` / ``col = outer column`` conjuncts bind:
    the rows they select, touching (and counting) only those.  ``keys``
    are evaluators over an empty row and the outer rows (a literal
    compiles to a constant), in the access's key order."""

    def __init__(self, access: Access, keys: Sequence[Evaluator]) -> None:
        self.access = access
        self.keys = list(keys)
        self.width = access.width

    def rows(self, env: Env) -> Iterator[Row]:
        bound = ((),) + env
        values = tuple(key(bound) for key in self.keys)
        probe = self.access.lookup(env)
        rows = probe(values[0] if len(values) == 1 else values) or ()
        self.access.stats.rows_scanned += len(rows)
        return iter(rows)

    def describe(self) -> str:
        return "IndexScan" + self.access.index_label()


class Values(PlanNode):
    """A constant in-memory relation."""

    def __init__(self, rows: Sequence[Row], width: int) -> None:
        self._rows = list(rows)
        self.width = width

    def rows(self, env: Env) -> Iterator[Row]:
        return iter(self._rows)

    def describe(self) -> str:
        return f"Values({len(self._rows)} rows)"


class SingleRow(PlanNode):
    """Produces exactly one empty row (SELECT without FROM)."""

    width = 0

    def rows(self, env: Env) -> Iterator[Row]:
        yield ()


class Filter(PlanNode):
    """Keeps rows whose predicate evaluates to TRUE.

    A predicate the compiler could decide on the bare row -- typed
    column-vs-constant and column-vs-column comparisons and conjunctions
    of them, see :data:`~repro.engine.expressions.RowTest` -- carries that
    test as ``row_test``, and the rows are then ``filter(row_test,
    rows)`` with no per-row environment or 3-valued dispatch.  A row test reads only
    columns with a declared type, never a scan's tid.
    """

    def __init__(self, child: PlanNode, predicate: Predicate) -> None:
        self.child = child
        self.predicate = predicate
        self.row_test: Optional[RowTest] = getattr(predicate, "row_test", None)
        self.width = child.width

    def rows(self, env: Env) -> Iterator[Row]:
        if self.row_test is not None:
            return filter(self.row_test, self.child.rows(env))
        return self._interpreted(env)

    def _interpreted(self, env: Env) -> Iterator[Row]:
        predicate = self.predicate
        for row in self.child.rows(env):
            if predicate((row,) + env):
                yield row

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)


class Project(PlanNode):
    """Computes a new row from expression evaluators.

    When every evaluator is a plain local column reference (the compiler
    marks those with ``column_index``; SJUD cores always are), the rows
    are picked by one ``itemgetter`` mapped over the child.
    """

    def __init__(self, child: PlanNode, evaluators: Sequence[Evaluator]) -> None:
        self.child = child
        self.evaluators = list(evaluators)
        self.width = len(self.evaluators)
        picks = [getattr(e, "column_index", None) for e in self.evaluators]
        self._picks = picks if picks and None not in picks else None

    def rows(self, env: Env) -> Iterator[Row]:
        picks = self._picks
        if picks is None:
            return self._interpreted(env)
        picked = map(itemgetter(*picks), self.child.rows(env))
        # itemgetter with one index yields the bare value, not a 1-tuple.
        return picked if len(picks) > 1 else zip(picked)

    def _interpreted(self, env: Env) -> Iterator[Row]:
        evaluators = self.evaluators
        for row in self.child.rows(env):
            inner_env = (row,) + env
            yield tuple(evaluator(inner_env) for evaluator in evaluators)

    def split(
        self, arity: int, env: Env
    ) -> tuple[Sequence[Row], Sequence[Row], list[Sequence]]:
        """The output rows as columns, cut after ``arity`` outputs: three
        parallel sequences, ``values`` (each row's first ``arity``
        outputs), ``tails`` (the rest, a tuple per row) and ``columns``
        (the rest, one sequence per output) -- for a core, its answers,
        their witness tids, and one tid column per atom.

        When the child is an unrestricted scan with its tid, at most
        filtered by a row test, and the values are the table's columns in
        order, all three come off the table's
        :class:`~repro.engine.columnar.ColumnStore`: the values are the
        stored rows themselves and nothing is built per row.  When the
        child is an inner :class:`HashJoin` without residual of such a
        scan with a live index carrying the tid, the join is read as
        columns (:meth:`_join_columns`).  Any other shape picks (or
        evaluates) the values and tail columns off the child's rows, one
        values tuple and one tail tuple per row.
        """
        scan, test = self._stored_source(arity)
        if scan is not None:
            store = scan.store()
            rows, tails, tids = store.rows, store.tid_tuples(), store.tids
            if test is None:
                return rows, tails, [tids]
            kept = list(map(test, rows))
            return (
                list(compress(rows, kept)),
                list(compress(tails, kept)),
                [list(compress(tids, kept))],
            )
        joined = self._join_columns(arity)
        if joined is not None:
            return joined
        rows = list(self.child.rows(env))
        evaluators, picks = self.evaluators, self._picks
        if picks is not None:
            picked = map(itemgetter(*picks[:arity]), rows)
            # itemgetter with one index yields the bare value, not a 1-tuple.
            values = list(picked if arity > 1 else zip(picked))
            columns = [list(map(itemgetter(pick), rows)) for pick in picks[arity:]]
        else:
            values = [
                tuple(evaluator((row,) + env) for evaluator in evaluators[:arity])
                for row in rows
            ]
            columns = [
                [evaluator((row,) + env) for row in rows]
                for evaluator in evaluators[arity:]
            ]
        tails = list(zip(*columns)) if columns else [()] * len(rows)
        return values, tails, columns

    def _stored_source(
        self, arity: int
    ) -> tuple[Optional[Scan], Optional[RowTest]]:
        """The unrestricted ``+tid`` scan (and the row test filtering it,
        if any) whose stored rows are this projection's first ``arity``
        outputs and whose tid is the last; ``(None, None)`` otherwise."""
        scan, test = _stored_scan(self.child)
        if (
            scan is not None
            and scan.table.schema.arity == arity
            and self._picks == list(range(arity + 1))
        ):
            return scan, test
        return None, None

    def _join_columns(
        self, arity: int
    ) -> Optional[tuple[Sequence[Row], Sequence[Row], list[Sequence]]]:
        """:meth:`split` of a projection over an inner, residual-free
        :class:`HashJoin` whose left side :func:`_stored_scan` accepts and
        whose right side is a live index carrying the tid; None for any
        other shape.

        The left store's key column is mapped through the index's owners
        once, a key without owners drops its row and a multi-owner key
        repeats it once per owner in tid order (:func:`_expand`): the
        rows, in the order :meth:`HashJoin._index_rows` makes them, as
        three parallel columns -- left row, left tid, right tid.  Every
        output is then one ``itemgetter`` map over one side's rows (or
        one of the tid columns), and no joined row is built."""
        join, picks = self.child, self._picks
        if (
            picks is None
            or not arity
            or not isinstance(join, HashJoin)
            or join.kind != "inner"
            or join.residual is not None
        ):
            return None
        scan, test = _stored_scan(join.left)
        reader = join.right.index_reader()
        if scan is None or reader is None or not reader[1]:
            return None
        owners_of, stored = reader[0]
        left_arity = scan.table.schema.arity
        if max(join.left_positions) >= left_arity:
            return None  # a key on the tid: the row path decides it
        store = scan.store()
        lefts: Sequence[Row] = store.rows
        tids: Sequence[int] = store.tids
        if test is not None:
            kept = list(map(test, lefts))
            lefts, tids = list(compress(lefts, kept)), list(compress(tids, kept))
        found: list = list(map(owners_of, map(itemgetter(*join.left_positions), lefts)))
        irregular = list(compress(count(), map(is_not, map(type, found), repeat(int))))
        if irregular:
            lefts, tids, found = _expand(lefts, tids, found, irregular)
        rights = list(map(stored.__getitem__, found))
        right_tid = left_arity + join.right.width  # position in a joined row

        def column(pick: int) -> Iterable:
            """One output of the joined rows, a map over one side's rows
            or one of the tid columns."""
            if pick < left_arity:
                return map(itemgetter(pick), lefts)
            if pick == left_arity:
                return tids
            if pick < right_tid:
                return map(itemgetter(pick - left_arity - 1), rights)
            return found

        values = list(zip(*map(column, picks[:arity])))
        columns: list[Sequence] = [list(column(pick)) for pick in picks[arity:]]
        tails = list(zip(*columns)) if columns else [()] * len(values)
        return values, tails, columns

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)


def _stored_scan(node: PlanNode) -> tuple[Optional[Scan], Optional[RowTest]]:
    """The unrestricted ``+tid`` scan ``node`` is, at most under a
    row-tested :class:`Filter`, with that row test; ``(None, None)`` for
    any other shape."""
    test = None
    if isinstance(node, Filter) and node.row_test is not None:
        node, test = node.child, node.row_test
    if isinstance(node, Scan) and node.include_tid and node.keep_tids is None:
        return node, test
    return None, None


def _expand(
    lefts: Sequence[Row],
    tids: Sequence[int],
    found: list,
    irregular: list[int],
) -> tuple[list[Row], list[int], list[int]]:
    """The parallel left rows, left tids and owners with each
    ``irregular`` position (one whose owners are not a single tid)
    expanded in place: no owner drops the row, several repeat it once per
    owner in tid order.  Runs of single owners are copied as slices."""
    rows: list[Row] = []
    row_tids: list[int] = []
    owners: list[int] = []
    start = 0
    for at in irregular:
        rows += lefts[start:at]
        row_tids += tids[start:at]
        owners += found[start:at]
        several = found[at]
        if several is not None:
            ordered = in_tid_order(several)
            owners += ordered
            rows += [lefts[at]] * len(ordered)
            row_tids += [tids[at]] * len(ordered)
        start = at + 1
    rows += lefts[start:]
    row_tids += tids[start:]
    owners += found[start:]
    return rows, row_tids, owners


class NestedLoopJoin(PlanNode):
    """Nested-loop join; supports inner, cross and left-outer joins.

    The right side is materialized once per call (it may be consumed many
    times).  ``predicate`` sees the concatenated row.
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        predicate: Optional[Predicate] = None,
        kind: str = "inner",
    ) -> None:
        if kind not in ("inner", "cross", "left"):
            raise ValueError(f"unsupported join kind: {kind}")
        self.left = left
        self.right = right
        self.predicate = predicate
        self.kind = kind
        self.width = left.width + right.width

    def rows(self, env: Env) -> Iterator[Row]:
        right_rows = list(self.right.rows(env))
        predicate = self.predicate
        pad = (None,) * self.right.width
        for left_row in self.left.rows(env):
            matched = False
            for right_row in right_rows:
                combined = left_row + right_row
                if predicate is None or predicate((combined,) + env):
                    matched = True
                    yield combined
            if self.kind == "left" and not matched:
                yield left_row + pad

    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)

    def describe(self) -> str:
        return f"NestedLoopJoin({self.kind})"


class HashJoin(PlanNode):
    """Equi-join: each left row probes the right side's :class:`Access`
    with its key columns (``left_positions``, in the access's key order).

    ``residual`` is an extra predicate applied to the concatenated row
    (the conjuncts that are not keys); one with a
    :data:`~repro.engine.expressions.RowTest` runs as that test on the
    concatenated row, as a :class:`Filter` does.
    """

    def __init__(
        self,
        left: PlanNode,
        right: Access,
        left_positions: Sequence[int],
        residual: Optional[Predicate] = None,
        kind: str = "inner",
    ) -> None:
        if kind not in ("inner", "left"):
            raise ValueError(f"unsupported hash-join kind: {kind}")
        self.left = left
        self.right = right
        self.left_positions = tuple(left_positions)
        self.residual = residual
        self.kind = kind
        self.width = left.width + right.width

    def rows(self, env: Env) -> Iterator[Row]:
        reader = self.right.index_reader()
        if reader is not None:
            return self._index_rows(env, *reader)
        return self._hashed_rows(env)

    def _index_rows(
        self, env: Env, reader: IndexReader, with_tid: bool
    ) -> Iterator[Row]:
        """The join over a live index in one pass: one posting read per
        left row, and each joined row ``left + stored (+ (tid,))`` built
        once, straight off the index (a single owner inline, several in
        tid order, as :meth:`~repro.engine.storage.Table.probe` gives)."""
        owners_of, stored = reader
        key_of = itemgetter(*self.left_positions)
        passes = self._residual_test(env)
        left_join = self.kind == "left"
        pad = (None,) * self.right.width
        for left_row in self.left.rows(env):
            owners = owners_of(key_of(left_row))
            if owners is None:
                if left_join:
                    yield left_row + pad
                continue
            if type(owners) is int:  # the common single owner
                combined = left_row + stored[owners]
                if with_tid:
                    combined += (owners,)
                if passes is None or passes(combined):
                    yield combined
                elif left_join:
                    yield left_row + pad
                continue
            matched = False
            for tid in in_tid_order(owners):
                combined = left_row + stored[tid]
                if with_tid:
                    combined += (tid,)
                if passes is None or passes(combined):
                    matched = True
                    yield combined
            if left_join and not matched:
                yield left_row + pad

    def _hashed_rows(self, env: Env) -> Iterator[Row]:
        lookup = self.right.lookup(env)
        key_of = itemgetter(*self.left_positions)
        passes = self._residual_test(env)
        pad = (None,) * self.right.width
        for left_row in self.left.rows(env):
            matched = False
            for right_row in lookup(key_of(left_row)) or ():
                combined = left_row + right_row
                if passes is None or passes(combined):
                    matched = True
                    yield combined
            if self.kind == "left" and not matched:
                yield left_row + pad

    def _residual_test(self, env: Env) -> Optional[RowTest]:
        """The residual as a test of one joined row: its row test when it
        has one, else the interpreted predicate over ``(row,) + env``."""
        residual = self.residual
        if residual is None:
            return None
        test = getattr(residual, "row_test", None)
        if test is not None:
            return test
        return lambda combined: residual((combined,) + env)

    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)

    def describe(self) -> str:
        return f"HashJoin({self.kind}, {len(self.left_positions)} keys)"


#: ``exists(key, row, env)``: whether a decorrelated subquery's partner
#: has a row filed under ``key`` that passes the residual against the
#: outer row ``row`` (``env``: the rows enclosing ``row``).
PartnerTest = Callable[[object, Row, Env], bool]


def partner_exists(partner: Access, residual: Optional[Predicate]) -> PartnerTest:
    """The one rule deciding whether an outer row has a partner, for a
    :class:`HashSemiJoin` pass and a per-row ``EXISTS`` alike
    (``_DecorrelatedSubplan.has_rows`` in the planner).

    Over a live index, when there is no residual or it carries a
    :data:`~repro.engine.expressions.PairTest`, the index reader is read
    here, once, and each decision is one ``owners(key)``: a single owner
    is checked as ``pair(stored[tid], row)``, several in any order until
    one passes (existence does not depend on order).  Nothing is built
    per probe.  A stored row stands in for a ``+tid`` partner row: a pair
    test reads only columns with a declared type, never the tid.

    Any other shape reads the buckets of :meth:`Access.shared` (a hash
    build counts its ``subquery_evaluations`` there), checked by the pair
    test when there is one, else by the interpreted residual over
    ``(partner, row) + env``.  Probes are the caller's to count.
    """
    pair: Optional[PairTest] = getattr(residual, "pair_test", None)
    reader = partner.index_reader()
    if reader is not None and (residual is None or pair is not None):
        owners_of, stored = reader[0]
        if pair is None:
            return lambda key, row, env: owners_of(key) is not None

        def indexed(key: object, row: Row, env: Env) -> bool:
            owners = owners_of(key)
            if owners is None:
                return False
            if type(owners) is int:  # the common single owner
                return pair(stored[owners], row)
            for tid in owners:  # type: ignore[union-attr]
                if pair(stored[tid], row):
                    return True
            return False

        return indexed
    lookup = partner.shared()

    def bucketed(key: object, row: Row, env: Env) -> bool:
        bucket = lookup(key)
        if not bucket:
            return False
        if residual is None:
            return True
        if pair is not None:
            return any(pair(inner, row) for inner in bucket)
        outer = (row,) + env
        return any(residual((inner,) + outer) for inner in bucket)

    return bucketed


class HashSemiJoin(PlanNode):
    """A top-level ``[NOT] EXISTS`` conjunct as a semi / anti join.

    Keeps the child rows that have (``anti``: have no) partner in the
    decorrelated subquery's :class:`Access` passing ``residual`` (the
    conjuncts still correlated with the outer row, over ``(partner,
    row) + env``).  Per row that is one ``itemgetter`` and one decision
    of :func:`partner_exists`, made once per pass: over a live index, one
    posting read checked by the residual's pair test.

    ``subquery_cache_hits`` counts one probe per child row consumed, added
    once per pass; a hash build counts its own ``subquery_evaluations``.
    """

    def __init__(
        self,
        child: PlanNode,
        partner: Access,
        key_positions: Sequence[int],
        residual: Optional[Predicate],
        anti: bool,
    ) -> None:
        self.child = child
        self.partner = partner
        self.key_positions = tuple(key_positions)
        self.residual = residual
        self.anti = anti
        self.width = child.width

    def rows(self, env: Env) -> Iterator[Row]:
        exists = partner_exists(self.partner, self.residual)
        key_of = itemgetter(*self.key_positions)
        anti = self.anti
        probes = 0
        try:
            for row in self.child.rows(env):
                probes += 1
                if exists(key_of(row), row, env) is not anti:
                    yield row
        finally:
            self.partner.stats.subquery_cache_hits += probes

    def children(self) -> Sequence[PlanNode]:
        return (self.child, self.partner)

    def describe(self) -> str:
        kind = "anti" if self.anti else "semi"
        return f"HashSemiJoin({kind}, {len(self.key_positions)} keys)"


class UnionAll(PlanNode):
    """Concatenation of union-compatible inputs."""

    def __init__(self, children_nodes: Sequence[PlanNode]) -> None:
        if not children_nodes:
            raise ValueError("UnionAll requires at least one child")
        widths = {child.width for child in children_nodes}
        if len(widths) != 1:
            raise ValueError("UnionAll children must have equal width")
        self._children = list(children_nodes)
        self.width = children_nodes[0].width

    def rows(self, env: Env) -> Iterator[Row]:
        for child in self._children:
            yield from child.rows(env)

    def children(self) -> Sequence[PlanNode]:
        return tuple(self._children)


class Distinct(PlanNode):
    """Removes duplicate rows (first occurrence wins, order preserved)."""

    def __init__(self, child: PlanNode) -> None:
        self.child = child
        self.width = child.width

    def rows(self, env: Env) -> Iterator[Row]:
        seen: set[Row] = set()
        for row in self.child.rows(env):
            if row not in seen:
                seen.add(row)
                yield row

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)


class Except(PlanNode):
    """Set difference.  ``all=False`` (default) applies set semantics."""

    def __init__(self, left: PlanNode, right: PlanNode, all: bool = False) -> None:
        if left.width != right.width:
            raise ValueError("EXCEPT requires equal-width inputs")
        self.left = left
        self.right = right
        self.all = all
        self.width = left.width

    def rows(self, env: Env) -> Iterator[Row]:
        if self.all:
            counts: dict[Row, int] = {}
            for row in self.right.rows(env):
                counts[row] = counts.get(row, 0) + 1
            for row in self.left.rows(env):
                remaining = counts.get(row, 0)
                if remaining:
                    counts[row] = remaining - 1
                else:
                    yield row
            return
        removed = set(self.right.rows(env))
        emitted: set[Row] = set()
        for row in self.left.rows(env):
            if row not in removed and row not in emitted:
                emitted.add(row)
                yield row

    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)

    def describe(self) -> str:
        return f"Except(all={self.all})"


class Intersect(PlanNode):
    """Set intersection.  ``all=False`` (default) applies set semantics."""

    def __init__(self, left: PlanNode, right: PlanNode, all: bool = False) -> None:
        if left.width != right.width:
            raise ValueError("INTERSECT requires equal-width inputs")
        self.left = left
        self.right = right
        self.all = all
        self.width = left.width

    def rows(self, env: Env) -> Iterator[Row]:
        if self.all:
            counts: dict[Row, int] = {}
            for row in self.right.rows(env):
                counts[row] = counts.get(row, 0) + 1
            for row in self.left.rows(env):
                remaining = counts.get(row, 0)
                if remaining:
                    counts[row] = remaining - 1
                    yield row
            return
        keep = set(self.right.rows(env))
        emitted: set[Row] = set()
        for row in self.left.rows(env):
            if row in keep and row not in emitted:
                emitted.add(row)
                yield row

    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)

    def describe(self) -> str:
        return f"Intersect(all={self.all})"


class Sort(PlanNode):
    """ORDER BY: stable sort on evaluated keys (NULLs first)."""

    def __init__(
        self, child: PlanNode, keys: Sequence[tuple[Evaluator, bool]]
    ) -> None:
        self.child = child
        self.keys = list(keys)
        self.width = child.width

    def rows(self, env: Env) -> Iterator[Row]:
        materialized = list(self.child.rows(env))
        # Stable multi-key sort: apply keys right-to-left.
        for evaluator, ascending in reversed(self.keys):
            materialized.sort(
                key=lambda row: sort_key(evaluator((row,) + env)),
                reverse=not ascending,
            )
        return iter(materialized)

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)


class Limit(PlanNode):
    """LIMIT / OFFSET."""

    def __init__(
        self, child: PlanNode, limit: Optional[int], offset: Optional[int]
    ) -> None:
        self.child = child
        self.limit = limit
        self.offset = offset or 0
        self.width = child.width

    def rows(self, env: Env) -> Iterator[Row]:
        remaining = self.limit
        skipped = 0
        for row in self.child.rows(env):
            if skipped < self.offset:
                skipped += 1
                continue
            if remaining is not None:
                if remaining <= 0:
                    return
                remaining -= 1
            yield row

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def describe(self) -> str:
        return f"Limit({self.limit}, offset={self.offset})"


#: An aggregate spec: (function name, distinct, argument evaluator or None
#: for COUNT(*)).
AggregateSpec = tuple[str, bool, Optional[Evaluator]]


class Aggregate(PlanNode):
    """Hash aggregation.

    Output rows are ``group key values + one value per aggregate spec``.
    With no GROUP BY keys, exactly one row is produced even for empty
    input (``COUNT(*) = 0``, ``SUM = NULL``, ...).
    """

    def __init__(
        self,
        child: PlanNode,
        group_keys: Sequence[Evaluator],
        aggregates: Sequence[AggregateSpec],
    ) -> None:
        self.child = child
        self.group_keys = list(group_keys)
        self.aggregates = list(aggregates)
        self.width = len(self.group_keys) + len(self.aggregates)

    def _new_accumulators(self) -> list[functions.Aggregate]:
        return [
            functions.make_aggregate(name, distinct)
            for name, distinct, _arg in self.aggregates
        ]

    def rows(self, env: Env) -> Iterator[Row]:
        groups: dict[Row, list[functions.Aggregate]] = {}
        order: list[Row] = []
        for row in self.child.rows(env):
            inner_env = (row,) + env
            key = tuple(evaluator(inner_env) for evaluator in self.group_keys)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = self._new_accumulators()
                groups[key] = accumulators
                order.append(key)
            for accumulator, (_name, _distinct, arg) in zip(
                accumulators, self.aggregates
            ):
                value = 1 if arg is None else arg(inner_env)
                accumulator.add(value)
        if not groups and not self.group_keys:
            groups[()] = self._new_accumulators()
            order.append(())
        for key in order:
            yield key + tuple(acc.result() for acc in groups[key])

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def describe(self) -> str:
        names = ", ".join(name for name, _d, _a in self.aggregates)
        return f"Aggregate(keys={len(self.group_keys)}, aggs=[{names}])"


def run_plan(plan: PlanNode) -> list[Row]:
    """Execute a plan with an empty outer environment."""
    return list(plan.rows(()))
