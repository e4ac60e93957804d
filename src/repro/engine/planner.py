"""Translation of query ASTs into physical plans.

The planner performs the classic minimal set of rewrites a real system
needs to make the Hippo experiments meaningful:

* WHERE clauses are split into conjuncts;
* remaining conjuncts become filters at the earliest point where all of
  their columns are available -- single-table ones directly under their
  FROM item;
* every keyed access goes through **one rule**, :meth:`Planner._access`,
  keyed by the source's *bound* columns -- bound by a literal, by a
  column of the outer row (a correlated subquery's, or the tuple the
  incremental conflict detector binds), by the other side of an
  equi-join, or by the outer row of a decorrelated ``[NOT] EXISTS`` /
  ``IN``: the table's live index when one is covered, else one hash of
  the source per statement.  So constant and outer-bound equalities
  become an index scan, equi-joins a hash join probing the right input
  (the paper's conflict-detection self-joins and the envelope queries
  rely on this to run in linear time, as PostgreSQL would), and a
  top-level ``[NOT] EXISTS`` conjunct a semi / anti join under the FROM
  item it is correlated with -- how an RDBMS executes the rewriting
  baseline's ``NOT EXISTS`` residues; other subqueries are compiled into
  subplans with a memo cache keyed on the captured outer values.

This is the only planner: SJUD cores (the envelope, cleaned answers,
detection's residual joins) are rendered to SELECT blocks by
:mod:`repro.ra.compile` and planned here with ``Planner(tids=...)``,
UPDATE / DELETE find their rows through :meth:`Planner.plan_matching`,
and the incremental conflict detector plans each constraint's residual
join around a bound tuple with ``plan_query(..., outer_scope=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union, cast

from repro.engine import functions, plan
from repro.engine.catalog import Catalog
from repro.engine.expressions import (
    Env,
    Evaluator,
    ExpressionCompiler,
    Scope,
    bound_entries,
)
from repro.engine.stats import ExecutionStats
from repro.engine.types import SQLType
from repro.errors import PlanError
from repro.sql import ast

_SENTINEL = object()

#: Maps a relation name to the tids a scan of it may produce (None = all).
Restriction = Callable[[str], Optional[frozenset[int]]]

#: The tuple-id pseudo-column of a tid-carrying scan (``Planner(tids=...)``).
TID = "#tid"


#: ``(conjunct, inner side, outer side)`` of a key equality.
_KeyEquality = tuple[ast.Expression, ast.Expression, ast.Expression]


def _equalities(
    conjuncts: Sequence[ast.Expression],
    inner: Callable[[ast.Expression], bool],
    outer: Callable[[ast.Expression], bool],
    inner_scope: Scope,
    outer_scope: Scope,
) -> list[_KeyEquality]:
    """The key equalities among ``conjuncts`` (the one equality matcher):
    each ``a = b``, either way round, whose ``inner`` side is over the
    source being accessed and whose ``outer`` side binds it -- a literal,
    the other join input, or a decorrelated subquery's outer row -- with
    :func:`~repro.engine.plan.hashable` declared types (a literal's own).
    """

    keys: list[_KeyEquality] = []
    for conjunct in conjuncts:
        if not isinstance(conjunct, ast.BinaryOp) or conjunct.op != "=":
            continue
        for a, b in ((conjunct.left, conjunct.right), (conjunct.right, conjunct.left)):
            if (
                inner(a)
                and outer(b)
                and plan.hashable(
                    inner_scope.declared_type(a), outer_scope.declared_type(b)
                )
            ):
                keys.append((conjunct, a, b))
                break
    return keys


def _flat_from(
    from_items: Sequence[ast.FromItem],
) -> Optional[tuple[list[ast.TableRef], list[ast.Expression]]]:
    """The tables of a FROM list and the conditions of its inner joins,
    or None when it holds a derived table or an outer join."""
    tables: list[ast.TableRef] = []
    conditions: list[ast.Expression] = []

    def visit(item: ast.FromItem) -> bool:
        if isinstance(item, ast.TableRef):
            tables.append(item)
            return True
        if isinstance(item, ast.Join) and item.kind != "left":
            conditions.extend(ast.split_conjuncts(item.on))
            return visit(item.left) and visit(item.right)
        return False

    return (tables, conditions) if all(map(visit, from_items)) else None


@dataclass
class PlannedQuery:
    """A compiled query: physical plan + output column names and types."""

    plan: plan.PlanNode
    columns: list[str]
    types: list[Optional[SQLType]]

    def run(self) -> list[tuple]:
        """Execute the plan with an empty outer environment."""
        return plan.run_plan(self.plan)


@dataclass
class _Source:
    """A planned FROM item or query body: its plan plus visible columns.

    ``types`` is parallel to ``entries``: :meth:`Scope.declared_type` (a
    stored column's or a literal's type), None for the rest.
    """

    node: plan.PlanNode
    entries: list[tuple[Optional[str], str]]
    displays: list[str]
    types: list[Optional[SQLType]]

    def scope(self, parent: Optional[Scope], level: int) -> Scope:
        """The scope of this source's columns, under ``parent``."""
        return Scope(list(self.entries), parent, level, list(self.types))

    def column(self, expr: ast.Expression) -> Optional[int]:
        """The position of ``expr`` among the columns when it is a plain
        column reference; None otherwise."""
        if not isinstance(expr, ast.ColumnRef):
            return None
        return self.scope(None, 0).resolve(expr.table, expr.name)[1]


class _Subplan:
    """A compiled, memoized subquery (implements ``CompiledSubquery``).

    The memo key is the tuple of outer values the subquery actually
    references (its *captures*).  Uncorrelated subqueries therefore run
    exactly once per statement: every statement plans afresh, so a memo
    never outlives the data it was filled from.
    """

    def __init__(
        self,
        planned: PlannedQuery,
        captures: list[tuple[int, int]],
        site_level: int,
        stats: ExecutionStats,
    ) -> None:
        self._node = planned.plan
        self.first_type = planned.types[0] if planned.types else None
        self._captures = captures
        self._site_level = site_level
        self._stats = stats
        self._exists_cache: dict[tuple, bool] = {}
        self._values_cache: dict[tuple, list] = {}

    def _key(self, env: Env) -> tuple:
        site_level = self._site_level
        return tuple(env[site_level - level][index] for level, index in self._captures)

    def has_rows(self, env: Env) -> bool:
        key = self._key(env)
        cached = self._exists_cache.get(key, _SENTINEL)
        if cached is not _SENTINEL:
            self._stats.subquery_cache_hits += 1
            return cached  # type: ignore[return-value]
        self._stats.subquery_evaluations += 1
        result = next(iter(self._node.rows(env)), _SENTINEL) is not _SENTINEL
        self._exists_cache[key] = result
        return result

    def first_column_values(self, env: Env) -> list:
        key = self._key(env)
        cached = self._values_cache.get(key)
        if cached is not None:
            self._stats.subquery_cache_hits += 1
            return cached
        self._stats.subquery_evaluations += 1
        values = [row[0] for row in self._node.rows(env)]
        self._values_cache[key] = values
        return values


class _DecorrelatedSubplan:
    """A correlated EXISTS / IN subquery, decorrelated.

    A real RDBMS answers a correlated ``NOT EXISTS`` residue with an index
    scan per outer row; here the equalities binding inner expressions to
    outer columns are stripped from the subquery, the rest is planned
    **once**, uncorrelated, as one source, and the outer row's values
    probe that source's :class:`~repro.engine.plan.Access`.  Without this
    the rewriting baseline would degrade to a quadratic nested loop no
    real system would exhibit, skewing the paper's part-3 comparison.

    A top-level ``[NOT] EXISTS`` whose outer keys are plain columns of one
    FROM source reads :attr:`partner` and :attr:`residual` as a
    :class:`~repro.engine.plan.HashSemiJoin` (``Planner._semi_join``);
    every other use calls :meth:`has_rows` / :meth:`first_column_values`
    per row from a ``Filter`` / ``Project`` closure.  ``has_rows`` and
    the node decide existence by one rule,
    :func:`~repro.engine.plan.partner_exists`.  Either way a hash build
    counts one ``subquery_evaluations`` (a live index builds nothing) and
    every probe one ``subquery_cache_hits``.
    """

    def __init__(
        self,
        partner: plan.Access,
        outer_keys: list[Evaluator],
        residual: Optional[Callable[[Env], bool]],
        value_evaluator: Evaluator,
        first_type: Optional[SQLType],
        stats: ExecutionStats,
    ) -> None:
        self.partner = partner
        self.outer_keys = outer_keys
        self.residual = residual
        self._value = value_evaluator
        self.first_type = first_type
        self._stats = stats
        self._exists: Optional[plan.PartnerTest] = None

    def _key(self, env: Env) -> object:
        outer_keys = self.outer_keys
        if len(outer_keys) == 1:
            return outer_keys[0](env)
        return tuple(evaluator(env) for evaluator in outer_keys)

    def _probe(self, env: Env) -> Sequence[tuple]:
        lookup = self.partner.shared()
        self._stats.subquery_cache_hits += 1
        return lookup(self._key(env)) or ()

    def has_rows(self, env: Env) -> bool:
        # Made on first use and kept for the statement, as Access.shared is.
        if self._exists is None:
            self._exists = plan.partner_exists(self.partner, self.residual)
        self._stats.subquery_cache_hits += 1
        return self._exists(self._key(env), env[0], env[1:])

    def first_column_values(self, env: Env) -> list:
        residual = self.residual
        return [
            self._value((local_row,) + env)
            for local_row in self._probe(env)
            if residual is None or residual((local_row,) + env)
        ]


def find_aggregate_calls(expr: ast.Expression) -> list[ast.FunctionCall]:
    """Aggregate function calls appearing in ``expr`` (outside subqueries)."""
    return [
        node
        for node in ast.walk_expressions(expr)
        if isinstance(node, ast.FunctionCall)
        and (node.star or functions.is_aggregate_function(node.name))
    ]


def _resolvable(expr: ast.Expression, entries: list[tuple[Optional[str], str]]) -> bool:
    """Whether every column ref of ``expr`` resolves within ``entries``."""
    probe = Scope(list(entries))
    for ref in ast.column_refs(expr):
        try:
            probe.resolve(ref.table, ref.name)
        except PlanError:
            return False
    return True


class Planner:
    """Plans queries against a catalog, producing physical plans.

    Args:
        catalog: the tables FROM items resolve against.
        stats: counter sink wired into every scan.
        tids: the *provenance mode* switch.  ``None`` (the default) plans
            exactly as SQL always was: plain scans, no pseudo-column.
            With a :data:`Restriction`, every table reference scans with
            its tuple id appended and exposes it as a trailing
            ``<binding>.#tid`` column (:data:`TID`; unquoted ``#`` does
            not lex, so only ASTs built in code reach it, and ``*`` skips
            it), and ``tids(relation)`` names the tids that scan may
            produce (``None`` = all).  A restricted source never takes an
            index path -- it stays
            ``Filter(Scan restricted)``, which touches only the kept rows.
    """

    def __init__(
        self,
        catalog: Catalog,
        stats: ExecutionStats,
        tids: Optional[Restriction] = None,
    ) -> None:
        self.catalog = catalog
        self.stats = stats
        self.tids = tids
        # Active capture collectors: (site_level, set of (level, index)).
        self._collectors: list[tuple[int, set[tuple[int, int]]]] = []

    # --------------------------------------------------------------- public

    def plan_query(
        self, query: ast.Query, outer_scope: Optional[Scope] = None
    ) -> PlannedQuery:
        """Plan a full query (body + ORDER BY + LIMIT)."""
        body = self._plan_body(query.body, outer_scope)
        node = body.node
        level = outer_scope.level + 1 if outer_scope is not None else 0
        output_scope = Scope(list(body.entries), outer_scope, level)
        if query.order_by:
            keys: list[tuple[Evaluator, bool]] = []
            for item in query.order_by:
                if isinstance(item.expr, ast.Literal) and isinstance(
                    item.expr.value, int
                ):
                    position = item.expr.value
                    if not 1 <= position <= node.width:
                        raise PlanError(f"ORDER BY position {position} out of range")
                    index = position - 1
                    keys.append((lambda env, i=index: env[0][i], item.ascending))
                else:
                    compiler = self._compiler(output_scope)
                    keys.append((compiler.compile(item.expr), item.ascending))
            node = plan.Sort(node, keys)
        if query.limit is not None or query.offset is not None:
            node = plan.Limit(node, query.limit, query.offset)
        return PlannedQuery(node, body.displays, body.types)

    def plan_matching(
        self, table: str, where: Optional[ast.Expression]
    ) -> PlannedQuery:
        """Plan which rows of ``table`` an UPDATE / DELETE ``WHERE`` hits.

        The rows come back whole with their tid appended (the trailing
        :data:`TID` column).  The access path is chosen exactly as under
        a SELECT's FROM item; callers run the plan to completion before
        the first mutation, so a statement never revisits a row it moved.
        """
        source = self._table_source(ast.TableRef(table), True)
        conjuncts = ast.split_conjuncts(where)
        late = [c for c in conjuncts if ast.contains_subquery(c)]
        early = [c for c in conjuncts if not ast.contains_subquery(c)]
        leftovers = self._apply_local_filters(source, early, source.scope(None, 0))
        self._filter(source, leftovers + late, None, 0)
        return PlannedQuery(source.node, source.displays, source.types)

    # ----------------------------------------------------------- query body

    def _plan_body(
        self,
        body: Union[ast.SelectCore, ast.SetOperation],
        outer_scope: Optional[Scope],
    ) -> _Source:
        if isinstance(body, ast.SelectCore):
            return self._plan_select_core(body, outer_scope)
        left = self._plan_body(body.left, outer_scope)
        right = self._plan_body(body.right, outer_scope)
        if left.node.width != right.node.width:
            raise PlanError(
                f"{body.op.upper()} requires equal column counts"
                f" ({left.node.width} vs {right.node.width})"
            )
        if body.op == "union":
            node: plan.PlanNode = plan.UnionAll([left.node, right.node])
            if not body.all:
                node = plan.Distinct(node)
        elif body.op == "except":
            node = plan.Except(left.node, right.node, all=body.all)
        elif body.op == "intersect":
            node = plan.Intersect(left.node, right.node, all=body.all)
        else:  # pragma: no cover - parser never emits other ops
            raise PlanError(f"unknown set operation {body.op!r}")
        # Column names come from the left input; bindings are dropped since
        # a set-operation result is not addressable through an alias.
        entries = [(None, column) for _binding, column in left.entries]
        types = [t if t == u else None for t, u in zip(left.types, right.types)]
        return _Source(node, entries, left.displays, types)

    # ---------------------------------------------------------- SELECT core

    def _plan_select_core(
        self, core: ast.SelectCore, outer_scope: Optional[Scope]
    ) -> _Source:
        level = outer_scope.level + 1 if outer_scope is not None else 0

        conjuncts = ast.split_conjuncts(core.where)
        # Conjuncts containing subqueries are applied at the end, after the
        # full row scope exists (they may be correlated with anything) --
        # except a bare [NOT] EXISTS, which the FROM list runs as a semi
        # join under the lowest source it is correlated with, if it can.
        join_candidates = [c for c in conjuncts if not ast.contains_subquery(c)]
        late_conjuncts = [c for c in conjuncts if ast.contains_subquery(c)]

        if core.from_items:
            source, leftovers, late_conjuncts = self._plan_from_list(
                core.from_items, join_candidates, late_conjuncts, outer_scope, level
            )
        else:
            source = _Source(plan.SingleRow(), [], [], [])
            leftovers = join_candidates

        from_scope = source.scope(outer_scope, level)
        self._filter(source, leftovers + late_conjuncts, outer_scope, level)
        node = source.node

        select_items = self._expand_stars(core.items, source)

        aggregate_calls: list[ast.FunctionCall] = []
        for item in select_items:
            aggregate_calls.extend(find_aggregate_calls(item.expr))
        if core.having is not None:
            aggregate_calls.extend(find_aggregate_calls(core.having))

        if core.group_by or aggregate_calls:
            node, entries, displays = self._plan_aggregate(
                node, from_scope, core, select_items, aggregate_calls, level
            )
            types: list[Optional[SQLType]] = [None] * len(entries)
        else:
            compiler = self._compiler(from_scope)
            evaluators = [compiler.compile(item.expr) for item in select_items]
            node = plan.Project(node, evaluators)
            entries, displays = self._output_columns(select_items, from_scope)
            types = [from_scope.declared_type(item.expr) for item in select_items]

        if core.distinct:
            node = plan.Distinct(node)
        return _Source(node, entries, displays, types)

    # ------------------------------------------------------------- FROM list

    def _plan_from_list(
        self,
        from_items: Sequence[ast.FromItem],
        candidates: list[ast.Expression],
        late: list[ast.Expression],
        outer_scope: Optional[Scope],
        level: int,
    ) -> tuple[_Source, list[ast.Expression], list[ast.Expression]]:
        """Combine comma-separated FROM items, consuming join conjuncts.

        ``late`` are the conjuncts holding subqueries; those that become
        semi joins on the way are consumed too.  Returns the combined
        source and what is left of both lists.
        """
        sources = [self._plan_from_item(i, outer_scope, level) for i in from_items]
        # What the WHERE clause sees: a column no FROM item has is bound
        # by the outer row.
        here = Scope(
            [e for s in sources for e in s.entries],
            outer_scope,
            level,
            [t for s in sources for t in s.types],
        )
        # Each conjunct resolves against the whole FROM list before it is
        # pushed to one item: a column two items share is ambiguous, even
        # though either item alone resolves it.
        for conjunct in candidates:
            for ref in ast.column_refs(conjunct):
                here.resolve(ref.table, ref.name)
        unused = list(candidates)
        combined: Optional[_Source] = None
        for source in sources:
            # Single-source conjuncts go under their own FROM item
            # (pushdown), where they can also pick its access path.
            unused = self._apply_local_filters(source, unused, here)
            late = self._apply_semi_joins(source, late, level)
            if combined is None:
                combined = source
                continue
            usable = [
                c
                for c in unused
                if _resolvable(c, combined.entries + source.entries)
            ]
            combined = self._combine(
                combined, source, usable, "inner", outer_scope, level
            )
            unused = [c for c in unused if c not in usable]
            late = self._apply_semi_joins(combined, late, level)
        assert combined is not None
        return combined, unused, late

    def _apply_local_filters(
        self, source: _Source, conjuncts: list[ast.Expression], here: Scope
    ) -> list[ast.Expression]:
        """Filter ``source`` by the conjuncts it can already evaluate.

        ``col = literal`` and ``col = outer column`` conjuncts bind their
        columns (``here`` is the WHERE clause's scope, whose parent is the
        outer row): when :meth:`_access` picks a live index for them, the
        scan becomes an :class:`~repro.engine.plan.IndexScan` keyed by the
        bound values and the equalities it serves are dropped.  The other
        local conjuncts stay in the ``Filter``; the other conjuncts reading
        the outer row stay above the source, whose bare scan a join can
        then still key.
        """
        local = [c for c in conjuncts if _resolvable(c, source.entries)]
        own = source.scope(None, here.level)

        def column_of(scope: Scope, expr: ast.Expression, outer: bool) -> bool:
            """Whether ``expr`` is a column ``scope`` resolves, in its
            parent (``outer``) or in itself."""
            try:
                return (
                    isinstance(expr, ast.ColumnRef)
                    and (scope.resolve(expr.table, expr.name)[0] > 0) == outer
                )
            except PlanError:
                return False

        keys = _equalities(
            conjuncts,
            lambda e: column_of(own, e, False),
            lambda e: isinstance(e, ast.Literal) or column_of(here, e, True),
            own,
            here,
        )
        used: list[ast.Expression] = []
        if keys:
            partner, served = self._access(source, [k[1] for k in keys])
            if partner.index:
                compiler = self._compiler(Scope([], here.parent, here.level))
                values = [compiler.compile(keys[i][2]) for i in served]
                source.node = plan.IndexScan(partner, values)
                used = [keys[i][0] for i in served]
        remaining = [c for c in local if c not in used]
        self._filter(source, remaining, here.parent, here.level)
        return [c for c in conjuncts if c not in local and c not in used]

    def _filter(
        self,
        source: _Source,
        conjuncts: list[ast.Expression],
        outer_scope: Optional[Scope],
        level: int,
    ) -> None:
        """Put a :class:`~repro.engine.plan.Filter` for ``conjuncts`` (when
        any) over ``source``, compiled against the source's own columns."""
        predicate = self._predicate(conjuncts, source.scope(outer_scope, level))
        if predicate is not None:
            source.node = plan.Filter(source.node, predicate)

    def _predicate(
        self, conjuncts: list[ast.Expression], scope: Scope
    ) -> Optional[Callable[[Env], bool]]:
        """The conjunction of ``conjuncts`` compiled over ``scope``; None
        when there are none."""
        if not conjuncts:
            return None
        return self._compiler(scope).compile_predicate(
            ast.conjunction(conjuncts)  # type: ignore[arg-type]
        )

    def _apply_semi_joins(
        self, source: _Source, conjuncts: list[ast.Expression], level: int
    ) -> list[ast.Expression]:
        """Put a :class:`~repro.engine.plan.HashSemiJoin` over ``source`` for
        each ``[NOT] EXISTS`` conjunct correlated with it alone; returns
        the conjuncts that stay."""
        rest = []
        for conjunct in conjuncts:
            node = self._semi_join(source, conjunct, level)
            if node is None:
                rest.append(conjunct)
            else:
                source.node = node
        return rest

    def _semi_join(
        self, source: _Source, conjunct: ast.Expression, level: int
    ) -> Optional[plan.HashSemiJoin]:
        """``conjunct`` as a semi / anti join over ``source``, or None when it
        is not a ``[NOT] EXISTS`` that ``source``'s own columns decorrelate."""
        anti = False
        if isinstance(conjunct, ast.UnaryOp) and conjunct.op == "NOT":
            # The parser's NOT EXISTS (...); ASTs built in code set negated.
            conjunct, anti = conjunct.operand, True
        if not isinstance(conjunct, ast.Exists):
            return None
        anti ^= conjunct.negated
        # No parent scope: a reference to a sibling source or an enclosing
        # query fails to compile, so the conjunct waits for a wider source
        # (in the end, the per-row Filter over the whole FROM list).
        site_scope = source.scope(None, level)
        subplan = self._try_decorrelate(conjunct.query, site_scope)
        if subplan is None:
            return None
        # Every outer key resolved in the source itself: a plain column.
        positions = [getattr(key, "column_index") for key in subplan.outer_keys]
        return plan.HashSemiJoin(
            source.node, subplan.partner, positions, subplan.residual, anti
        )

    def _access(
        self, source: _Source, inner: Sequence[ast.Expression]
    ) -> tuple[plan.Access, list[int]]:
        """The one access-path rule: how the rows of ``source`` whose
        ``inner`` key expressions equal bound values are found.

        * The table's **live index**, when ``source`` is an unrestricted
          scan of a stored table and every column of one of its secondary
          indexes is an ``inner`` plain column (the widest such index
          wins).  It serves those keys only.
        * Otherwise **one hash** of the source's rows on every key, built
          per statement: the only access of an unindexed, filtered,
          tid-restricted or derived source.

        Returns the access and the indices of the ``inner`` keys it is
        keyed on, in key order; callers keep the other equalities as a
        residual over the probed rows.  Keys bound only by literals or
        the outer row are probed once per execution, and a hash probed
        once is a scan that also builds a table: that caller keeps its
        conjuncts unless this is an index.
        No option selects the access: the presence of an index does.
        """
        columns: dict[int, int] = {}
        for number, expr in enumerate(inner):
            position = source.column(expr)
            if position is not None:
                columns.setdefault(position, number)
        node = source.node
        if isinstance(node, plan.Scan) and node.keep_tids is None:
            covered = [
                positions
                for positions in node.table.indexed_column_sets()
                if all(p in columns for p in positions)
            ]
            if covered:
                best = max(covered, key=len)
                access = plan.Access(node, self.stats, index=best)
                return access, [columns[p] for p in best]
        compiler = self._compiler(source.scope(None, 0))
        keys = [compiler.compile(expr) for expr in inner]
        return plan.Access(node, self.stats, keys=keys), list(range(len(inner)))

    def _table_source(self, item: ast.TableRef, with_tid: bool) -> _Source:
        """A scan of one stored table; ``with_tid`` appends :data:`TID`."""
        table = self.catalog.table(item.name)
        displays = list(table.schema.column_names)
        types: list[Optional[SQLType]] = [c.sql_type for c in table.schema.columns]
        if not with_tid:
            scan = plan.Scan(table, self.stats)
        else:
            displays.append(TID)
            types.append(None)
            keep = None if self.tids is None else self.tids(item.name)
            scan = plan.Scan(table, self.stats, include_tid=True, keep_tids=keep)
        return _Source(scan, bound_entries(item.binding, displays), displays, types)

    def _plan_from_item(
        self, item: ast.FromItem, outer_scope: Optional[Scope], level: int
    ) -> _Source:
        if isinstance(item, ast.TableRef):
            return self._table_source(item, self.tids is not None)
        if isinstance(item, ast.DerivedTable):
            planned = self.plan_query(item.query, outer_scope)
            entries = bound_entries(item.alias, planned.columns)
            return _Source(
                planned.plan, entries, list(planned.columns), list(planned.types)
            )
        if isinstance(item, ast.Join):
            left = self._plan_from_item(item.left, outer_scope, level)
            right = self._plan_from_item(item.right, outer_scope, level)
            conjuncts = ast.split_conjuncts(item.on)
            unresolvable = [
                c for c in conjuncts if not _resolvable(c, left.entries + right.entries)
            ]
            if unresolvable and item.kind != "cross":
                raise PlanError(
                    "JOIN ... ON condition references columns outside the join"
                )
            return self._combine(left, right, conjuncts, item.kind, outer_scope, level)
        raise PlanError(f"cannot plan FROM item {type(item).__name__}")

    def _combine(
        self,
        left: _Source,
        right: _Source,
        conjuncts: list[ast.Expression],
        kind: str,
        outer_scope: Optional[Scope],
        level: int,
    ) -> _Source:
        """Join two sources: a left column bound to a right one is a key,
        and :meth:`_access` picks how the right side is probed."""
        entries = left.entries + right.entries
        displays = left.displays + right.displays
        types = left.types + right.types
        scope = Scope(list(entries), outer_scope, level, list(types))

        def side(this: _Source, other: _Source) -> Callable[[ast.Expression], bool]:
            return lambda e: (
                isinstance(e, ast.ColumnRef)
                and _resolvable(e, this.entries)
                and not _resolvable(e, other.entries)
            )

        keys: list[_KeyEquality] = []
        if kind in ("inner", "left"):
            keys = _equalities(
                conjuncts,
                side(right, left),
                side(left, right),
                right.scope(outer_scope, level),
                left.scope(outer_scope, level),
            )
        if not keys:
            predicate = self._predicate(conjuncts, scope)
            join_kind = kind if kind != "inner" or predicate else "cross"
            node: plan.PlanNode = plan.NestedLoopJoin(
                left.node, right.node, predicate, join_kind
            )
            return _Source(node, entries, displays, types)
        partner, served = self._access(right, [inner for _c, inner, _o in keys])
        used = [keys[i] for i in served]
        positions = [cast(int, left.column(outer)) for _c, _i, outer in used]
        residual = [c for c in conjuncts if c not in [k[0] for k in used]]
        predicate = self._predicate(residual, scope)
        node = plan.HashJoin(left.node, partner, positions, predicate, kind)
        return _Source(node, entries, displays, types)

    # ------------------------------------------------------------ aggregates

    def _plan_aggregate(
        self,
        node: plan.PlanNode,
        from_scope: Scope,
        core: ast.SelectCore,
        select_items: list[ast.SelectItem],
        aggregate_calls: list[ast.FunctionCall],
        level: int,
    ) -> tuple[plan.PlanNode, list[tuple[Optional[str], str]], list[str]]:
        compiler = self._compiler(from_scope)

        group_canon: list[ast.Expression] = []
        group_evaluators: list[Evaluator] = []
        for key_expr in core.group_by:
            group_canon.append(self._canonicalize(key_expr, from_scope))
            group_evaluators.append(compiler.compile(key_expr))

        agg_canon: list[ast.Expression] = []
        agg_specs: list[plan.AggregateSpec] = []
        for call in aggregate_calls:
            canon = self._canonicalize(call, from_scope)
            if canon in agg_canon:
                continue
            agg_canon.append(canon)
            if call.star:
                agg_specs.append(("COUNT", False, None))
            else:
                if len(call.args) != 1:
                    raise PlanError(
                        f"aggregate {call.name} expects exactly one argument"
                    )
                agg_specs.append(
                    (call.name, call.distinct, compiler.compile(call.args[0]))
                )

        node = plan.Aggregate(node, group_evaluators, agg_specs)

        # Scope over the aggregate output: synthetic, unambiguous names.
        post_entries: list[tuple[Optional[str], str]] = []
        for index in range(len(group_canon)):
            post_entries.append((None, f"#key{index}"))
        for index in range(len(agg_canon)):
            post_entries.append((None, f"#agg{index}"))
        post_scope = Scope(post_entries, from_scope.parent, level)
        post_compiler = self._compiler(post_scope)

        rewritten_items = [
            ast.SelectItem(
                self._rewrite_post_aggregate(
                    item.expr, from_scope, group_canon, agg_canon
                ),
                item.alias,
            )
            for item in select_items
        ]
        evaluators = [post_compiler.compile(item.expr) for item in rewritten_items]

        if core.having is not None:
            having_expr = self._rewrite_post_aggregate(
                core.having, from_scope, group_canon, agg_canon
            )
            node = plan.Filter(node, post_compiler.compile_predicate(having_expr))

        node = plan.Project(node, evaluators)
        entries, displays = self._output_columns(select_items, from_scope)
        return node, entries, displays

    def _canonicalize(self, expr: ast.Expression, scope: Scope) -> ast.Expression:
        """Replace column refs with resolved positions for structural matching."""

        def transform(node: ast.Expression) -> ast.Expression:
            if isinstance(node, ast.ColumnRef):
                depth, index = scope.resolve(node.table, node.name)
                return ast.ColumnRef("#resolved", f"{scope.level - depth}:{index}")
            return ast.map_children(node, transform)

        return transform(expr)

    def _rewrite_post_aggregate(
        self,
        expr: ast.Expression,
        from_scope: Scope,
        group_canon: list[ast.Expression],
        agg_canon: list[ast.Expression],
    ) -> ast.Expression:
        """Rewrite an expression to refer to aggregate-output slots."""

        def transform(node: ast.Expression) -> ast.Expression:
            if isinstance(node, (ast.Exists, ast.InSubquery)):
                raise PlanError("subqueries are not supported in grouped SELECT lists")
            canon = self._canonicalize(node, from_scope)
            if canon in group_canon:
                return ast.ColumnRef(None, f"#key{group_canon.index(canon)}")
            if isinstance(node, ast.FunctionCall) and (
                node.star or functions.is_aggregate_function(node.name)
            ):
                if canon in agg_canon:
                    return ast.ColumnRef(None, f"#agg{agg_canon.index(canon)}")
                raise PlanError(  # pragma: no cover
                    f"aggregate {node.name} not collected"
                )
            if isinstance(node, ast.ColumnRef):
                raise PlanError(
                    f"column {node} must appear in GROUP BY or inside an aggregate"
                )
            return ast.map_children(node, transform)

        return transform(expr)

    # --------------------------------------------------------------- helpers

    def _expand_stars(
        self,
        items: Sequence[Union[ast.SelectItem, ast.Star]],
        source: _Source,
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if isinstance(item, ast.SelectItem):
                expanded.append(item)
                continue
            matched = False
            for (binding, column), display in zip(source.entries, source.displays):
                if column != TID and (
                    item.table is None or binding == item.table.lower()
                ):
                    matched = True
                    expanded.append(
                        ast.SelectItem(ast.ColumnRef(binding, column), display)
                    )
            if not matched:
                raise PlanError(
                    f"* expansion failed: no columns for {item.table or 'FROM'!r}"
                )
        return expanded

    @staticmethod
    def _output_columns(
        select_items: Sequence[ast.SelectItem], from_scope: Scope
    ) -> tuple[list[tuple[Optional[str], str]], list[str]]:
        """Output scope entries + display names of a select list.

        A bare column keeps the binding of the FROM source it resolved
        to (however the select list spelled it), so ORDER BY may qualify
        it; aliased and computed items are addressable by name only.
        """
        entries: list[tuple[Optional[str], str]] = []
        displays: list[str] = []
        for index, item in enumerate(select_items):
            binding = None
            if item.alias:
                name = item.alias
            elif isinstance(item.expr, ast.ColumnRef):
                name = item.expr.name
                depth, slot = from_scope.resolve(item.expr.table, name)
                scope = from_scope
                for _ in range(depth):
                    scope = scope.parent  # type: ignore[assignment]
                binding = scope.entries[slot][0]
            else:
                name = f"col{index}"
            entries.append((binding, name.lower()))
            displays.append(name)
        return entries, displays

    # ------------------------------------------------------------ subqueries

    def _compiler(self, scope: Scope) -> ExpressionCompiler:
        def capture_hook(depth: int, index: int) -> None:
            level = scope.level - depth
            for site_level, collector in self._collectors:
                if level <= site_level:
                    collector.add((level, index))

        return ExpressionCompiler(scope, self._plan_subquery, capture_hook)

    def _plan_subquery(
        self, query: ast.Query, site_scope: Scope
    ) -> Union[_Subplan, _DecorrelatedSubplan]:
        decorrelated = self._try_decorrelate(query, site_scope)
        if decorrelated is not None:
            return decorrelated
        collector: set[tuple[int, int]] = set()
        self._collectors.append((site_scope.level, collector))
        try:
            planned = self.plan_query(query, outer_scope=site_scope)
        finally:
            self._collectors.pop()
        # Propagate captures that also escape enclosing subqueries.
        for level, index in collector:
            for outer_level, outer_collector in self._collectors:
                if level <= outer_level:
                    outer_collector.add((level, index))
        return _Subplan(planned, sorted(collector), site_scope.level, self.stats)

    # -------------------------------------------------- EXISTS decorrelation

    def _try_decorrelate(
        self, query: ast.Query, site_scope: Scope
    ) -> Optional[_DecorrelatedSubplan]:
        """Decorrelate a subquery into a keyed probe of its partner, if possible.

        Returns None (and lets the generic memoized path handle the query)
        whenever the shape does not match: set operations, grouping,
        ORDER BY / LIMIT, derived tables, outer joins, or no equality
        conjunct binding an inner expression to an outer column.
        """
        body = query.body
        if (
            not isinstance(body, ast.SelectCore)
            or body.group_by
            or body.having
            or query.order_by
            or query.limit is not None
            or query.offset is not None
        ):
            return None
        flat = _flat_from(body.from_items)
        if flat is None or not flat[0]:
            return None
        tables, on = flat
        if not all(self.catalog.has_table(t.name) for t in tables):
            return None
        schemas = [(t.binding, self.catalog.table(t.name).schema) for t in tables]
        probe = Scope(
            [e for b, schema in schemas for e in bound_entries(b, schema.column_names)],
            types=[c.sql_type for _b, schema in schemas for c in schema.columns],
        )

        def resolves_locally(ref: ast.ColumnRef) -> bool:
            try:
                probe.resolve(ref.table, ref.name)
                return True
            except PlanError as exc:
                # A locally-ambiguous reference is still "local": letting
                # the normal compilation path report the ambiguity beats
                # silently capturing an outer column of the same name.
                return "ambiguous" in str(exc)

        def is_local(expr: ast.Expression) -> bool:
            return all(resolves_locally(ref) for ref in ast.column_refs(expr))

        conjuncts = ast.split_conjuncts(body.where) + on
        keys = _equalities(
            conjuncts,
            lambda e: is_local(e) and not ast.contains_subquery(e),
            lambda e: isinstance(e, ast.ColumnRef) and not resolves_locally(e),
            probe,
            site_scope,
        )
        if not keys:
            return None
        local = [c for c in conjuncts if is_local(c) and not ast.contains_subquery(c)]
        first = body.items[0]  # the value column of an IN subquery
        if isinstance(first, ast.Star):
            value_expr: ast.Expression = ast.ColumnRef(*probe.entries[0])
        else:
            value_expr = first.expr
        try:
            # The keys first: they are what fails, cheaply, when the site
            # cannot see the outer columns (see _semi_join).
            site_compiler = self._compiler(site_scope)
            outer_keys = [site_compiler.compile(outer) for _c, _i, outer in keys]
            # The rest is planned once, uncorrelated, as one source.
            source, leftovers, _late = self._plan_from_list(tables, local, [], None, 0)
            self._filter(source, leftovers, None, 0)
            partner, served = self._access(source, [k[1] for k in keys])
            used = [keys[i][0] for i in served]
            correlated = [c for c in conjuncts if c not in local and c not in used]
            local_scope = source.scope(site_scope, site_scope.level + 1)
            residual = self._predicate(correlated, local_scope)
            value_evaluator = self._compiler(local_scope).compile(value_expr)
            value_type = local_scope.declared_type(value_expr)
        except PlanError:
            return None  # oddly-shaped subquery: the generic path handles it
        return _DecorrelatedSubplan(
            partner,
            [outer_keys[i] for i in served],
            residual,
            value_evaluator,
            value_type,
            self.stats,
        )
