"""Abstract syntax trees for the SQL dialect.

The same expression nodes are used by three layers:

* the SQL parser produces them,
* the relational-algebra layer embeds them as selection conditions, and
* the engine's expression compiler turns them into evaluators.

All nodes are dataclasses with structural equality, which the planner
relies on to match GROUP BY expressions and to deduplicate aggregate
calls, and which the CQA grounding step relies on to compare conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, Iterator, Optional, Sequence, Union

from repro.engine.types import SQLValue


class Node:
    """Marker base class for all AST nodes."""


class Expression(Node):
    """Marker base class for scalar expressions."""


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal(Expression):
    """A constant: number, string, boolean or NULL."""

    value: SQLValue


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A (possibly qualified) column reference, e.g. ``r.a`` or ``a``."""

    table: Optional[str]
    name: str

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class BinaryOp(Expression):
    """A binary operator application.

    ``op`` is one of: ``= <> < <= > >= + - * / % || AND OR``.
    """

    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class UnaryOp(Expression):
    """A unary operator application; ``op`` is ``NOT`` or ``-`` or ``+``."""

    op: str
    operand: Expression


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A function call; covers both scalar and aggregate functions.

    ``star`` marks ``COUNT(*)``.
    """

    name: str
    args: tuple[Expression, ...] = ()
    distinct: bool = False
    star: bool = False


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (item, ...)``."""

    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False


@dataclass(frozen=True)
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass(frozen=True)
class Like(Expression):
    """``expr [NOT] LIKE pattern`` (pattern must be a string expression)."""

    operand: Expression
    pattern: Expression
    negated: bool = False


@dataclass(frozen=True)
class Exists(Expression):
    """``[NOT] EXISTS (subquery)``; the workhorse of the rewriting baseline."""

    query: "Query"
    negated: bool = False


@dataclass(frozen=True)
class InSubquery(Expression):
    """``expr [NOT] IN (subquery)``."""

    operand: Expression
    query: "Query"
    negated: bool = False


@dataclass(frozen=True)
class Case(Expression):
    """``CASE [operand] WHEN .. THEN .. [ELSE ..] END``."""

    operand: Optional[Expression]
    whens: tuple[tuple[Expression, Expression], ...]
    else_: Optional[Expression] = None


# --------------------------------------------------------------------------
# FROM clause
# --------------------------------------------------------------------------


class FromItem(Node):
    """Marker base class for FROM-clause items."""


@dataclass(frozen=True)
class TableRef(FromItem):
    """A base-table reference with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this table is visible under in the query scope."""
        return self.alias or self.name


@dataclass(frozen=True)
class DerivedTable(FromItem):
    """A subquery in FROM: ``(SELECT ...) alias``."""

    query: "Query"
    alias: str


@dataclass(frozen=True)
class Join(FromItem):
    """An explicit join.  ``kind`` is ``inner``, ``cross`` or ``left``."""

    left: FromItem
    right: FromItem
    kind: str = "inner"
    on: Optional[Expression] = None


# --------------------------------------------------------------------------
# SELECT
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem(Node):
    """One item of the select list: an expression with an optional alias."""

    expr: Expression
    alias: Optional[str] = None


@dataclass(frozen=True)
class Star(Node):
    """``*`` or ``alias.*`` in a select list."""

    table: Optional[str] = None


@dataclass(frozen=True)
class SelectCore(Node):
    """A single SELECT block (no set operations, ORDER BY or LIMIT)."""

    items: tuple[Union[SelectItem, Star], ...]
    from_items: tuple[FromItem, ...] = ()
    where: Optional[Expression] = None
    group_by: tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    distinct: bool = False


@dataclass(frozen=True)
class SetOperation(Node):
    """``left UNION [ALL] | EXCEPT | INTERSECT right``."""

    op: str  # 'union' | 'except' | 'intersect'
    left: Union[SelectCore, "SetOperation"]
    right: Union[SelectCore, "SetOperation"]
    all: bool = False


@dataclass(frozen=True)
class OrderItem(Node):
    """One ORDER BY key."""

    expr: Expression
    ascending: bool = True


@dataclass(frozen=True)
class Query(Node):
    """A full query: body plus ORDER BY / LIMIT / OFFSET."""

    body: Union[SelectCore, SetOperation]
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None


# --------------------------------------------------------------------------
# DDL / DML statements
# --------------------------------------------------------------------------


class Statement(Node):
    """Marker base class for executable statements."""


@dataclass(frozen=True)
class ColumnDef(Node):
    """A column definition inside CREATE TABLE."""

    name: str
    type_name: str
    not_null: bool = False
    primary_key: bool = False


@dataclass(frozen=True)
class CreateTable(Statement):
    """``CREATE TABLE name (...)``."""

    name: str
    columns: tuple[ColumnDef, ...]
    primary_key: tuple[str, ...] = ()
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropTable(Statement):
    """``DROP TABLE [IF EXISTS] name``."""

    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class CreateIndex(Statement):
    """``CREATE INDEX name ON table (col, ...)``."""

    name: str
    table: str
    columns: tuple[str, ...]
    if_not_exists: bool = False


@dataclass(frozen=True)
class Insert(Statement):
    """``INSERT INTO name [(cols)] VALUES (...), (...)``."""

    table: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Expression, ...], ...]


@dataclass(frozen=True)
class Delete(Statement):
    """``DELETE FROM name [WHERE ...]``."""

    table: str
    where: Optional[Expression] = None


@dataclass(frozen=True)
class Update(Statement):
    """``UPDATE name SET col = expr, ... [WHERE ...]``."""

    table: str
    assignments: tuple[tuple[str, Expression], ...]
    where: Optional[Expression] = None


@dataclass(frozen=True)
class SelectStatement(Statement):
    """A top-level query statement."""

    query: Query


# --------------------------------------------------------------------------
# Small helpers used across the code base
# --------------------------------------------------------------------------


def conjunction(conjuncts: Sequence[Expression]) -> Optional[Expression]:
    """AND together a sequence of expressions (None for an empty sequence)."""
    result: Optional[Expression] = None
    for conjunct in conjuncts:
        result = conjunct if result is None else BinaryOp("AND", result, conjunct)
    return result


def split_conjuncts(expr: Optional[Expression]) -> list[Expression]:
    """Split an expression into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def walk_expressions(node: Node) -> Iterator[Node]:
    """Yield every descendant node (including ``node``), skipping subqueries."""
    yield node
    for field_info in fields(node):  # type: ignore[arg-type]
        value = getattr(node, field_info.name)
        if isinstance(value, Query):
            continue
        if isinstance(value, Node):
            yield from walk_expressions(value)
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, Node):
                    yield from walk_expressions(item)
                elif isinstance(item, tuple):
                    for sub in item:
                        if isinstance(sub, Node):
                            yield from walk_expressions(sub)


def map_children(
    node: Expression,
    transform: Callable[[Expression], Expression],
) -> Expression:
    """``node`` rebuilt with ``transform`` applied to each child expression
    (nested subqueries are not entered)."""
    updates = {}
    for field_info in fields(node):  # type: ignore[arg-type]
        value = getattr(node, field_info.name)
        if isinstance(value, Expression):
            updates[field_info.name] = transform(value)
        elif (
            isinstance(value, tuple)
            and value
            and isinstance(value[0], Expression)
        ):
            updates[field_info.name] = tuple(transform(item) for item in value)
        elif (
            isinstance(value, tuple)
            and value
            and isinstance(value[0], tuple)
        ):
            updates[field_info.name] = tuple(
                tuple(transform(sub) for sub in item) for item in value
            )
    return replace(node, **updates) if updates else node


def column_refs(expr: Expression) -> list[ColumnRef]:
    """All column references in ``expr``, outside of nested subqueries."""
    return [node for node in walk_expressions(expr) if isinstance(node, ColumnRef)]


def contains_subquery(expr: Expression) -> bool:
    """Whether ``expr`` contains an EXISTS / IN-subquery node."""
    return any(
        isinstance(node, (Exists, InSubquery))
        for node in walk_expressions(expr)
    )
