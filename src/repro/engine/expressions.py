"""Compilation of expression ASTs into Python evaluators.

An expression is compiled against a :class:`Scope` -- the ordered list of
columns visible at that point of the plan -- into a closure
``fn(env) -> value`` where ``env`` is a tuple of row tuples: ``env[0]`` is
the current row and ``env[k]`` is the row of the ``k``-th enclosing query
(used by correlated subqueries).

Subqueries (EXISTS / IN) are compiled through a ``SubqueryPlanner``
callback supplied by the planner, which keeps this module free of a
circular import.  Each compiled subquery records which *outer* slots it
captures, enabling a memo cache keyed on just those values -- our stand-in
for the RDBMS evaluating a correlated subquery efficiently (PostgreSQL
would use an index; the cache gives the rewriting baseline comparable
asymptotics so the benchmark comparison is fair rather than rigged).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Protocol

from repro.engine import functions
from repro.engine.types import (
    SQLType,
    SQLValue,
    canonical,
    comparable,
    compare_values,
    infer_type,
    logic_and,
    logic_not,
    logic_or,
)
from repro.errors import ExecutionError, PlanError, TypeError_
from repro.sql import ast
from repro.sql.formatter import format_expression

Env = tuple
Evaluator = Callable[[Env], SQLValue]

#: A predicate decided on the bare current row, without an environment:
#: True where the predicate is TRUE, False where it is FALSE or unknown.
#: Compiled predicates that have one carry it as ``row_test``.
RowTest = Callable[[tuple], bool]

#: A predicate decided on a subquery's row and the one row it is
#: correlated with, ``pair_test(inner, outer)`` -- the rows at depth 0 and
#: 1 -- without an environment, True only where the predicate is TRUE.
#: Compiled predicates that have one carry it as ``pair_test``.
PairTest = Callable[[tuple, tuple], bool]


def bound_entries(
    binding: Optional[str], columns: Iterable[str]
) -> list[tuple[Optional[str], str]]:
    """:class:`Scope` entries for ``columns`` reachable through ``binding``.

    The one place names are folded to the lower-case form
    :meth:`Scope.resolve` compares references against: every table name,
    alias and column enters a scope through here, so ``FROM t T`` /
    ``T.a`` resolve however either side was typed.
    """
    key = binding.lower() if binding else None
    return [(key, column.lower()) for column in columns]


@dataclass
class Scope:
    """Columns visible to an expression: ``(binding, column)`` pairs.

    ``binding`` is the table alias (lower-cased) the column is reachable
    through, or ``None`` for columns that are only addressable unqualified
    (e.g. computed aggregate slots).  ``parent`` chains to the enclosing
    query's scope for correlated references.  ``level`` is the absolute
    nesting depth (root query = 0); the planner uses it to translate
    scope-relative reference depths into absolute positions when keying
    correlated-subquery caches.  ``types``, when not empty, holds the
    declared type of each entry that is a stored column (None for the
    rest); the planner reads it through :meth:`declared_type`.
    """

    entries: list[tuple[Optional[str], str]] = field(default_factory=list)
    parent: Optional["Scope"] = None
    level: int = 0
    types: list[Optional[SQLType]] = field(default_factory=list)

    def resolve(self, table: Optional[str], name: str) -> tuple[int, int]:
        """Resolve a column reference to ``(depth, index)``.

        ``depth`` 0 is this scope; each parent adds 1.

        Raises:
            PlanError: if the reference is unknown or ambiguous.
        """
        table_key = table.lower() if table else None
        name_key = name.lower()
        depth = 0
        scope: Optional[Scope] = self
        while scope is not None:
            matches = [
                index
                for index, (binding, column) in enumerate(scope.entries)
                if column == name_key and (table_key is None or binding == table_key)
            ]
            if len(matches) == 1:
                return depth, matches[0]
            if len(matches) > 1:
                raise PlanError(
                    f"ambiguous column reference: {ast.ColumnRef(table, name)}"
                )
            scope = scope.parent
            depth += 1
        raise PlanError(f"unknown column: {ast.ColumnRef(table, name)}")

    def declared_type(self, expr: ast.Expression) -> Optional[SQLType]:
        """The declared type of the stored column ``expr`` names, a
        literal's own, or BOOLEAN for a predicate (a comparison, AND / OR
        / NOT, IS NULL, IN, EXISTS, BETWEEN, LIKE); None for anything
        else, NULL, or an unknown type."""
        if isinstance(expr, ast.Literal):
            return infer_type(expr.value)
        if isinstance(expr, _PREDICATES) or (
            isinstance(expr, (ast.BinaryOp, ast.UnaryOp))
            and expr.op in _LOGICAL
        ):
            return SQLType.BOOLEAN
        if not isinstance(expr, ast.ColumnRef):
            return None
        try:
            depth, index = self.resolve(expr.table, expr.name)
        except PlanError:
            return None
        scope = self
        for _ in range(depth):
            scope = scope.parent  # type: ignore[assignment]
        return scope.types[index] if scope.types else None

    def width(self) -> int:
        """Number of slots in this scope."""
        return len(self.entries)


class CompiledSubquery(Protocol):
    """What the planner returns when asked to compile a nested query."""

    #: The first output column's :meth:`Scope.declared_type`.
    first_type: Optional[SQLType]

    def first_column_values(self, env: Env) -> list[SQLValue]:
        """Evaluate the subquery, returning its first output column."""

    def has_rows(self, env: Env) -> bool:
        """Evaluate the subquery, returning whether any row exists."""


SubqueryPlanner = Callable[[ast.Query, Scope], CompiledSubquery]


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Translate a SQL LIKE pattern (``%``, ``_``) to an anchored regex."""
    out = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


_ARITHMETIC = {"+", "-", "*", "/", "%"}

#: Each comparison operator as the test it applies to two operands of one
#: exact type, or to :func:`compare_values`' result against 0.
_COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Operators whose result is a truth value.
_LOGICAL = frozenset(_COMPARISONS) | {"AND", "OR", "NOT"}

#: Expression nodes whose result is a truth value.
_PREDICATES = (
    ast.IsNull,
    ast.InList,
    ast.InSubquery,
    ast.Exists,
    ast.Between,
    ast.Like,
)

#: ``a op b`` is ``b mirror[op] a``.
_MIRRORED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: Python types whose own order and equality are SQL's between two values
#: of that one type (float is not: NaN is unordered in Python).
_EXACT = frozenset({int, str, bool})

#: Declared types whose non-NULL values are all of one :data:`_EXACT`
#: Python type (:func:`~repro.engine.types.coerce_value` stores nothing
#: else in such a column); REAL is not one.
_STORED_AS = {SQLType.INTEGER: int, SQLType.TEXT: str, SQLType.BOOLEAN: bool}

#: ``row[i] op c`` as a :data:`RowTest`, for a column holding only
#: ``type(c)`` or NULL: NULL is never TRUE, other values compare natively.
_ROW_TESTS: dict[str, Callable[[int, SQLValue], RowTest]] = {
    "=": lambda i, c: lambda row: (v := row[i]) is not None and v == c,
    "<>": lambda i, c: lambda row: (v := row[i]) is not None and v != c,
    "<": lambda i, c: lambda row: (v := row[i]) is not None and v < c,
    "<=": lambda i, c: lambda row: (v := row[i]) is not None and v <= c,
    ">": lambda i, c: lambda row: (v := row[i]) is not None and v > c,
    ">=": lambda i, c: lambda row: (v := row[i]) is not None and v >= c,
}


#: ``row[i] op row[j]`` as a :data:`RowTest`, and ``inner[i] op outer[j]``
#: as a :data:`PairTest`, for two columns holding only one :data:`_EXACT`
#: type or NULL.
_COLUMN_TESTS: dict[str, Callable[[int, int], RowTest]] = {
    "=": lambda i, j: lambda row: (
        (a := row[i]) is not None and (b := row[j]) is not None and a == b
    ),
    "<>": lambda i, j: lambda row: (
        (a := row[i]) is not None and (b := row[j]) is not None and a != b
    ),
    "<": lambda i, j: lambda row: (
        (a := row[i]) is not None and (b := row[j]) is not None and a < b
    ),
    "<=": lambda i, j: lambda row: (
        (a := row[i]) is not None and (b := row[j]) is not None and a <= b
    ),
    ">": lambda i, j: lambda row: (
        (a := row[i]) is not None and (b := row[j]) is not None and a > b
    ),
    ">=": lambda i, j: lambda row: (
        (a := row[i]) is not None and (b := row[j]) is not None and a >= b
    ),
}
_PAIR_TESTS: dict[str, Callable[[int, int], PairTest]] = {
    "=": lambda i, j: lambda inner, outer: (
        (a := inner[i]) is not None and (b := outer[j]) is not None and a == b
    ),
    "<>": lambda i, j: lambda inner, outer: (
        (a := inner[i]) is not None and (b := outer[j]) is not None and a != b
    ),
    "<": lambda i, j: lambda inner, outer: (
        (a := inner[i]) is not None and (b := outer[j]) is not None and a < b
    ),
    "<=": lambda i, j: lambda inner, outer: (
        (a := inner[i]) is not None and (b := outer[j]) is not None and a <= b
    ),
    ">": lambda i, j: lambda inner, outer: (
        (a := inner[i]) is not None and (b := outer[j]) is not None and a > b
    ),
    ">=": lambda i, j: lambda inner, outer: (
        (a := inner[i]) is not None and (b := outer[j]) is not None and a >= b
    ),
}


def _conjoin_tests(target: Evaluator, first: Evaluator, second: Evaluator) -> None:
    """Give ``target``, which is ``first AND second``, the row test and the
    pair test that both operands carry."""
    left = getattr(first, "row_test", None)
    right = getattr(second, "row_test", None)
    if left is not None and right is not None:
        target.row_test = lambda row: (  # type: ignore[attr-defined]
            left(row) and right(row)
        )
    pair_left = getattr(first, "pair_test", None)
    pair_right = getattr(second, "pair_test", None)
    if pair_left is not None and pair_right is not None:
        target.pair_test = lambda inner, outer: (  # type: ignore[attr-defined]
            pair_left(inner, outer) and pair_right(inner, outer)
        )


def _require_number(value: SQLValue, op: str) -> float | int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError_(f"operator {op} expects numeric operands, got {value!r}")
    return value


def _apply_arithmetic(op: str, left: SQLValue, right: SQLValue) -> SQLValue:
    if left is None or right is None:
        return None
    lhs = _require_number(left, op)
    rhs = _require_number(right, op)
    if op == "+":
        return canonical(lhs + rhs)
    if op == "-":
        return canonical(lhs - rhs)
    if op == "*":
        return canonical(lhs * rhs)
    if op == "/":
        if rhs == 0:
            raise ExecutionError("division by zero")
        # SQL integer division truncates toward zero; mixed types promote.
        if isinstance(lhs, int) and isinstance(rhs, int):
            quotient = abs(lhs) // abs(rhs)
            return quotient if (lhs >= 0) == (rhs >= 0) else -quotient
        return canonical(lhs / rhs)
    if op == "%":
        if rhs == 0:
            raise ExecutionError("modulo by zero")
        if isinstance(lhs, int) and isinstance(rhs, int):
            remainder = abs(lhs) % abs(rhs)
            return remainder if lhs >= 0 else -remainder
        raise TypeError_("% expects INTEGER operands")
    raise AssertionError(op)


class ExpressionCompiler:
    """Compiles :mod:`repro.sql.ast` expressions into evaluators.

    Attributes:
        scope: the scope expressions are resolved against.
        subquery_planner: callback for EXISTS / IN subqueries (optional;
            compiling a subquery without one raises :class:`PlanError`).
        outer_captures: ``(depth, index)`` pairs, relative to this
            compiler's scope, of every reference that escaped to an
            enclosing scope.  The planner uses this to key subquery caches.
    """

    def __init__(
        self,
        scope: Scope,
        subquery_planner: Optional[SubqueryPlanner] = None,
        capture_hook: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.scope = scope
        self.subquery_planner = subquery_planner
        self.capture_hook = capture_hook
        self.outer_captures: set[tuple[int, int]] = set()

    # ------------------------------------------------------------- dispatch

    def compile(self, expr: ast.Expression) -> Evaluator:
        """Compile ``expr`` to a closure ``fn(env) -> value``."""
        method = getattr(self, "_compile_" + type(expr).__name__, None)
        if method is None:
            raise PlanError(f"cannot compile expression node {type(expr).__name__}")
        return method(expr)

    def compile_predicate(self, expr: ast.Expression) -> Callable[[Env], bool]:
        """Compile a condition; the result maps 3-valued output to bool
        (and keeps the condition's :data:`RowTest` and :data:`PairTest`,
        if it has them)."""
        evaluator = self.compile(expr)

        def predicate(env: Env) -> bool:
            return evaluator(env) is True

        for name in ("row_test", "pair_test"):
            test = getattr(evaluator, name, None)
            if test is not None:
                setattr(predicate, name, test)
        return predicate

    # ----------------------------------------------------------- leaf nodes

    def _compile_Literal(self, expr: ast.Literal) -> Evaluator:
        value = canonical(expr.value)
        return lambda env: value

    def _compile_ColumnRef(self, expr: ast.ColumnRef) -> Evaluator:
        depth, index = self.scope.resolve(expr.table, expr.name)
        if depth > 0:
            self.outer_captures.add((depth, index))
            if self.capture_hook is not None:
                self.capture_hook(depth, index)

            def outer_ref(env: Env) -> SQLValue:
                return env[depth][index]

            return outer_ref

        def local_ref(env: Env) -> SQLValue:
            return env[0][index]

        # A plain column pick: Project maps rows of these with one itemgetter.
        local_ref.column_index = index  # type: ignore[attr-defined]
        return local_ref

    # ------------------------------------------------------------ operators

    def _compile_BinaryOp(self, expr: ast.BinaryOp) -> Evaluator:
        op = expr.op
        if op in _COMPARISONS:
            return self._compile_comparison(op, expr.left, expr.right)
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        if op in ("AND", "OR"):
            # A deciding left operand (FALSE for AND, TRUE for OR) skips the right.
            decides = op == "OR"
            kleene = logic_or if decides else logic_and

            def connective(env: Env) -> Optional[bool]:
                lhs = _as_bool(left(env))
                return lhs if lhs is decides else kleene(lhs, _as_bool(right(env)))

            if op == "AND":
                _conjoin_tests(connective, left, right)
            return connective
        if op in _ARITHMETIC:
            return lambda env: _apply_arithmetic(op, left(env), right(env))
        if op == "||":

            def concat(env: Env) -> SQLValue:
                lhs, rhs = left(env), right(env)
                if lhs is None or rhs is None:
                    return None
                if not isinstance(lhs, str) or not isinstance(rhs, str):
                    raise TypeError_("|| expects TEXT operands")
                return lhs + rhs

            return concat
        raise PlanError(f"unknown binary operator {op!r}")

    def _compile_comparison(
        self, op: str, left_expr: ast.Expression, right_expr: ast.Expression
    ) -> Evaluator:
        """``left op right``, the operator picked once, here.

        Two values of one exact type compare natively; anything else --
        NULL, REAL, mixed numerics, incomparable types -- goes through
        :func:`compare_values`, which owns the rule (and raises).  A
        literal operand is moved to the right and captured as a constant.
        Known types that do not compare raise here (:meth:`_check_comparable`).

        When the other operand is a local column declared with exactly the
        constant's type (INTEGER / int, TEXT / str, BOOLEAN / bool), the
        comparison also carries a :data:`RowTest`, ``row[i] is not None
        and row[i] op c``: such a column stores only that type or NULL, so
        the per-row type dispatch could never pick another branch.  Two
        columns declared with types stored as one such Python type carry
        the same test over both (:meth:`_attach_column_tests`).
        """
        self._check_comparable(
            left_expr, right_expr, self.scope.declared_type(right_expr)
        )
        if isinstance(left_expr, ast.Literal) and not isinstance(
            right_expr, ast.Literal
        ):
            op, left_expr, right_expr = _MIRRORED[op], right_expr, left_expr
        test = _COMPARISONS[op]
        left = self.compile(left_expr)
        if isinstance(right_expr, ast.Literal) and type(right_expr.value) in _EXACT:
            value = right_expr.value
            kind = type(value)

            def compare_constant(env: Env) -> Optional[bool]:
                lhs = left(env)
                if type(lhs) is kind:
                    return test(lhs, value)
                if lhs is None:
                    return None
                return test(compare_values(lhs, value), 0)

            index = getattr(left, "column_index", None)
            declared = self.scope.declared_type(left_expr)
            if index is not None and declared and _STORED_AS.get(declared) is kind:
                row_test = _ROW_TESTS[op](index, value)
                compare_constant.row_test = row_test  # type: ignore[attr-defined]
            return compare_constant
        right = self.compile(right_expr)

        def compare(env: Env) -> Optional[bool]:
            lhs = left(env)
            rhs = right(env)
            kind = type(lhs)
            if kind is type(rhs) and kind in _EXACT:
                return test(lhs, rhs)
            if lhs is None or rhs is None:
                return None
            return test(compare_values(lhs, rhs), 0)

        self._attach_column_tests(compare, op, left_expr, right_expr)
        return compare

    def _attach_column_tests(
        self,
        compare: Evaluator,
        op: str,
        left_expr: ast.Expression,
        right_expr: ast.Expression,
    ) -> None:
        """Give ``compare`` (``left op right``) the test that decides it
        without dispatch, when both operands are columns whose declared
        types are stored as one :data:`_EXACT` Python type (INTEGER /
        INTEGER, TEXT / TEXT, BOOLEAN / BOOLEAN; never REAL, mixed numbers
        or an unknown type):

        * two columns of the current row: a :data:`RowTest`, ``row[i] op
          row[j]`` where neither is NULL (one column compared with itself
          keeps the interpreted form);
        * one column of the current row and one of the row the query is
          correlated with: a :data:`PairTest`, ``inner[i] op outer[j]``
          where neither is NULL.

        Sound for the reason the constant's row test is: such columns
        store only that type or NULL, so the interpreted comparison could
        only take its native branch, or return NULL (never TRUE)."""
        if not (
            isinstance(left_expr, ast.ColumnRef)
            and isinstance(right_expr, ast.ColumnRef)
        ):
            return
        left_kind, right_kind = (
            _STORED_AS.get(declared) if declared else None
            for declared in map(self.scope.declared_type, (left_expr, right_expr))
        )
        if left_kind is None or left_kind is not right_kind:
            return
        (depth, i), (other, j) = (
            self.scope.resolve(ref.table, ref.name) for ref in (left_expr, right_expr)
        )
        if depth > other:
            op, depth, i, other, j = _MIRRORED[op], other, j, depth, i
        if (depth, other) == (0, 0) and i != j:
            compare.row_test = _COLUMN_TESTS[op](i, j)  # type: ignore[attr-defined]
        elif (depth, other) == (0, 1):
            compare.pair_test = _PAIR_TESTS[op](i, j)  # type: ignore[attr-defined]

    def _check_comparable(
        self,
        left: ast.Expression,
        right: ast.Expression,
        right_type: Optional[SQLType],
    ) -> None:
        """Raise :func:`compare_values`' error before any row is read when
        both operands' types are known (the left's
        :meth:`Scope.declared_type`; ``right_type`` is the right's, or an
        ``IN`` subquery's first column's) and do not compare; values of
        unknown types are checked per row."""
        left_type = self.scope.declared_type(left)
        if left_type and right_type and not comparable(left_type, right_type):
            raise TypeError_(
                f"cannot compare {left_type} with {right_type}"
                f" ({format_expression(left)} vs {format_expression(right)})"
            )

    def _compile_UnaryOp(self, expr: ast.UnaryOp) -> Evaluator:
        operand = self.compile(expr.operand)
        if expr.op == "NOT":
            return lambda env: logic_not(_as_bool(operand(env)))
        if expr.op == "-":

            def negate(env: Env) -> SQLValue:
                value = operand(env)
                if value is None:
                    return None
                return canonical(-_require_number(value, "-"))

            return negate
        if expr.op == "+":
            return operand
        raise PlanError(f"unknown unary operator {expr.op!r}")

    def _compile_IsNull(self, expr: ast.IsNull) -> Evaluator:
        operand = self.compile(expr.operand)
        if expr.negated:
            return lambda env: operand(env) is not None
        return lambda env: operand(env) is None

    def _compile_InList(self, expr: ast.InList) -> Evaluator:
        for item in expr.items:
            self._check_comparable(expr.operand, item, self.scope.declared_type(item))
        operand = self.compile(expr.operand)
        items = [self.compile(item) for item in expr.items]
        negated = expr.negated

        def contains(env: Env) -> Optional[bool]:
            needle = operand(env)
            if needle is None:
                return None
            saw_null = False
            for item in items:
                value = item(env)
                if value is None:
                    saw_null = True
                    continue
                if compare_values(needle, value) == 0:
                    return logic_not(True) if negated else True
            if saw_null:
                return None
            return logic_not(False) if negated else False

        return contains

    def _compile_Between(self, expr: ast.Between) -> Evaluator:
        above = self._compile_comparison(">=", expr.operand, expr.low)
        below = self._compile_comparison("<=", expr.operand, expr.high)
        negated = expr.negated

        def between(env: Env) -> Optional[bool]:
            result = logic_and(above(env), below(env))
            return logic_not(result) if negated else result

        if not negated:
            _conjoin_tests(between, above, below)
        return between

    def _compile_Like(self, expr: ast.Like) -> Evaluator:
        operand = self.compile(expr.operand)
        pattern = self.compile(expr.pattern)
        negated = expr.negated
        cache: dict[str, re.Pattern[str]] = {}

        def like(env: Env) -> Optional[bool]:
            value = operand(env)
            pat = pattern(env)
            if value is None or pat is None:
                return None
            if not isinstance(value, str) or not isinstance(pat, str):
                raise TypeError_("LIKE expects TEXT operands")
            regex = cache.get(pat)
            if regex is None:
                regex = like_to_regex(pat)
                cache[pat] = regex
            matched = regex.match(value) is not None
            return (not matched) if negated else matched

        return like

    def _compile_Case(self, expr: ast.Case) -> Evaluator:
        operand = self.compile(expr.operand) if expr.operand is not None else None
        whens = [
            (self.compile(cond), self.compile(result))
            for cond, result in expr.whens
        ]
        else_ = self.compile(expr.else_) if expr.else_ is not None else None

        def case(env: Env) -> SQLValue:
            if operand is not None:
                subject = operand(env)
                for condition, result in whens:
                    if (
                        subject is not None
                        and compare_values(subject, condition(env)) == 0
                    ):
                        return result(env)
            else:
                for condition, result in whens:
                    if _as_bool(condition(env)) is True:
                        return result(env)
            return else_(env) if else_ is not None else None

        return case

    def _compile_FunctionCall(self, expr: ast.FunctionCall) -> Evaluator:
        if functions.is_aggregate_function(expr.name):
            raise PlanError(
                f"aggregate function {expr.name} is not allowed here"
                " (only in SELECT list / HAVING of a grouped query)"
            )
        args = [self.compile(arg) for arg in expr.args]
        name = expr.name

        def call(env: Env) -> SQLValue:
            return functions.call_scalar(name, [arg(env) for arg in args])

        return call

    # ------------------------------------------------------------ subqueries

    def _subquery(self, query: ast.Query) -> tuple[CompiledSubquery, Evaluator]:
        if self.subquery_planner is None:
            raise PlanError("subqueries are not allowed in this context")
        subcompiler_scope = self.scope  # the subquery sees us as its parent
        compiled = self.subquery_planner(query, subcompiler_scope)
        return compiled, lambda env: None

    def _compile_Exists(self, expr: ast.Exists) -> Evaluator:
        compiled, _ = self._subquery(expr.query)
        negated = expr.negated

        def exists(env: Env) -> bool:
            found = compiled.has_rows(env)
            return (not found) if negated else found

        return exists

    def _compile_InSubquery(self, expr: ast.InSubquery) -> Evaluator:
        compiled, _ = self._subquery(expr.query)
        self._check_comparable(expr.operand, expr, compiled.first_type)
        operand = self.compile(expr.operand)
        negated = expr.negated

        def in_subquery(env: Env) -> Optional[bool]:
            needle = operand(env)
            if needle is None:
                return None
            saw_null = False
            for value in compiled.first_column_values(env):
                if value is None:
                    saw_null = True
                    continue
                if compare_values(needle, value) == 0:
                    return False if negated else True
            if saw_null:
                return None
            return True if negated else False

        return in_subquery


def _as_bool(value: SQLValue) -> Optional[bool]:
    """Coerce an evaluated value into the 3-valued boolean domain."""
    if value is None or isinstance(value, bool):
        return value
    raise TypeError_(f"expected a boolean condition, got {value!r}")
