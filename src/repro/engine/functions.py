"""Scalar and aggregate function registries for the engine."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.engine.types import SQLValue, canonical, compare_values
from repro.errors import ExecutionError, TypeError_

# --------------------------------------------------------------------------
# Scalar functions.  Each takes already-evaluated argument values and
# returns a value; SQL NULL-propagation (NULL in -> NULL out) is applied
# by the dispatcher for every function except COALESCE / NULLIF.
# --------------------------------------------------------------------------


def _abs(value: SQLValue) -> SQLValue:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError_("ABS expects a numeric argument")
    return abs(value)


def _lower(value: SQLValue) -> SQLValue:
    if not isinstance(value, str):
        raise TypeError_("LOWER expects a TEXT argument")
    return value.lower()


def _upper(value: SQLValue) -> SQLValue:
    if not isinstance(value, str):
        raise TypeError_("UPPER expects a TEXT argument")
    return value.upper()


def _length(value: SQLValue) -> SQLValue:
    if not isinstance(value, str):
        raise TypeError_("LENGTH expects a TEXT argument")
    return len(value)


def _substr(value: SQLValue, start: SQLValue, count: SQLValue = None) -> SQLValue:
    if not isinstance(value, str) or not isinstance(start, int):
        raise TypeError_("SUBSTR expects (TEXT, INTEGER[, INTEGER])")
    begin = max(start - 1, 0)  # SQL SUBSTR is 1-based
    if count is None:
        return value[begin:]
    if not isinstance(count, int):
        raise TypeError_("SUBSTR length must be an INTEGER")
    return value[begin : begin + max(count, 0)]


def _round(value: SQLValue, digits: SQLValue = 0) -> SQLValue:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError_("ROUND expects a numeric argument")
    if not isinstance(digits, int):
        raise TypeError_("ROUND digits must be an INTEGER")
    return round(float(value), digits)


_NULL_TOLERANT = {"COALESCE", "NULLIF", "IFNULL"}

_SCALAR: dict[str, Callable[..., SQLValue]] = {
    "ABS": _abs,
    "LOWER": _lower,
    "UPPER": _upper,
    "LENGTH": _length,
    "SUBSTR": _substr,
    "SUBSTRING": _substr,
    "ROUND": _round,
}


def call_scalar(name: str, args: Sequence[SQLValue]) -> SQLValue:
    """Invoke a scalar function with SQL NULL-propagation rules.

    Raises:
        ExecutionError: for unknown functions or bad arity.
    """
    upper = name.upper()
    if upper == "COALESCE":
        return next((arg for arg in args if arg is not None), None)
    if upper == "IFNULL":
        if len(args) != 2:
            raise ExecutionError("IFNULL expects 2 arguments")
        return args[0] if args[0] is not None else args[1]
    if upper == "NULLIF":
        if len(args) != 2:
            raise ExecutionError("NULLIF expects 2 arguments")
        return None if compare_values(args[0], args[1]) == 0 else args[0]
    function = _SCALAR.get(upper)
    if function is None:
        raise ExecutionError(f"unknown function: {name}")
    if any(arg is None for arg in args):
        return None
    try:
        return canonical(function(*args))
    except TypeError as exc:  # wrong arity
        raise ExecutionError(f"bad arguments to {upper}: {exc}") from None


# --------------------------------------------------------------------------
# Aggregate functions.  Each aggregate is an accumulator class; NULL inputs
# are skipped per the SQL standard (COUNT(*) is handled by the planner,
# which passes a non-NULL marker for every row).
# --------------------------------------------------------------------------


class Aggregate:
    """Base accumulator: subclasses override :meth:`add` and :meth:`result`."""

    def add(self, value: SQLValue) -> None:
        raise NotImplementedError

    def result(self) -> SQLValue:
        raise NotImplementedError


class _Count(Aggregate):
    def __init__(self) -> None:
        self.count = 0

    def add(self, value: SQLValue) -> None:
        if value is not None:
            self.count += 1

    def result(self) -> SQLValue:
        return self.count


class _Sum(Aggregate):
    def __init__(self) -> None:
        self.total: Optional[float | int] = None

    def add(self, value: SQLValue) -> None:
        if value is None:
            return
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TypeError_("SUM expects numeric inputs")
        self.total = value if self.total is None else self.total + value

    def result(self) -> SQLValue:
        return canonical(self.total)


class _Avg(Aggregate):
    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def add(self, value: SQLValue) -> None:
        if value is None:
            return
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TypeError_("AVG expects numeric inputs")
        self.total += value
        self.count += 1

    def result(self) -> SQLValue:
        return canonical(self.total / self.count) if self.count else None


class _Min(Aggregate):
    def __init__(self) -> None:
        self.best: SQLValue = None

    def add(self, value: SQLValue) -> None:
        if value is None:
            return
        if self.best is None or compare_values(value, self.best) < 0:
            self.best = value

    def result(self) -> SQLValue:
        return self.best


class _Max(Aggregate):
    def __init__(self) -> None:
        self.best: SQLValue = None

    def add(self, value: SQLValue) -> None:
        if value is None:
            return
        if self.best is None or compare_values(value, self.best) > 0:
            self.best = value

    def result(self) -> SQLValue:
        return self.best


class _Distinct(Aggregate):
    """Wrapper applying DISTINCT before an inner accumulator."""

    def __init__(self, inner: Aggregate) -> None:
        self.inner = inner
        self.seen: set = set()

    def add(self, value: SQLValue) -> None:
        if value is None or value in self.seen:
            return
        self.seen.add(value)
        self.inner.add(value)

    def result(self) -> SQLValue:
        return self.inner.result()


_AGGREGATES: dict[str, Callable[[], Aggregate]] = {
    "COUNT": _Count,
    "SUM": _Sum,
    "AVG": _Avg,
    "MIN": _Min,
    "MAX": _Max,
}


def is_aggregate_function(name: str) -> bool:
    """Whether ``name`` is a known aggregate function."""
    return name.upper() in _AGGREGATES


def make_aggregate(name: str, distinct: bool = False) -> Aggregate:
    """Create a fresh accumulator for the named aggregate.

    Raises:
        ExecutionError: for unknown aggregates.
    """
    factory = _AGGREGATES.get(name.upper())
    if factory is None:
        raise ExecutionError(f"unknown aggregate function: {name}")
    accumulator = factory()
    return _Distinct(accumulator) if distinct else accumulator
