"""The answer order against Python's own sort.

:func:`~repro.engine.types.default_order` takes Python's order in two
stable passes (the leading column, then the whole rows) where Python
orders the values as SQL does.  The reference here is the plain
``sorted(rows)`` there -- rows whose columns hold no NaN and no BOOLEAN
next to a number, when that sort does not raise -- and the
:func:`~repro.engine.types.sort_key` tuple order everywhere else.  Both
sides sort the same row objects, so the check is on identity: ties, and
values equal but not alike (``0.0`` / ``-0.0``, ``1`` / ``1.0``), must
land in the same places.
"""

from __future__ import annotations

from functools import cmp_to_key

from hypothesis import example, given, settings, strategies as st

from repro.core.hippo import order_answers, parse_sjud
from repro.engine.database import Database
from repro.engine.types import NAN, SQLType, default_order, infer_type, sort_key
from repro.ra.sjud import output_names_of

#: Small domains, so that leading values repeat.
VALUES = {
    SQLType.INTEGER: st.integers(min_value=-2, max_value=2),
    SQLType.REAL: st.sampled_from([0.0, -0.0, 1.0, -1.5, NAN, float("inf")]),
    SQLType.TEXT: st.sampled_from(["", "a", "B", "ab"]),
    SQLType.BOOLEAN: st.booleans(),
}


def by_keys(rows: list[tuple]) -> list[tuple]:
    return sorted(rows, key=lambda row: tuple(map(sort_key, row)))


def python_orders(rows: list[tuple]) -> bool:
    """Whether Python's ``<`` is SQL's order on every column of ``rows``:
    no NaN, and no BOOLEAN next to a number."""
    for column in zip(*rows):
        if any(value != value for value in column):
            return False
        kinds = set(map(infer_type, column))
        if SQLType.BOOLEAN in kinds and kinds & {SQLType.INTEGER, SQLType.REAL}:
            return False
    return True


def reference(rows: list[tuple]) -> list[tuple]:
    if python_orders(rows):
        try:
            return sorted(rows)
        except TypeError:
            pass
    return by_keys(rows)


def same_objects(left: list[tuple], right: list[tuple]) -> bool:
    return list(map(id, left)) == list(map(id, right))


@st.composite
def typed_rows(draw: st.DrawFn) -> tuple[list[tuple], list[set]]:
    """Rows of one to three columns, each column of one or two types,
    NULL in some, and the column types as declared."""
    width = draw(st.integers(min_value=1, max_value=3))
    types = [
        draw(st.sets(st.sampled_from(list(SQLType)), min_size=1, max_size=2))
        for _ in range(width)
    ]
    columns = [
        st.one_of(
            [VALUES[kind] for kind in sorted(kinds, key=str)]
            + ([st.none()] if draw(st.booleans()) else [])
        )
        for kinds in types
    ]
    return draw(st.lists(st.tuples(*columns), max_size=30)), types


@settings(max_examples=300, deadline=None)
@given(typed_rows())
@example(([(1, 2), (1, 1), (0, 3), (1, 1)], [{SQLType.INTEGER}] * 2))
@example(([(2,), (1,), (1,), (True,)], [{SQLType.INTEGER, SQLType.BOOLEAN}]))
@example(
    (
        [(0.0, "a"), (-0.0, ""), (NAN, "B"), (None, "a")],
        [{SQLType.REAL}, {SQLType.TEXT}],
    )
)
@example(([(None, 2), (None, 1)], [{SQLType.INTEGER}] * 2))
def test_default_order_is_pythons_order_where_python_orders(case):
    rows, types = case
    expected = reference(rows)
    assert same_objects(default_order(rows, types), expected)
    assert same_objects(default_order(iter(rows)), expected)  # types read off


def test_rows_of_arity_zero_and_no_rows():
    rows = [(), ()]
    assert same_objects(default_order(rows, []), rows)
    assert default_order([], []) == []


# --------------------------------------------------- ORDER BY on top of it

COLUMNS = {
    "i": SQLType.INTEGER,
    "t": SQLType.TEXT,
    "r": SQLType.REAL,
    "f": SQLType.BOOLEAN,
}


@st.composite
def ordered_queries(
    draw: st.DrawFn,
) -> tuple[str, list[tuple[int, bool]], list[tuple]]:
    """A SELECT of ``COLUMNS`` in any order (an SJUD query keeps them
    all) with one or two ORDER BY items (a name or a position, either
    direction), and rows of its types."""
    names = draw(st.permutations(sorted(COLUMNS)))
    items = draw(
        st.lists(
            st.tuples(st.integers(0, len(names) - 1), st.booleans(), st.booleans()),
            min_size=1,
            max_size=2,
        )
    )
    order_by = ", ".join(
        (names[index] if by_name else str(index + 1)) + ("" if ascending else " DESC")
        for index, ascending, by_name in items
    )
    sql = f"SELECT {', '.join(names)} FROM t ORDER BY {order_by}"
    row = st.tuples(*(st.one_of(st.none(), VALUES[COLUMNS[name]]) for name in names))
    rows = draw(st.lists(row, max_size=25))
    return sql, [(index, ascending) for index, ascending, _ in items], rows


def _catalog() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (i INTEGER, t TEXT, r REAL, f BOOLEAN)")
    return db


@settings(max_examples=200, deadline=None)
@given(ordered_queries())
@example(
    (
        "SELECT t, i, r, f FROM t ORDER BY t DESC",
        [(0, False)],
        [("a", 2, 0.0, True), ("a", 1, -0.0, None), ("B", None, 1.0, False),
         (None, 1, NAN, True), ("a", 0, 0.0, False), ("a", 1, 0.0, False)],
    )
)
def test_order_by_sorts_on_top_of_the_default_order(case):
    sql, items, rows = case
    db = _catalog()
    tree, order_by = parse_sjud(sql, db.catalog)

    def compare(left: tuple, right: tuple) -> int:
        for index, ascending in items:
            first, second = sort_key(left[index]), sort_key(right[index])
            if first != second:
                return (-1 if first < second else 1) * (1 if ascending else -1)
        return 0

    expected = sorted(reference(rows), key=cmp_to_key(compare))
    columns = list(output_names_of(tree))
    ordered = order_answers(rows, columns, order_by, tree, db.catalog)
    assert same_objects(ordered, expected)
