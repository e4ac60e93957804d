"""A seeded DML stream that keeps the data stationary.

The generator mirrors the live ``(a, b0)`` rows of every table it writes
to, so each statement it emits does exactly one row of work:

* every ``UPDATE`` / ``DELETE`` names an existing ``(a, b0)`` pair -- a
  random key out of a ``10 * N`` domain would miss nine times in ten and
  time a no-op scan;
* ``REUSE`` of the ``INSERT`` s take a live, so far conflict-free key
  with a new ``b0`` (a fresh FD violation), the rest a key never used;
* a ``DELETE`` retires one row of a conflicting key whenever the table
  holds more conflicting keys than it started with, and a clean row
  otherwise.

Statement kinds cycle INSERT, UPDATE, DELETE, so the row count returns
to its start every three statements and the conflict rate stays within
one key of it: late blocks measure the same database as early ones.
Values are random, so (almost) every statement text is new to the
statement cache.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

KINDS = ("insert", "update", "delete")

#: Share of INSERTs that reuse a live key (each one a new conflict).
REUSE = 0.3


class _Pool:
    """A set with O(1) add, remove and uniform random choice."""

    def __init__(self, items: Iterable[int] = ()) -> None:
        self._items = list(items)
        self._at = {item: index for index, item in enumerate(self._items)}

    def __len__(self) -> int:
        return len(self._items)

    def add(self, item: int) -> None:
        self._at[item] = len(self._items)
        self._items.append(item)

    def remove(self, item: int) -> None:
        index = self._at.pop(item)
        last = self._items.pop()
        if last != item:
            self._items[index] = last
            self._at[last] = index

    def choice(self, rng: random.Random) -> int:
        return self._items[rng.randrange(len(self._items))]


@dataclass
class _TableModel:
    """The generator's picture of one table's live rows."""

    name: str
    value_domain: int
    values: dict[int, list[int]]  # key -> its b0 values
    clean: _Pool = field(default_factory=_Pool)  # keys with one row
    conflicting: _Pool = field(default_factory=_Pool)  # keys with several
    target_conflicting: int = 0
    next_key: int = 0

    def __post_init__(self) -> None:
        for key, column in self.values.items():
            if len(set(column)) != len(column):
                continue  # exact duplicate rows: never name this key
            (self.clean if len(column) == 1 else self.conflicting).add(key)
        self.target_conflicting = len(self.conflicting)
        self.next_key = max(self.values, default=0) + 1

    def fresh_value(self, rng: random.Random, key: int) -> int:
        taken = self.values.get(key, ())
        while True:
            value = rng.randrange(self.value_domain)
            if value not in taken:
                return value

    def any_key(self, rng: random.Random) -> int:
        total = len(self.clean) + len(self.conflicting)
        if rng.randrange(total) < len(self.clean):
            return self.clean.choice(rng)
        return self.conflicting.choice(rng)


class DmlGenerator:
    """Deterministic single-row DML over ``(a, b0)`` tables.

    Args:
        seed: the stream is a function of the seed and the initial rows.
        tables: ``name -> (rows, value_domain)``; ``rows`` are the
            table's current ``(a, b0)`` pairs, ``value_domain`` bounds
            generated ``b0`` values (join columns must stay in range).
    """

    def __init__(
        self, seed: int, tables: dict[str, tuple[Iterable[tuple[int, int]], int]]
    ) -> None:
        self._rng = random.Random(seed)
        self._models = []
        for name, (rows, value_domain) in tables.items():
            values: dict[int, list[int]] = {}
            for key, value in rows:
                values.setdefault(key, []).append(value)
            self._models.append(_TableModel(name, value_domain, values))
        self._count = 0

    def next(self) -> tuple[str, str]:
        """The next statement as ``(kind, sql)``; the model is updated on
        the assumption that it changes exactly one row (the caller checks
        ``rowcount == 1``)."""
        rng = self._rng
        model = self._models[rng.randrange(len(self._models))]
        kind = KINDS[self._count % len(KINDS)]
        self._count += 1
        return kind, getattr(self, f"_{kind}")(model, rng)

    def _insert(self, model: _TableModel, rng: random.Random) -> str:
        if len(model.clean) and rng.random() < REUSE:
            key = model.clean.choice(rng)
            model.clean.remove(key)
            model.conflicting.add(key)
        else:
            key = model.next_key
            model.next_key += 1
            model.values[key] = []
            model.clean.add(key)
        value = model.fresh_value(rng, key)
        model.values[key].append(value)
        return f"INSERT INTO {model.name} VALUES ({key}, {value})"

    def _update(self, model: _TableModel, rng: random.Random) -> str:
        key = model.any_key(rng)
        column = model.values[key]
        slot = rng.randrange(len(column))
        old = column[slot]
        column[slot] = model.fresh_value(rng, key)
        return (
            f"UPDATE {model.name} SET b0 = {column[slot]}"
            f" WHERE a = {key} AND b0 = {old}"
        )

    def _delete(self, model: _TableModel, rng: random.Random) -> str:
        retire = len(model.conflicting) > model.target_conflicting
        pool = model.conflicting if retire or not len(model.clean) else model.clean
        key = pool.choice(rng)
        column = model.values[key]
        old = column.pop(rng.randrange(len(column)))
        if len(column) == 1:
            model.conflicting.remove(key)
            model.clean.add(key)
        elif not column:
            model.clean.remove(key)
            del model.values[key]
        return f"DELETE FROM {model.name} WHERE a = {key} AND b0 = {old}"

    def conflict_rate(self) -> float:
        """Share of live rows whose key is shared (the stationarity check)."""
        rows = sum(len(c) for m in self._models for c in m.values.values())
        shared = sum(
            len(c) for m in self._models for c in m.values.values() if len(c) > 1
        )
        return shared / rows if rows else 0.0

    def row_count(self) -> int:
        return sum(len(c) for m in self._models for c in m.values.values())
