"""The benchmark query suite (the demo's query classes S, SJ, SJU, SJUD)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WorkloadQuery:
    """A named benchmark query.

    Attributes:
        name: short identifier used in benchmark output.
        query_class: S / SJ / SJU / SJUD (the paper's classification).
        sql: the SQL text (over the generator's table names).
        rewriting_supported: whether the PODS'99 rewriting baseline covers
            this class (it cannot handle unions).
    """

    name: str
    query_class: str
    sql: str
    rewriting_supported: bool


def selection_query(table: str) -> WorkloadQuery:
    """S: one relation, one comparison."""
    return WorkloadQuery(
        "selection",
        "S",
        f"SELECT * FROM {table} WHERE b0 < 500000",
        rewriting_supported=True,
    )


def full_scan_query(table: str) -> WorkloadQuery:
    """S: the identity query (every tuple a candidate)."""
    return WorkloadQuery(
        "scan", "S", f"SELECT * FROM {table}", rewriting_supported=True
    )


def join_query(left: str, right: str) -> WorkloadQuery:
    """SJ: foreign-key style equi-join."""
    return WorkloadQuery(
        "join",
        "SJ",
        f"SELECT l.a, l.b0, r.b0 FROM {left} l, {right} r WHERE l.b0 = r.a",
        rewriting_supported=True,
    )


def union_query(left: str, right: str) -> WorkloadQuery:
    """SJU: union of two selections (indefinite disjunctive information)."""
    return WorkloadQuery(
        "union",
        "SJU",
        f"SELECT a, b0 FROM {left} UNION SELECT a, b0 FROM {right}",
        rewriting_supported=False,
    )


def difference_query(left: str, right: str) -> WorkloadQuery:
    """SJUD: set difference."""
    return WorkloadQuery(
        "difference",
        "SJUD",
        f"SELECT a, b0 FROM {left} EXCEPT SELECT a, b0 FROM {right}",
        rewriting_supported=True,
    )
