"""Exhaustive repair enumeration (the ground-truth oracle).

For denial constraints, the repairs of a database are exactly the maximal
independent sets of the conflict hypergraph (Chomicki & Marcinkowski,
2005).  Their number can be exponential in the number of conflicting
tuples -- which is precisely why Hippo never materializes them -- but on
small instances enumerating them gives the definitional answer

    consistent(Q) = intersection over repairs M of Q(M)

that every Hippo answer is tested against.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.conflicts.hypergraph import ConflictHypergraph, Vertex
from repro.engine.database import Database

#: A repair, represented as the kept tids per (lower-cased) relation name.
Repair = dict[str, frozenset[int]]


class TooManyRepairsError(RuntimeError):
    """Raised when enumeration would exceed the configured bound."""


def maximal_independent_sets(
    hypergraph: ConflictHypergraph, limit: Optional[int] = None
) -> list[frozenset[Vertex]]:
    """All maximal independent sets of the conflict hypergraph.

    Only conflicting vertices matter (conflict-free tuples are in every
    repair); the returned sets contain conflicting vertices only.

    Branch-and-prune: pick a hyperedge still fully inside the candidate
    set and branch on which of its vertices to remove.  Duplicate and
    non-maximal results are filtered at the end -- fine for the test-size
    instances this oracle is meant for.

    Args:
        limit: safety bound on the number of *candidate* sets explored.

    Raises:
        TooManyRepairsError: when the bound is hit.
    """
    vertices = frozenset(hypergraph.conflicting_vertices())
    results: set[frozenset[Vertex]] = set()
    explored = 0

    def first_contained_edge(kept: set[Vertex]) -> Optional[frozenset[Vertex]]:
        for edge in hypergraph.edges:
            if edge <= kept:
                return edge
        return None

    def branch(kept: set[Vertex]) -> None:
        nonlocal explored
        explored += 1
        if limit is not None and explored > limit:
            raise TooManyRepairsError(
                f"more than {limit} candidate repairs explored"
            )
        edge = first_contained_edge(kept)
        if edge is None:
            results.add(frozenset(kept))
            return
        for v in edge:
            kept.discard(v)
            branch(kept)
            kept.add(v)

    branch(set(vertices))
    # Drop non-maximal sets (branching can produce them).
    by_size = sorted(results, key=len, reverse=True)
    maximal: list[frozenset[Vertex]] = []
    for candidate in by_size:
        if not any(candidate < bigger for bigger in maximal):
            maximal.append(candidate)
    return maximal


def all_repairs(
    db: Database,
    hypergraph: ConflictHypergraph,
    limit: Optional[int] = 200_000,
) -> list[Repair]:
    """Enumerate every repair as a per-relation kept-tid map.

    Each repair keeps all conflict-free tuples plus one maximal
    independent set of conflicting tuples.
    """
    relation_names = [name.lower() for name in db.catalog.table_names()]
    base: dict[str, set[int]] = {}
    for name in relation_names:
        table = db.catalog.table(name)
        conflicting = hypergraph.conflicting_tids(name)
        base[name] = {tid for tid in table.tids() if tid not in conflicting}

    repairs: list[Repair] = []
    for independent in maximal_independent_sets(hypergraph, limit):
        kept = {name: set(tids) for name, tids in base.items()}
        for v in independent:
            kept.setdefault(v.relation, set()).add(v.tid)
        repairs.append(
            {name: frozenset(tids) for name, tids in kept.items()}
        )
    return repairs


def repair_restriction(
    repair: Repair,
) -> Callable[[str], Optional[frozenset[int]]]:
    """Adapt a repair to the :data:`~repro.ra.compile.Restriction` protocol."""

    def restrict(relation: str) -> Optional[frozenset[int]]:
        return repair.get(relation.lower(), frozenset())

    return restrict
