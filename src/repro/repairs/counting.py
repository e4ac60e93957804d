"""Exact repair counting via conflict-component decomposition.

The paper's motivation: "even for a single functional dependency, the
number of repairs can be exponential in the number of tuples" (citing
Arenas et al., TCS 2003).  This module makes that number *inspectable*
without enumerating the repairs globally: the conflict hypergraph
decomposes into connected components, repairs factor across components,
so

    #repairs = product over components of #maximal-independent-sets

Components are tiny in realistic workloads (an FD conflict cluster of k
tuples is one k-clique), so the per-component enumeration is cheap even
when the global count is astronomically large.  Counting is #P-hard in
general, hence the per-component :data:`COMPONENT_LIMIT` escape hatch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.conflicts.hypergraph import ConflictHypergraph, Vertex
from repro.ra.sjud import UnionFind
from repro.repairs.enumerate import maximal_independent_sets

#: Maximal independent sets enumerated per conflict component before
#: :func:`count_repairs_exact` gives up with ``TooManyRepairsError``.
COMPONENT_LIMIT = 100_000


@dataclass(frozen=True)
class RepairCount:
    """The exact repair count, with its factorization.

    Attributes:
        total: the number of repairs of the whole database.
        component_sizes: vertices per conflict component.
        component_counts: maximal-independent-set count per component.
    """

    total: int
    component_sizes: tuple[int, ...]
    component_counts: tuple[int, ...]

    @property
    def components(self) -> int:
        return len(self.component_sizes)


def conflict_components(hypergraph: ConflictHypergraph) -> list[frozenset[Vertex]]:
    """Connected components of the conflict hypergraph.

    Two tuples are connected when some hyperedge contains both.
    Conflict-free tuples belong to no component (they are in every
    repair and contribute a factor of 1).
    """
    classes: UnionFind[Vertex] = UnionFind()
    for edge in hypergraph.edges:
        vertices = iter(edge)
        first = classes.find(next(vertices))
        for other in vertices:
            classes.union(other, first)

    groups: dict[Vertex, set[Vertex]] = {}
    for v in classes:
        groups.setdefault(classes.find(v), set()).add(v)
    return [frozenset(group) for group in groups.values()]


def count_repairs_exact(hypergraph: ConflictHypergraph) -> RepairCount:
    """Count the repairs exactly (product over conflict components).

    Raises:
        TooManyRepairsError: when a single component exceeds
            :data:`COMPONENT_LIMIT` --
            the count is then genuinely astronomical and the caller should
            report a bound instead.
    """
    components = sorted(conflict_components(hypergraph), key=len, reverse=True)
    sizes = []
    counts = []
    total = 1
    for component in components:
        # Restrict the hypergraph to this component's edges.
        local_edges = [
            edge for edge in hypergraph.edges if edge <= component
        ]
        local = ConflictHypergraph(local_edges)
        local_count = len(
            maximal_independent_sets(local, limit=COMPONENT_LIMIT)
        )
        sizes.append(len(component))
        counts.append(local_count)
        total *= local_count
    return RepairCount(total, tuple(sizes), tuple(counts))
