"""The conflict hypergraph.

    "All information about integrity violations is stored in a conflict
    hypergraph.  Every hyperedge connects the tuples violating together an
    integrity constraint."  (Hippo, EDBT 2004)

Vertices are database tuples, identified as ``(relation, tid)`` pairs.
Each hyperedge is a minimal set of tuples that jointly violate one denial
constraint.  Because repairs (under denial constraints) are exactly the
maximal independent sets of this hypergraph, every question Hippo's
Prover asks reduces to independence checks and incidence lookups here --
all answered from main memory, which is the paper's central performance
claim ("we are assuming that the number of conflicts is small enough for
the hypergraph to be stored in main memory").
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional, Sequence


class Vertex(NamedTuple):
    """A database tuple: relation name (lower-cased) + tuple id."""

    relation: str
    tid: int


def vertex(relation: str, tid: int) -> Vertex:
    """Construct a normalized vertex."""
    return Vertex(relation.lower(), tid)


class ConflictHypergraph:
    """The conflict hypergraph (mutable since incremental maintenance).

    Conflict Detection builds it once; incremental maintenance then edits
    it in place through :meth:`add_edge` / :meth:`remove_edge`, which keep
    the per-vertex adjacency (``_incidence``) and ``edge_labels``
    consistent with ``edges``.

    Attributes:
        edges: the hyperedges (minimal violation sets), deduplicated.
        edge_labels: the constraint name each edge was derived from,
            positionally aligned with ``edges``.
    """

    def __init__(
        self,
        edges: Iterable[frozenset[Vertex]] = (),
        edge_labels: Optional[Sequence[str]] = None,
    ) -> None:
        self.edges: list[frozenset[Vertex]] = []
        self.edge_labels: list[str] = []
        self._position: dict[frozenset[Vertex], int] = {}
        self._incidence: dict[Vertex, list[int]] = {}
        #: relation -> conflicting tids, dropped whenever an edge changes
        self._conflicting_tids: dict[str, frozenset[int]] = {}
        labels = list(edge_labels) if edge_labels is not None else None
        for position, edge in enumerate(edges):
            self.add_edge(edge, labels[position] if labels else "")

    # ----------------------------------------------------------- mutation

    def add_edge(self, edge: Iterable[Vertex], label: str = "") -> bool:
        """Store a hyperedge (no-op for duplicates); returns whether added.

        Raises:
            ValueError: for an empty edge.
        """
        edge = frozenset(edge)
        if not edge:
            raise ValueError("hyperedges must be non-empty")
        if edge in self._position:
            return False
        self._conflicting_tids.clear()
        index = len(self.edges)
        self._position[edge] = index
        self.edges.append(edge)
        self.edge_labels.append(label)
        for v in edge:
            self._incidence.setdefault(v, []).append(index)
        return True

    def remove_edge(self, edge: Iterable[Vertex]) -> bool:
        """Retract a hyperedge; returns whether it was stored.

        The last edge is swapped into the vacated slot, so edge order is
        not stable across removals (no consumer relies on it -- equality
        of hypergraphs is by edge *set*, see :meth:`as_dict`).
        """
        edge = frozenset(edge)
        index = self._position.pop(edge, None)
        if index is None:
            return False
        self._conflicting_tids.clear()
        for v in edge:
            incident = self._incidence[v]
            incident.remove(index)
            if not incident:
                del self._incidence[v]
        last = len(self.edges) - 1
        if index != last:
            moved = self.edges[last]
            self.edges[index] = moved
            self.edge_labels[index] = self.edge_labels[last]
            self._position[moved] = index
            for v in moved:
                incident = self._incidence[v]
                incident[incident.index(last)] = index
        self.edges.pop()
        self.edge_labels.pop()
        return True

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def vertex_count(self) -> int:
        """Number of distinct conflicting tuples."""
        return len(self._incidence)

    def conflicting_vertices(self) -> Iterator[Vertex]:
        """All tuples that participate in at least one conflict."""
        return iter(self._incidence.keys())

    def is_conflicting(self, v: Vertex) -> bool:
        """Whether a tuple participates in any conflict."""
        return v in self._incidence

    def edges_of(self, v: Vertex) -> list[frozenset[Vertex]]:
        """The hyperedges containing ``v`` (empty when conflict-free)."""
        return [self.edges[index] for index in self._incidence.get(v, ())]

    def contains_edge(self, edge: Iterable[Vertex]) -> bool:
        """Whether this exact hyperedge is stored."""
        return frozenset(edge) in self._position

    def label_of(self, edge: Iterable[Vertex]) -> str:
        """The label of a stored edge.

        Raises:
            KeyError: when the edge is not stored.
        """
        return self.edge_labels[self._position[frozenset(edge)]]

    def subset_edges(self, vertices: Iterable[Vertex]) -> list[frozenset[Vertex]]:
        """Stored edges that are subsets of ``vertices`` (inclusive)."""
        vertex_set = frozenset(vertices)
        found: list[frozenset[Vertex]] = []
        checked: set[int] = set()
        for v in vertex_set:
            for index in self._incidence.get(v, ()):
                if index in checked:
                    continue
                checked.add(index)
                if self.edges[index] <= vertex_set:
                    found.append(self.edges[index])
        return found

    def superset_edges(self, vertices: Iterable[Vertex]) -> list[frozenset[Vertex]]:
        """Stored edges strictly containing ``vertices``."""
        vertex_set = frozenset(vertices)
        if not vertex_set:
            return []
        # A superset is incident to every vertex; scan the shortest list.
        probe = min(
            vertex_set, key=lambda u: len(self._incidence.get(u, ()))
        )
        return [
            self.edges[index]
            for index in self._incidence.get(probe, ())
            if vertex_set < self.edges[index]
        ]

    def as_dict(self) -> dict[frozenset[Vertex], str]:
        """``edge -> label`` (the canonical, order-free representation)."""
        return dict(zip(self.edges, self.edge_labels))

    def degree(self, v: Vertex) -> int:
        """Number of hyperedges containing ``v``."""
        return len(self._incidence.get(v, ()))

    def is_independent(self, vertices: Iterable[Vertex]) -> bool:
        """Whether no hyperedge is fully contained in ``vertices``.

        Repairs are exactly the *maximal* independent sets; the Prover
        uses this check on small candidate sets (the union of the
        positive facts and the chosen covering hyperedges).
        """
        vertex_set = set(vertices)
        checked: set[int] = set()
        for v in vertex_set:
            for index in self._incidence.get(v, ()):
                if index in checked:
                    continue
                checked.add(index)
                if self.edges[index] <= vertex_set:
                    return False
        return True

    def conflicting_tids(self, relation: str) -> frozenset[int]:
        """Tids of the conflicting tuples of one relation (memoized until
        the next :meth:`add_edge` / :meth:`remove_edge`)."""
        key = relation.lower()
        cached = self._conflicting_tids.get(key)
        if cached is None:
            cached = self._conflicting_tids[key] = frozenset(
                v.tid for v in self._incidence if v.relation == key
            )
        return cached

    def always_deleted(self) -> frozenset[Vertex]:
        """Tuples in a singleton hyperedge: they belong to *no* repair.

        (A single tuple can violate a denial constraint by itself, e.g.
        a CHECK-style denial ``NOT (R(t) AND t.a < 0)``.)
        """
        return frozenset(
            next(iter(edge)) for edge in self.edges if len(edge) == 1
        )

    def summary(self) -> dict[str, object]:
        """Size statistics (reported by benchmarks and examples)."""
        sizes = [len(edge) for edge in self.edges]
        per_relation: dict[str, int] = {}
        for v in self._incidence:
            per_relation[v.relation] = per_relation.get(v.relation, 0) + 1
        return {
            "edges": len(self.edges),
            "conflicting_tuples": len(self._incidence),
            "max_edge_size": max(sizes, default=0),
            "singleton_edges": sum(1 for size in sizes if size == 1),
            "conflicting_per_relation": per_relation,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        info = self.summary()
        return (
            f"ConflictHypergraph(edges={info['edges']},"
            f" conflicting_tuples={info['conflicting_tuples']})"
        )


def minimal_edges(
    edges: Iterable[frozenset[Vertex]],
    labels: Optional[Sequence[str]] = None,
) -> tuple[list[frozenset[Vertex]], list[str]]:
    """Drop duplicate and non-minimal violation sets.

    A hyperedge that strictly contains another violation is redundant:
    any repair already excludes part of the smaller violation.
    """
    unique: dict[frozenset[Vertex], str] = {}
    label_list = list(labels) if labels is not None else None
    for position, edge in enumerate(edges):
        if edge not in unique:
            unique[edge] = label_list[position] if label_list else ""
    ordered = sorted(unique.keys(), key=len)
    kept: list[frozenset[Vertex]] = []
    kept_labels: list[str] = []
    for edge in ordered:
        if any(smaller < edge for smaller in kept):
            continue
        kept.append(edge)
        kept_labels.append(unique[edge])
    return kept, kept_labels
