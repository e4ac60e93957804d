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

from typing import Iterable, Iterator, NamedTuple, Sequence


class Vertex(NamedTuple):
    """A database tuple: relation name (lower-cased) + tuple id."""

    relation: str
    tid: int


def vertex(relation: str, tid: int) -> Vertex:
    """Construct a normalized vertex."""
    return Vertex(relation.lower(), tid)


class ConflictHypergraph:
    """The conflict hypergraph (mutable since incremental maintenance).

    A :class:`ViolationStore` decides which edges it holds and edits it
    in place through :meth:`add_edge` / :meth:`remove_edge` /
    :meth:`relabel`, which keep the per-vertex adjacency
    (``_incidence``) and ``edge_labels`` consistent with ``edges``.

    Attributes:
        edges: the hyperedges (minimal violation sets), deduplicated.
        edge_labels: the constraint name each edge was derived from,
            positionally aligned with ``edges``.
    """

    def __init__(self, edges: Iterable[frozenset[Vertex]] = ()) -> None:
        self.edges: list[frozenset[Vertex]] = []
        self.edge_labels: list[str] = []
        self._position: dict[frozenset[Vertex], int] = {}
        self._incidence: dict[Vertex, list[int]] = {}
        #: relation -> conflicting tids, dropped whenever an edge changes
        self._conflicting_tids: dict[str, frozenset[int]] = {}
        for edge in edges:
            self.add_edge(edge)

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

    def relabel(self, edge: frozenset[Vertex], label: str) -> None:
        """Change a stored edge's label in place.

        Raises:
            KeyError: when the edge is not stored.
        """
        self.edge_labels[self._position[edge]] = label

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


class ViolationStore:
    """Every current violation, and the minimal ones as the hypergraph.

    The one place that decides which violation sets are hyperedges and
    how each is labelled.  Full detection, incremental maintenance and
    the shard merge all feed their violations in here:

    * every *raw* violation is kept, minimal or not, with the set of
      constraints that support (derived) it;
    * :attr:`graph` holds exactly the supported edges that have no
      supported strict subset, each labelled by its earliest supporter
      in ``order`` (:func:`~repro.conflicts.detection.derivation_order`).

    When a smaller violation appears, stored supersets are demoted to
    the raw side; when it is withdrawn while its tuples survive (an FK
    dangling cured by a parent insertion), they resurface.  Retracting a
    vertex needs no resurrection: every raw superset of a retracted edge
    contains the vertex too.  The raw side is indexed by vertex and by
    label, and per-label stored counts are kept through every mutation,
    so the report's counters cost O(constraints), not O(violations).

    Attributes:
        graph: the minimal hypergraph.
        added / dropped: edges that entered / left :attr:`graph` so far
            (relabels excluded) -- the churn incremental reports show.
    """

    def __init__(self, order: Sequence[str]) -> None:
        self.graph = ConflictHypergraph()
        self.added = 0
        self.dropped = 0
        labels = tuple(dict.fromkeys(order))
        self._rank = {label: index for index, label in enumerate(labels)}
        #: raw violation -> the labels supporting it
        self._support: dict[frozenset[Vertex], set[str]] = {}
        self._incidence: dict[Vertex, set[frozenset[Vertex]]] = {}
        #: label -> the raw violations it supports (insertion-ordered)
        self._by_label: dict[str, dict[frozenset[Vertex], None]] = {
            label: {} for label in labels
        }
        self._stored = dict.fromkeys(labels, 0)

    # ----------------------------------------------------------- mutation

    def add(self, edge: frozenset[Vertex], label: str) -> None:
        """Record that constraint ``label`` derives violation ``edge``.

        Raises:
            KeyError: for a label outside the store's order.
        """
        supported = self._by_label[label]
        if edge in supported:
            return
        supported[edge] = None
        supports = self._support.get(edge)
        if supports is not None:
            supports.add(label)
            self._relabel(edge)
            return
        self._support[edge] = {label}
        for v in edge:
            self._incidence.setdefault(v, set()).add(edge)
        if self.graph.subset_edges(edge):
            return  # subsumed by a stored edge
        for superset in self.graph.superset_edges(edge):
            self._unstore(superset)  # resurfaces if ``edge`` is withdrawn
        self._store(edge, label)

    def withdraw(self, edge: frozenset[Vertex], labels: Iterable[str]) -> None:
        """Withdraw some constraints' support for a raw violation.

        An edge left without support is forgotten; if it was stored,
        the raw supersets it subsumed are promoted back where minimal.
        """
        supports = self._support[edge]
        for label in labels:
            if label in supports:
                supports.discard(label)
                del self._by_label[label][edge]
        if supports:
            self._relabel(edge)
            return
        self._forget(edge)
        if self.graph.contains_edge(edge):
            self._unstore(edge)
            self._resurrect(edge)

    def retract(self, v: Vertex) -> None:
        """Forget every violation containing ``v`` (a changed tuple)."""
        for edge in list(self._incidence.get(v, ())):
            for label in self._support[edge]:
                del self._by_label[label][edge]
            self._forget(edge)
            if self.graph.contains_edge(edge):
                self._unstore(edge)

    # ------------------------------------------------------------- queries

    def supported_by(self, label: str) -> list[frozenset[Vertex]]:
        """The raw violations ``label`` supports (a copy)."""
        return list(self._by_label[label])

    def stored(self) -> dict[str, int]:
        """label -> edges stored under it, in derivation order."""
        return dict(self._stored)

    def subsumed(self) -> dict[str, int]:
        """label -> violations it supports that are *not* stored under
        it: absorbed into a smaller edge, or into an identical edge of
        an earlier constraint."""
        return {
            label: len(self._by_label[label]) - stored
            for label, stored in self._stored.items()
        }

    # ------------------------------------------------------------ plumbing

    def _store(self, edge: frozenset[Vertex], label: str) -> None:
        self.graph.add_edge(edge, label)
        self._stored[label] += 1
        self.added += 1

    def _unstore(self, edge: frozenset[Vertex]) -> None:
        self._stored[self.graph.label_of(edge)] -= 1
        self.graph.remove_edge(edge)
        self.dropped += 1

    def _relabel(self, edge: frozenset[Vertex]) -> None:
        """Keep a stored edge labelled by its earliest supporter."""
        if not self.graph.contains_edge(edge):
            return
        old, new = self.graph.label_of(edge), self._earliest(edge)
        if new != old:
            self._stored[old] -= 1
            self._stored[new] += 1
            self.graph.relabel(edge, new)

    def _earliest(self, edge: frozenset[Vertex]) -> str:
        return min(self._support[edge], key=self._rank.__getitem__)

    def _forget(self, edge: frozenset[Vertex]) -> None:
        del self._support[edge]
        for v in edge:
            owners = self._incidence[v]
            owners.discard(edge)
            if not owners:
                del self._incidence[v]

    def _resurrect(self, removed: frozenset[Vertex]) -> None:
        """Promote raw supersets of a withdrawn stored edge that are now
        minimal.  None of them has a stored superset (``removed`` was
        below it), so promotion never demotes anything."""
        probe = next(iter(removed))
        candidates = sorted(
            (edge for edge in self._incidence.get(probe, ()) if removed < edge),
            key=len,
        )
        for edge in candidates:
            if not self.graph.subset_edges(edge):
                self._store(edge, self._earliest(edge))
