"""Incremental maintenance of the conflict hypergraph.

The paper's Figure-1 data flow runs Conflict Detection **once**: the
constraints and the database feed the detector, the detector feeds the
conflict hypergraph, and every query afterwards (Enveloping, Evaluation,
Prover) reads the hypergraph from main memory.  That picture is static --
any INSERT/DELETE/UPDATE invalidated the hypergraph wholesale and forced
full re-detection over every constraint and every tuple.

This module keeps Figure 1 alive under update traffic by treating the
change log as a third input arrow into Conflict Detection:

::

    IC ──────────────┐
    DB ── deltas ──> Incremental Detection ──> Conflict Hypergraph
                      (bind one atom per     (edited in place; the
                       constraint to each     rest of the pipeline is
                       changed tuple)         unchanged)

For a batch of deltas the maintainer:

1. **retracts** every hyperedge incident to a changed tuple (a deleted
   vertex can no longer witness a violation; an updated tuple's old
   edges are stale);
2. **re-derives** violations for inserted/updated tuples by binding one
   atom of each denial constraint to the delta tuple and running the
   residual join over the other atoms -- planned once, at attach, by the
   engine's one planner with the bound tuple as its outer row, so its
   joins, index probes and comparisons are the ones full detection runs;
3. **re-derives** the dangling chains of restricted foreign keys for the
   reference-graph components a delta (or a changed singleton denial
   edge) touches.

Denial violations are *local*: whether a set of tuples violates a
constraint depends only on those tuples, so edges between unchanged
tuples never need revisiting -- per-update cost is O(delta x matching
tuples) instead of O(database x constraints).  Foreign keys are the one
non-local constraint class (a parent insertion *cures* danglings), which
is why their components are re-derived rather than patched.

Minimization is maintained exactly: the maintainer keeps a *shadow
store* of every current raw violation (with the set of constraints
supporting it) and the hypergraph holds the minimal ones.  When an FK
edge is cured, previously-subsumed supersets resurface; when a smaller
violation appears, stored supersets are demoted back to the shadow.
The shadow is indexed by constraint label, and per-constraint
stored/found counters are maintained through every mutation path --
surfacing statistics costs O(constraints), not O(current violations).

Deltas arrive in one shape, the change-feed record
(:class:`~repro.engine.feed.FeedRecord`), through one entry point,
:meth:`IncrementalDetector.apply_records` -- the in-process engine and
:mod:`repro.conflicts.replica` both hand it their poll batches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, cast

from repro.constraints.denial import DenialConstraint, to_denial_constraints
from repro.constraints.foreign_key import (
    ForeignKeyConstraint,
    topological_fk_order,
)
from repro.conflicts.detection import (
    DetectionReport,
    dangling_child_tids,
    ensure_edge_in_restricted_class,
)
from repro.conflicts.hypergraph import ConflictHypergraph, Vertex, vertex
from repro.engine.changelog import OP_INSERT
from repro.engine.feed import RECORD_CHANGE, FeedRecord
from repro.engine.database import Database
from repro.engine.expressions import Scope, bound_entries
from repro.engine.plan import PlanNode
from repro.engine.planner import TID, Planner
from repro.ra.compile import unrestricted
from repro.ra.sjud import Atom, SJUDCore
from repro.ra.to_sql import core_to_select
from repro.sql import ast


@dataclass
class DeltaStats:
    """What one incremental application did (surfaced on the report)."""

    deltas: int = 0
    vertices: int = 0
    retracted: int = 0
    added: int = 0
    subsumed: int = 0
    resurrected: int = 0
    fk_components: int = 0
    seconds: float = 0.0
    per_constraint: dict[str, int] = field(default_factory=dict)
    per_constraint_subsumed: dict[str, int] = field(default_factory=dict)


class _DenialMatcher:
    """One denial constraint's body, planned around each atom a delta binds.

    For every atom, the body over the *other* atoms is rendered as a
    residual-join SELECT (:func:`~repro.ra.to_sql.core_to_select`, one
    tid column per atom) and planned once, here, by the engine's one
    :class:`~repro.engine.planner.Planner`, with the bound atom's columns
    as the outer row.  An equality to a bound column picks an index the
    way a literal does, the other atoms join through the planner's
    ordinary access rule, and every other conjunct is a filter -- the
    same evaluation full detection runs.  A delta runs the plan on its
    row; each result row is the tids of one violation's other atoms.

    The FROM order puts each atom after one it is ``=``-linked to (the
    bound atom or an earlier one) wherever that is possible, since the
    planner joins in FROM order.  The indexes those joins probe -- one
    per atom and linked partner, on the linked columns (an FD's left
    side) -- are created before planning, at detector attach, so the
    first post-bulk-load delta builds nothing.
    """

    def __init__(self, db: Database, constraint: DenialConstraint) -> None:
        atoms = constraint.atoms
        self.relations = [a.relation.lower() for a in atoms]
        tables = [db.catalog.table(a.relation) for a in atoms]
        number = {a.alias.lower(): i for i, a in enumerate(atoms)}

        def end(ref: ast.ColumnRef) -> tuple[int, int]:
            atom = number[cast(str, ref.table).lower()]  # validated qualified
            return atom, tables[atom].schema.index_of(ref.name)

        # (atom, linked atom) -> the atom's columns the condition equates.
        linked: dict[tuple[int, int], set[int]] = {}
        for conjunct in ast.split_conjuncts(constraint.condition):
            if (
                isinstance(conjunct, ast.BinaryOp)
                and conjunct.op == "="
                and isinstance(conjunct.left, ast.ColumnRef)
                and isinstance(conjunct.right, ast.ColumnRef)
            ):
                (a, left), (b, right) = end(conjunct.left), end(conjunct.right)
                if a != b:
                    linked.setdefault((a, b), set()).add(left)
                    linked.setdefault((b, a), set()).add(right)
        for (atom, _other), positions in linked.items():
            tables[atom].create_index(sorted(positions))

        planner = Planner(db.catalog, db.stats, tids=unrestricted)
        self._plans: list[tuple[PlanNode, list[str]]] = []
        for bound, atom in enumerate(atoms):
            order = [bound]
            while len(order) < len(atoms):
                # The atom linked to most of those placed (first on a tie).
                order.append(
                    max(
                        (i for i in range(len(atoms)) if i not in order),
                        key=lambda i: sum((i, j) in linked for j in order),
                    )
                )
            others = tuple(Atom(atoms[i].alias, atoms[i].relation) for i in order[1:])
            select = core_to_select(
                SJUDCore(others, constraint.condition, ()),
                distinct=False,
                tid_column=TID,
            )
            schema = tables[bound].schema
            outer = Scope(
                bound_entries(atom.alias, schema.column_names),
                types=[column.sql_type for column in schema.columns],
            )
            planned = planner.plan_query(ast.Query(select), outer_scope=outer)
            relations = [self.relations[i] for i in order[1:]]
            self._plans.append((planned.plan, relations))

    def atom_positions(self, relation: str) -> list[int]:
        """Atom indexes whose relation matches (a delta can bind any)."""
        return [
            index for index, rel in enumerate(self.relations) if rel == relation
        ]

    def new_edges(
        self, bound_index: int, tid: int, row: tuple
    ) -> Iterator[frozenset[Vertex]]:
        """Violation sets containing ``(tid, row)`` at atom ``bound_index``."""
        node, relations = self._plans[bound_index]
        bound = vertex(self.relations[bound_index], tid)
        for tids in node.rows((row,)):
            yield frozenset((bound, *map(vertex, relations, tids)))


class IncrementalDetector:
    """Maintains a conflict hypergraph under a stream of row deltas.

    Bootstrap from a full :func:`~repro.conflicts.detection.detect_conflicts`
    run (with ``keep_raw=True``), then feed poll batches of change
    records through :meth:`apply_records`.  The maintained :attr:`graph`
    is always equal to what full re-detection would produce on the
    current database state (the equivalence suite asserts exactly that).

    Raises (from :meth:`apply_records`):
        ConstraintError: when a delta pushes the database outside the
            restricted foreign-key class -- exactly when full
            re-detection on the new state would raise.
    """

    def __init__(
        self,
        db: Database,
        constraints: Iterable[object],
        extra_referenced: Iterable[str] = (),
    ) -> None:
        self.db = db
        constraint_list = list(constraints)
        self.foreign_keys = [
            c for c in constraint_list if isinstance(c, ForeignKeyConstraint)
        ]
        self.denials = to_denial_constraints(
            c for c in constraint_list if not isinstance(c, ForeignKeyConstraint)
        )
        self.fk_labels = frozenset(str(fk) for fk in self.foreign_keys)
        # ``extra_referenced``: FK-referenced relations owned by other
        # shard workers -- the restricted-class check must reject a
        # choice conflict on them exactly like the monolith does.
        self.referenced = frozenset(
            fk.referenced.lower() for fk in self.foreign_keys
        ) | frozenset(relation.lower() for relation in extra_referenced)
        self.constraint_names = [d.name for d in self.denials] + [
            str(fk) for fk in self.foreign_keys
        ]
        # relation -> denial constraints mentioning it (constraint order).
        self._by_relation: dict[str, list[DenialConstraint]] = {}
        for denial in self.denials:
            for relation in dict.fromkeys(
                a.relation.lower() for a in denial.atoms
            ):
                self._by_relation.setdefault(relation, []).append(denial)
        # Matchers are planned (and the indexes their plans probe built)
        # eagerly from the constraint set at attach time: the detector is
        # only ever constructed next to an O(N) full detection, so the
        # index builds ride the bootstrap instead of ambushing the first
        # post-bulk-load delta.  The indexes are ordinary storage indexes,
        # so every other plan's access rule shares them.
        self._matchers = {d.name: _DenialMatcher(db, d) for d in self.denials}
        self._build_fk_components()
        # Shadow store: every *current* raw violation, minimal or not.
        # edge -> (primary label, set of supporting constraint labels).
        self._shadow: dict[frozenset[Vertex], tuple[str, set[str]]] = {}
        self._shadow_incidence: dict[Vertex, set[frozenset[Vertex]]] = {}
        # Label index over the shadow: constraint -> the edges it
        # supports (insertion-ordered).  ``len`` of an entry is the
        # constraint's *found* count, so per-constraint counters fall out
        # of the index instead of an O(current violations) recount.
        self._shadow_by_label: dict[str, dict[frozenset[Vertex], None]] = {}
        # Stored (post-minimization) edge count per primary label,
        # maintained through _graph_add/_graph_remove.
        self._stored: dict[str, int] = {}
        self.graph: Optional[ConflictHypergraph] = None

    # ----------------------------------------------------------- bootstrap

    def bootstrap(self, report: DetectionReport) -> None:
        """Adopt a full-detection result as the maintained state.

        ``report`` must carry the raw violation stream
        (``detect_conflicts(..., keep_raw=True)``).
        """
        if report.raw_edges is None or report.raw_labels is None:
            raise ValueError("bootstrap needs a report with keep_raw=True")
        self.graph = report.hypergraph
        self._shadow.clear()
        self._shadow_incidence.clear()
        self._shadow_by_label.clear()
        for edge, label in zip(report.raw_edges, report.raw_labels):
            entry = self._shadow.get(edge)
            if entry is None:
                self._shadow[edge] = (label, {label})
                for v in edge:
                    self._shadow_incidence.setdefault(v, set()).add(edge)
            else:
                entry[1].add(label)
            self._shadow_by_label.setdefault(label, {})[edge] = None
        self._stored = {name: 0 for name in self.constraint_names}
        for label in self.graph.edge_labels:
            self._stored[label] = self._stored.get(label, 0) + 1

    # --------------------------------------------------------------- apply

    def apply_records(self, records: Sequence[FeedRecord]) -> DeltaStats:
        """Fold a batch of change-feed records into the hypergraph.

        Records come straight from
        :meth:`~repro.engine.feed.FeedConsumer.poll`.  The caller is
        responsible for schema records (DDL means full re-detection,
        not delta maintenance) -- they are rejected here, before
        anything is touched.

        Raises:
            ValueError: when a non-change record is in the batch.
        """
        assert self.graph is not None, "bootstrap before apply_records"
        started = time.perf_counter()
        stats = DeltaStats(deltas=len(records))

        # Net effect per tuple: only the last change matters (an UPDATE
        # arrives as delete + insert under the same tid, so its final
        # state is the inserted row; tids are never reused).
        last: dict[Vertex, FeedRecord] = {}
        for record in records:
            if record.kind != RECORD_CHANGE:
                raise ValueError(
                    f"cannot apply {record.kind!r} record incrementally"
                )
            # Feed topics are lower-cased at publish time (storage lowers
            # schema names), and this is the per-delta hot path.
            # hippolint: disable-next-line=HL005 -- topic already lower-case
            last[Vertex(record.topic, record.tid)] = record
        stats.vertices = len(last)

        # 1) Retract everything incident to a changed tuple.  This keeps
        # the shadow invariant without any resurrection logic: a shadow
        # superset of a retracted edge shares the changed vertex, so it
        # is retracted too.
        for v in last:
            for edge in list(self._shadow_incidence.get(v, ())):
                self._shadow_remove(edge)
                if self._graph_remove(edge):
                    stats.retracted += 1

        # 2) Re-derive denial violations around inserted/updated tuples.
        for v, record in last.items():
            if record.op != OP_INSERT:
                continue
            for constraint in self._by_relation.get(v.relation, ()):
                matcher = self._matchers[constraint.name]
                for bound_index in matcher.atom_positions(v.relation):
                    for edge in matcher.new_edges(
                        bound_index, v.tid, record.row
                    ):
                        self._check_restricted(edge)
                        outcome = self._add_raw(edge, constraint.name)
                        if outcome == "added":
                            stats.added += 1
                        elif outcome == "subsumed":
                            stats.subsumed += 1

        # 3) Re-derive the dangling chains of affected FK components.
        # Singleton denial edges feed the chains, but a singleton can
        # only appear or vanish together with its (changed) vertex, so
        # the touched relations already cover every trigger.
        touched = {v.relation for v in last}
        affected = sorted(
            {
                self._component_of[relation]
                for relation in touched
                if relation in self._component_of
            }
        )
        stats.fk_components = len(affected)
        for component in affected:
            self._rederive_component(component, stats)

        self._counters(stats)
        stats.seconds = time.perf_counter() - started
        return stats

    # ------------------------------------------------------------ plumbing

    def _check_restricted(self, edge: frozenset[Vertex]) -> None:
        """The same restricted-FK class check full detection performs."""
        if self.referenced:
            ensure_edge_in_restricted_class(edge, self.referenced)

    def _graph_add(self, edge: frozenset[Vertex], label: str) -> bool:
        """``graph.add_edge`` maintaining the per-label stored counters."""
        assert self.graph is not None
        if self.graph.add_edge(edge, label):
            self._stored[label] = self._stored.get(label, 0) + 1
            return True
        return False

    def _graph_remove(self, edge: frozenset[Vertex]) -> bool:
        """``graph.remove_edge`` maintaining the per-label stored counters."""
        assert self.graph is not None
        if not self.graph.contains_edge(edge):
            return False
        self._stored[self.graph.label_of(edge)] -= 1
        self.graph.remove_edge(edge)
        return True

    def _graph_relabel(self, edge: frozenset[Vertex], label: str) -> None:
        """Swap a stored edge's primary label, keeping counters exact."""
        if self._graph_remove(edge):
            self._graph_add(edge, label)

    def _shadow_remove(self, edge: frozenset[Vertex]) -> tuple[str, set[str]]:
        entry = self._shadow.pop(edge)
        for v in edge:
            owners = self._shadow_incidence.get(v)
            if owners is not None:
                owners.discard(edge)
                if not owners:
                    del self._shadow_incidence[v]
        for label in entry[1]:
            supported = self._shadow_by_label.get(label)
            if supported is not None:
                supported.pop(edge, None)
        return entry

    def _add_raw(self, edge: frozenset[Vertex], label: str) -> str:
        """Record a raw violation; maintain the minimal stored view.

        Returns ``"added"`` (now stored), ``"subsumed"`` (a smaller
        stored edge absorbs it), ``"duplicate"`` (another constraint
        already derived it) or ``"known"`` (nothing new).
        """
        assert self.graph is not None
        entry = self._shadow.get(edge)
        if entry is not None:
            primary, supports = entry
            if label in supports:
                return "known"
            supports.add(label)
            self._shadow_by_label.setdefault(label, {})[edge] = None
            # Full detection derives denial edges before FK danglings, so
            # a denial support always outranks an FK primary.
            if primary in self.fk_labels and label not in self.fk_labels:
                self._shadow[edge] = (label, supports)
                self._graph_relabel(edge, label)
            return "duplicate"
        self._shadow[edge] = (label, {label})
        for v in edge:
            self._shadow_incidence.setdefault(v, set()).add(edge)
        self._shadow_by_label.setdefault(label, {})[edge] = None
        if self.graph.subset_edges(edge):
            return "subsumed"
        for superset in self.graph.superset_edges(edge):
            # Demoted back to the shadow; resurfaces if ``edge`` is cured.
            self._graph_remove(superset)
        self._graph_add(edge, label)
        return "added"

    def _retract_support(
        self, edge: frozenset[Vertex], labels: frozenset[str], stats: DeltaStats
    ) -> None:
        """Withdraw some constraints' support for an edge (FK re-derivation)."""
        assert self.graph is not None
        primary, supports = self._shadow[edge]
        withdrawn = supports & labels
        supports -= labels
        for label in withdrawn:
            supported = self._shadow_by_label.get(label)
            if supported is not None:
                supported.pop(edge, None)
        if supports:
            if primary in labels:
                # Keep a deterministic primary: the first remaining
                # supporter in constraint order (matches full detection).
                for name in self.constraint_names:
                    if name in supports:
                        self._shadow[edge] = (name, supports)
                        self._graph_relabel(edge, name)
                        break
            return
        self._shadow_remove(edge)
        if self._graph_remove(edge):
            stats.retracted += 1
            stats.resurrected += self._resurrect(edge)

    def _resurrect(self, removed: frozenset[Vertex]) -> int:
        """Promote shadow supersets of a cured edge back into the view.

        Only needed when an edge disappears while its vertices survive
        (an FK dangling cured by a parent insertion): supersets it was
        subsuming may now be minimal.
        """
        assert self.graph is not None
        probe = next(iter(removed))
        candidates = sorted(
            (
                edge
                for edge in self._shadow_incidence.get(probe, ())
                if removed < edge
            ),
            key=len,
        )
        count = 0
        for edge in candidates:
            if self.graph.contains_edge(edge):
                continue
            if self.graph.subset_edges(edge):
                continue  # still subsumed by another stored edge
            self._graph_add(edge, self._shadow[edge][0])
            count += 1
        return count

    # ------------------------------------------------------- foreign keys

    def _build_fk_components(self) -> None:
        """Weakly-connected components of the FK reference graph."""
        self._fk_order = topological_fk_order(self.foreign_keys)
        parent: dict[str, str] = {}

        def find(relation: str) -> str:
            root = relation
            while parent.setdefault(root, root) != root:
                root = parent[root]
            parent[relation] = root
            return root

        for fk in self.foreign_keys:
            left = find(fk.referencing.lower())
            right = find(fk.referenced.lower())
            if left != right:
                parent[left] = right
        roots = sorted({find(relation) for relation in parent})
        component_ids = {root: index for index, root in enumerate(roots)}
        self._component_of = {
            relation: component_ids[find(relation)] for relation in parent
        }
        self._component_fks: dict[int, list[ForeignKeyConstraint]] = {}
        self._component_labels: dict[int, frozenset[str]] = {}
        for fk in self._fk_order:  # keep topological order per component
            component = self._component_of[fk.referencing.lower()]
            self._component_fks.setdefault(component, []).append(fk)
        for component, fks in self._component_fks.items():
            self._component_labels[component] = frozenset(
                str(fk) for fk in fks
            )

    def _rederive_component(self, component: int, stats: DeltaStats) -> None:
        """Retract and recompute one FK component's dangling chain."""
        assert self.graph is not None
        labels = self._component_labels[component]
        # The label index makes the stale set direct: only edges some
        # component FK actually supports, not a scan of the whole shadow.
        stale: dict[frozenset[Vertex], None] = {}
        for fk in self._component_fks[component]:
            for edge in self._shadow_by_label.get(str(fk), {}):
                stale.setdefault(edge, None)
        for edge in list(stale):
            self._retract_support(edge, labels, stats)

        # Deterministic deletions feeding the chain: singleton denial
        # edges (any relation; the chain only reads its own parents).
        deleted: dict[str, set[int]] = {}
        for edge, label in zip(self.graph.edges, self.graph.edge_labels):
            if len(edge) == 1 and label not in self.fk_labels:
                (v,) = edge
                deleted.setdefault(v.relation, set()).add(v.tid)

        for fk in self._component_fks[component]:
            label = str(fk)
            child_key = fk.referencing.lower()
            for tid in dangling_child_tids(self.db, fk, deleted):
                outcome = self._add_raw(
                    frozenset({vertex(child_key, tid)}), label
                )
                if outcome == "added":
                    stats.added += 1
                elif outcome == "subsumed":
                    stats.subsumed += 1

    # ------------------------------------------------------------ counters

    def _counters(self, stats: DeltaStats) -> None:
        """Surface the maintained per-constraint counters on the stats.

        ``stored`` is kept exact by :meth:`_graph_add` /
        :meth:`_graph_remove`; ``found`` is the size of each label's
        shadow index entry -- so this is O(constraints) per apply, not
        O(current violations) as the recounting pass it replaced was.
        """
        stats.per_constraint = {
            name: self._stored.get(name, 0) for name in self.constraint_names
        }
        stats.per_constraint_subsumed = {
            name: len(self._shadow_by_label.get(name, {}))
            - self._stored.get(name, 0)
            for name in self.constraint_names
        }
