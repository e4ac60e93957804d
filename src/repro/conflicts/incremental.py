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

Minimization and labels are the business of the
:class:`~repro.conflicts.hypergraph.ViolationStore` full detection
filled: the maintainer takes it over from the report and only tells it
which violations appeared, which tuples changed and which FK danglings
were withdrawn.

Deltas arrive in one shape, the change-feed record
(:class:`~repro.engine.feed.FeedRecord`), through one entry point,
:meth:`IncrementalDetector.apply_records` -- the in-process engine and
:mod:`repro.conflicts.replica` both hand it their poll batches.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator, Sequence, cast

from repro.constraints.denial import DenialConstraint
from repro.constraints.foreign_key import ForeignKeyConstraint
from repro.conflicts.detection import (
    DetectionReport,
    derive_danglings,
    ensure_edge_in_restricted_class,
    split_constraints,
)
from repro.conflicts.hypergraph import Vertex, ViolationStore, vertex
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

    Takes over the :class:`~repro.conflicts.hypergraph.ViolationStore` of
    a full :func:`~repro.conflicts.detection.detect_conflicts` run over
    the same constraints, then folds poll batches of change records into
    it through :meth:`apply_records`.  The maintained ``store.graph`` is
    always equal to what full re-detection would produce on the current
    database state (the equivalence suite asserts exactly that).

    Raises (from :meth:`apply_records`):
        ConstraintError: when a delta pushes the database outside the
            restricted foreign-key class -- exactly when full
            re-detection on the new state would raise.
    """

    def __init__(
        self,
        db: Database,
        constraints: Iterable[object],
        store: ViolationStore,
        extra_referenced: Iterable[str] = (),
    ) -> None:
        self.db = db
        self.store = store
        self.denials, self.foreign_keys = split_constraints(constraints)
        # ``extra_referenced``: FK-referenced relations owned by other
        # shard workers -- the restricted-class check must reject a
        # choice conflict on them exactly like the monolith does.
        self.referenced = frozenset(
            fk.referenced.lower() for fk in self.foreign_keys
        ) | frozenset(relation.lower() for relation in extra_referenced)
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
        # index builds ride it instead of ambushing the first
        # post-bulk-load delta.  The indexes are ordinary storage indexes,
        # so every other plan's access rule shares them.
        self._matchers = {d.name: _DenialMatcher(db, d) for d in self.denials}
        self._build_fk_components()

    # --------------------------------------------------------------- apply

    def apply_records(self, records: Sequence[FeedRecord]) -> DetectionReport:
        """Fold a batch of change-feed records into the hypergraph.

        Records come straight from
        :meth:`~repro.engine.feed.FeedConsumer.poll`.  The caller is
        responsible for schema records (DDL means full re-detection,
        not delta maintenance) -- they are rejected here, before
        anything is touched.

        Raises:
            ValueError: when a non-change record is in the batch.
        """
        started = time.perf_counter()
        store = self.store
        added, dropped = store.added, store.dropped

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

        # 1) Retract everything incident to a changed tuple (a deleted
        # vertex can no longer witness a violation; an updated tuple's
        # old edges are stale).
        for v in last:
            store.retract(v)

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
                        if self.referenced:
                            ensure_edge_in_restricted_class(
                                edge, self.referenced
                            )
                        store.add(edge, constraint.name)

        # 3) Re-derive the dangling chains of affected FK components.
        # Singleton denial edges feed the chains, but a singleton can
        # only appear or vanish together with its (changed) vertex, so
        # the touched relations already cover every trigger.
        touched = {v.relation for v in last}
        for component in sorted(
            {
                self._component_of[relation]
                for relation in touched
                if relation in self._component_of
            }
        ):
            fks = self._component_fks[component]
            labels = [str(fk) for fk in fks]
            stale = dict.fromkeys(
                edge for label in labels for edge in store.supported_by(label)
            )
            for edge in stale:
                store.withdraw(edge, labels)
            derive_danglings(self.db, store, fks)

        return DetectionReport(
            store.graph,
            store.stored(),
            time.perf_counter() - started,
            subsumed=store.subsumed(),
            mode="incremental",
            deltas=len(records),
            edges_added=store.added - added,
            edges_retracted=store.dropped - dropped,
            store=store,
        )

    # ------------------------------------------------------- foreign keys

    def _build_fk_components(self) -> None:
        """Weakly-connected components of the FK reference graph."""
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
        for fk in self.foreign_keys:  # already parents first
            component = self._component_of[fk.referencing.lower()]
            self._component_fks.setdefault(component, []).append(fk)
