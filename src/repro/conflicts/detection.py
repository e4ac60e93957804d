"""Conflict Detection: populating the conflict hypergraph.

The paper's data flow (Figure 1) runs Conflict Detection once, before any
query is processed: for every denial constraint, the tuples jointly
violating it are found and stored as hyperedges.  A denial constraint's
body is structurally an SJ query over its atoms, so detection hands it
to the very planner ordinary queries go through
(:func:`~repro.ra.compile.compile_core`: self-joins become hash joins on
the equality conjuncts -- e.g. an FD's ``t1.X = t2.X`` -- and constant
conjuncts probe an index where one exists, which keeps detection
near-linear when conflicts are sparse).  The violations go into a
:class:`~repro.conflicts.hypergraph.ViolationStore`, which keeps the
minimal ones as the hypergraph through incidence lookups; incremental
maintenance then takes the same store over.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backends.mirror import MirrorBackend

from repro.constraints.denial import DenialConstraint, to_denial_constraints
from repro.constraints.foreign_key import ForeignKeyConstraint, topological_fk_order
from repro.conflicts.hypergraph import (
    ConflictHypergraph,
    Vertex,
    ViolationStore,
    vertex,
)
from repro.engine.database import Database
from repro.errors import ConstraintError
from repro.ra.compile import compile_core
from repro.ra.sjud import Atom, SJUDCore


@dataclass
class DetectionReport:
    """What Conflict Detection did (surfaced in benchmarks / examples).

    Attributes:
        hypergraph: the resulting conflict hypergraph.
        per_constraint: constraint name -> number of edges *stored*
            under it (after minimization), in derivation order.
        seconds: wall-clock detection time.
        subsumed: constraint name -> violations found for it that are
            **not** stored under its name, because minimization absorbed
            them into a smaller edge or into an identical edge of an
            earlier constraint.  Without this, a constraint whose every
            violation was absorbed silently reports 0 and benchmarks
            misread minimization as "no violations".
        mode: ``"full"`` (complete re-detection) or ``"incremental"``
            (delta maintenance applied to the existing hypergraph).
        deltas: number of change-log entries applied (incremental mode).
        edges_added / edges_retracted: hyperedge churn of the last
            incremental application (edges entering / leaving the graph).
        store: the violation store behind ``hypergraph``, which an
            :class:`~repro.conflicts.incremental.IncrementalDetector`
            takes over (``None`` for an external hypergraph).
    """

    hypergraph: ConflictHypergraph
    per_constraint: dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    subsumed: dict[str, int] = field(default_factory=dict)
    mode: str = "full"
    deltas: int = 0
    edges_added: int = 0
    edges_retracted: int = 0
    store: Optional[ViolationStore] = None


def split_constraints(
    constraints: Iterable[object],
) -> tuple[list[DenialConstraint], list[ForeignKeyConstraint]]:
    """Denial constraints (list order) and foreign keys (parents first):
    the order detection derives violations in.

    Raises:
        ConstraintError: when the foreign keys reference cyclically.
    """
    constraint_list = list(constraints)
    foreign_keys = topological_fk_order(
        c for c in constraint_list if isinstance(c, ForeignKeyConstraint)
    )
    denials = to_denial_constraints(
        c for c in constraint_list if not isinstance(c, ForeignKeyConstraint)
    )
    return denials, foreign_keys


def derivation_order(constraints: Iterable[object]) -> tuple[str, ...]:
    """Constraint labels in derivation order (:func:`split_constraints`).

    A :class:`~repro.conflicts.hypergraph.ViolationStore` labels each
    edge by its earliest supporter in this order -- in full detection,
    incremental maintenance and the shard merge alike.
    """
    denials, foreign_keys = split_constraints(constraints)
    return tuple(d.name for d in denials) + tuple(str(fk) for fk in foreign_keys)


def violations_of(
    db: Database,
    constraint: DenialConstraint,
    backend: Optional["MirrorBackend"] = None,
) -> list[frozenset[Vertex]]:
    """All violation sets of one denial constraint (not yet minimized).

    The constraint body is structurally an SJ query; with a ``backend``
    its residual join is pushed down there (a decline falls back to
    native evaluation, counted), otherwise it is planned natively like
    any other query.
    """
    core = SJUDCore(
        atoms=tuple(Atom(a.alias, a.relation) for a in constraint.atoms),
        condition=constraint.condition,
        outputs=(),
    )
    relations = [a.relation.lower() for a in constraint.atoms]

    def native() -> Iterable[tuple]:
        return compile_core(core, db).rows(())

    rows = (
        native()
        if backend is None
        else backend.pushdown(lambda: backend.residual_join(core), native)
    )
    results: list[frozenset[Vertex]] = []
    seen: set[frozenset[Vertex]] = set()
    for row in rows:
        edge = frozenset(
            vertex(relation, tid) for relation, tid in zip(relations, row)
        )
        if edge not in seen:
            seen.add(edge)
            results.append(edge)
    return results


def detect_conflicts(
    db: Database,
    constraints: Iterable[object],
    extra_referenced: Iterable[str] = (),
    backend: Optional["MirrorBackend"] = None,
) -> DetectionReport:
    """Run Conflict Detection for a set of constraints.

    ``constraints`` may mix denial constraints, FDs, keys, exclusion
    constraints (anything :func:`to_denial_constraints` accepts) and
    *restricted* foreign keys (see
    :mod:`repro.constraints.foreign_key`), whose dangling tuples become
    singleton hyperedges.

    Args:
        extra_referenced: relations referenced by foreign keys *outside*
            ``constraints`` that the restricted-class check must still
            protect.  A shard worker evaluating only its own constraint
            slice passes the global FK-referenced set here, so a denial
            conflict on a relation some *other* shard's FK references
            raises exactly like monolithic detection would.
        backend: an execution backend to push each denial constraint's
            residual join to (see :mod:`repro.backends`); the FK
            dangling pass always runs natively, and a join the backend
            declines falls back to native evaluation (counted).

    Raises:
        ConstraintError: when a foreign key falls outside the restricted
            class (cyclic references, or a referenced relation involved
            in choice conflicts).
    """
    started = time.perf_counter()
    constraint_list = list(constraints)
    denials, foreign_keys = split_constraints(constraint_list)
    referenced = {fk.referenced.lower() for fk in foreign_keys} | {
        relation.lower() for relation in extra_referenced
    }
    found = [(d.name, violations_of(db, d, backend=backend)) for d in denials]
    store = ViolationStore(derivation_order(constraint_list))
    for name, edges in found:
        for edge in edges:
            if referenced:
                ensure_edge_in_restricted_class(edge, referenced)
            store.add(edge, name)
    derive_danglings(db, store, foreign_keys)
    return DetectionReport(
        store.graph,
        store.stored(),
        time.perf_counter() - started,
        subsumed=store.subsumed(),
        store=store,
    )


def ensure_edge_in_restricted_class(
    edge: frozenset[Vertex], referenced: frozenset[str] | set[str]
) -> None:
    """Reject a multi-tuple conflict touching an FK-referenced relation.

    A referenced relation may only lose tuples deterministically --
    through singleton denial edges or upstream FK dangling -- never
    through a choice conflict (an edge of size >= 2).  Shared by full
    detection and incremental maintenance so both reject identically.

    Raises:
        ConstraintError: when the edge violates the restriction.
    """
    if len(edge) < 2:
        return
    for v in edge:
        if v.relation in referenced:
            raise ConstraintError(
                f"relation {v.relation!r} is referenced by a foreign key"
                " but participates in a multi-tuple conflict: outside"
                " the restricted foreign-key class (repairing such"
                " databases by deletions is not hypergraph-expressible)"
            )


def derive_danglings(
    db: Database, store: ViolationStore, foreign_keys: list[ForeignKeyConstraint]
) -> None:
    """Add the dangling tuples of ``foreign_keys`` to ``store`` as
    singleton edges, one FK at a time in the given (parents-first) order.

    A child dangles when no *surviving* parent carries its key (MATCH
    SIMPLE: a NULL key references nothing).  A parent survives unless it
    is certainly deleted: a singleton edge already in the store (a
    denial's, or an upstream FK's), so chained FKs cascade.  The caller
    has withdrawn these FKs' own earlier danglings and checked the denial
    edges against the restricted class
    (:func:`ensure_edge_in_restricted_class`).  This is the one
    implementation of the dangling semantics, shared by full detection
    and incremental maintenance.
    """
    deleted: dict[str, set[int]] = {}
    for edge in store.graph.edges:
        if len(edge) == 1:
            (v,) = edge
            deleted.setdefault(v.relation, set()).add(v.tid)
    for fk in foreign_keys:
        label = str(fk)
        child = db.catalog.table(fk.referencing)
        parent = db.catalog.table(fk.referenced)
        child_indexes = [child.schema.index_of(c) for c in fk.columns]
        parent_indexes = [parent.schema.index_of(c) for c in fk.ref_columns]
        parent_deleted = deleted.get(fk.referenced.lower(), set())
        surviving_keys = {
            tuple(row[i] for i in parent_indexes)
            for tid, row in parent.items()
            if tid not in parent_deleted
        }
        child_key = fk.referencing.lower()
        for tid, row in child.items():
            key = tuple(row[i] for i in child_indexes)
            if None in key or key in surviving_keys:
                continue
            deleted.setdefault(child_key, set()).add(tid)
            store.add(frozenset({vertex(child_key, tid)}), label)
