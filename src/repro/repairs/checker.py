"""Repair validity checks and ground-truth consistent answers."""

from __future__ import annotations

from typing import Iterable, Optional

from repro.conflicts.detection import violations_of
from repro.conflicts.hypergraph import ConflictHypergraph, vertex
from repro.constraints.denial import to_denial_constraints
from repro.constraints.foreign_key import ForeignKeyConstraint
from repro.engine.database import Database
from repro.ra.compile import evaluate_tree
from repro.ra.sjud import SJUDTree
from repro.repairs.enumerate import Repair, all_repairs, repair_restriction


def satisfies_constraints(
    db: Database, constraints: Iterable[object], repair: Repair
) -> bool:
    """Whether the restricted instance satisfies every constraint.

    Implemented from first principles (re-running violation detection on
    the restriction), independent of the hypergraph, so tests can use it
    as an oracle against the hypergraph-based machinery.  Foreign keys
    are checked as inclusion dependencies over the kept tuples.
    """
    foreign_keys = [c for c in constraints if isinstance(c, ForeignKeyConstraint)]
    denials = to_denial_constraints(
        c for c in constraints if not isinstance(c, ForeignKeyConstraint)
    )
    for constraint in denials:
        for edge in violations_of(db, constraint):
            if all(v.tid in repair.get(v.relation, frozenset()) for v in edge):
                return False
    for fk in foreign_keys:
        child = db.catalog.table(fk.referencing)
        parent = db.catalog.table(fk.referenced)
        child_indexes = [child.schema.index_of(c) for c in fk.columns]
        parent_indexes = [parent.schema.index_of(c) for c in fk.ref_columns]
        kept_parent = repair.get(fk.referenced.lower(), frozenset())
        parent_keys = {
            tuple(row[i] for i in parent_indexes)
            for tid, row in parent.items()
            if tid in kept_parent
        }
        for tid, row in child.items():
            if tid not in repair.get(fk.referencing.lower(), frozenset()):
                continue
            key = tuple(row[i] for i in child_indexes)
            if None in key:
                continue  # MATCH SIMPLE: NULL keys reference nothing
            if key not in parent_keys:
                return False
    return True


def is_repair(
    db: Database,
    constraints: Iterable[object],
    hypergraph: ConflictHypergraph,
    repair: Repair,
) -> bool:
    """Whether ``repair`` is consistent *and* maximal (a true repair)."""
    if not satisfies_constraints(db, constraints, repair):
        return False
    # Maximality: adding back any deleted tuple must create a violation,
    # i.e. some hyperedge must become fully contained.
    for name in db.catalog.table_names():
        key = name.lower()
        kept = repair.get(key, frozenset())
        table = db.catalog.table(name)
        kept_vertices = {
            vertex(rel, tid) for rel, tids in repair.items() for tid in tids
        }
        for tid in table.tids():
            if tid in kept:
                continue
            candidate = vertex(key, tid)
            restored = kept_vertices | {candidate}
            if hypergraph.is_independent(restored):
                return False
    return True


def ground_truth_consistent_answers(
    db: Database,
    hypergraph: ConflictHypergraph,
    tree: SJUDTree,
    limit: Optional[int] = 200_000,
) -> frozenset[tuple]:
    """Definitional consistent answers: intersect Q over every repair.

    Exponential in the number of conflicts; use on small instances only
    (this is the oracle Hippo is validated against, not part of the fast
    path).
    """
    repairs = all_repairs(db, hypergraph, limit)
    answers: Optional[frozenset[tuple]] = None
    for repair in repairs:
        rows = evaluate_tree(tree, db, repair_restriction(repair))
        answers = rows if answers is None else (answers & rows)
        if not answers:
            return frozenset()
    return answers if answers is not None else frozenset()
