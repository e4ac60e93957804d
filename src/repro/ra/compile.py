"""Evaluation of SJUD trees on the engine, with tid provenance.

Hippo hands the envelope query to the RDBMS for evaluation, and that is
literally what happens here: a core is rendered as a SELECT block
(:func:`~repro.ra.to_sql.core_to_select`, the same residual-join form
pushdown backends receive as text) and planned by the engine's one
:class:`~repro.engine.planner.Planner`, so predicate pushdown, hash joins
and access-path choice are the ones ordinary SQL gets.  Each compiled
core's rows carry one trailing *tid column per atom*, which is the
provenance the extended-envelope optimization uses to answer membership
checks without further queries.

Every scan can also be *restricted* to a tid set: evaluating a query over
a repair, over the conflict-free database (``cleaned_answers``), or over
the full instance all go through the same code path.  Both the tid column
and the restriction are planner inputs (``Planner(tids=...)``):
unrestricted sources run over the table's cached columnar batch or an
index, restricted ones stay ``Filter(Scan restricted)``.  The envelope
never restricts: it reads ``Q-down`` off the tids of the unrestricted rows
(:func:`evaluate_core`, ``conflicting=``).

A core is evaluated as columns, not rows: its plan's top projection hands
over the answers and the tid columns in parallel
(:meth:`~repro.engine.plan.Project.split`) -- for an unrestricted
single-table core, the table's stored rows and tid column themselves --
and ``Q-down`` / ``Q-out`` are ``compress`` es over those columns.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from operator import not_, or_
from typing import Callable, Collection, Iterable, Optional, Union, cast

from repro.engine import plan as physical
from repro.engine.database import Database
from repro.engine.planner import TID, Planner, Restriction
from repro.errors import AlgebraError, PlanError
from repro.sql import ast
from repro.ra.sjud import Difference, SJUDCore, SJUDTree, Union_
from repro.ra.to_sql import core_to_select

#: A core's answers: value -> the tids of its first witness, one per atom.
CoreWitnesses = dict[tuple, tuple[int, ...]]


def unrestricted(_relation: str) -> Optional[frozenset[int]]:
    """The identity restriction: scan everything."""
    return None


def compile_core(
    core: SJUDCore,
    db: Database,
    restrict: Restriction = unrestricted,
) -> physical.Project:
    """Plan one core: its SELECT block, handed to the engine's planner.

    Output rows are ``output values + one tid per atom`` (atom order).

    Raises:
        AlgebraError: when the core references a column no atom has.
    """
    select = core_to_select(core, distinct=False, tid_column=TID)
    try:
        planned = Planner(db.catalog, db.stats, tids=restrict).plan_query(
            ast.Query(select)
        )
    except PlanError as exc:
        raise AlgebraError(f"cannot plan core: {exc}") from exc
    # A SELECT block without DISTINCT, GROUP BY or ORDER BY ends in a Project.
    return cast(physical.Project, planned.plan)


def evaluate_core(
    core: SJUDCore,
    db: Database,
    restrict: Restriction = unrestricted,
    conflicting: Optional[Callable[[str], Collection[int]]] = None,
) -> Union[CoreWitnesses, tuple[CoreWitnesses, set[tuple], set[tuple]]]:
    """Evaluate a core, returning ``answer -> witness tids``: the tid tail
    (one per atom) of the *first* row producing the answer, in first-seen
    order (set semantics keeps one witness; the Prover only needs facts
    known to be in the database).

    With ``conflicting`` (relation -> its tids in some conflict) the result
    is ``(witnesses, certain, refuted)``, from the same rows: ``certain``
    holds the answers with *a* witness -- any, not only the first -- free
    of conflicting tids, i.e. the core over the conflict-free database;
    ``refuted`` the answers with exactly one row, that row *dirty* (holding
    a conflicting tid).
    """
    values, tails, columns = compile_core(core, db, restrict).split(
        len(core.outputs), ()
    )
    witnesses = dict(zip(values, tails))
    if len(witnesses) < len(values):  # some value has several witnesses
        # Re-assigning keeps each key's place; the last write is its first.
        witnesses.update(zip(reversed(values), reversed(tails)))
    if conflicting is None:
        return witnesses
    # Per atom with conflicting tids, which rows hold one (the row is dirty).
    hits = [
        map(tids.__contains__, column)
        for column, atom in zip(columns, core.atoms)
        if (tids := conflicting(atom.relation.lower()))
    ]
    if len(witnesses) == len(values):
        # One witness per value: certain iff clean, refuted iff dirty.
        refuted: set[tuple] = set()
        for hit in hits:
            refuted.update(compress(values, hit))
        certain = set(witnesses)  # copies the keys with their stored hashes
        certain -= refuted
        return witnesses, certain, refuted
    clean: Iterable[tuple] = values  # keep the values some clean row produces
    if hits:
        dirty = hits[0]
        for hit in hits[1:]:
            dirty = map(or_, dirty, hit)
        clean = compress(values, map(not_, dirty))
    certain = set(clean)
    once = (value for value, count in Counter(values).items() if count == 1)
    return witnesses, certain, set(once).difference(certain)


def evaluate_tree(
    tree: SJUDTree,
    db: Database,
    restrict: Restriction = unrestricted,
) -> frozenset[tuple]:
    """Evaluate a full SJUD tree to a set of rows (set semantics)."""
    if isinstance(tree, SJUDCore):  # no witnesses: just the values
        values, _tails, _columns = compile_core(tree, db, restrict).split(
            len(tree.outputs), ()
        )
        return frozenset(values)
    if isinstance(tree, Union_):
        return evaluate_tree(tree.left, db, restrict) | evaluate_tree(
            tree.right, db, restrict
        )
    if isinstance(tree, Difference):
        return evaluate_tree(tree.left, db, restrict) - evaluate_tree(
            tree.right, db, restrict
        )
    raise AlgebraError(f"cannot evaluate {type(tree).__name__}")
