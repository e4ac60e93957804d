"""Enveloping: computing candidates (and certain answers) for a query.

    "The processing of the Query starts from Enveloping.  As a result of
    this step we get a query defining Candidates (candidate consistent
    query answers).  This query subsequently undergoes Evaluation by the
    RDBMS."  (Hippo, EDBT 2004)

For every SJUD tree ``Q`` two approximations are evaluated:

* the **envelope** ``Q-up``: a superset of the tuples true in *some*
  repair (hence a superset of the consistent answers) -- these are the
  candidates handed to the Prover;
* the **core** ``Q-down``: a subset of the tuples true in *every* repair
  (hence certain consistent answers) -- candidates found here skip the
  Prover entirely, the paper's "expression selecting a subset of the set
  of consistent query answers ... significantly reduce[s] the number of
  tuples that have to be processed by Prover";
* the **refuted** set ``Q-out``: candidates false in *some* repair, which
  skip the Prover too when consistent answers are asked.

Rules (C a conjunctive core, evaluated by the engine):

    up(C)      = C(DB)                      down(C)    = C(conflict-free DB)
    up(A ∪ B)  = up(A) ∪ up(B)              down(A ∪ B) = down(A) ∪ down(B)
    up(A − B)  = up(A) − down(B)            down(A − B) = down(A) − up(B)

    out(C)     = values with exactly one row in C(DB), that row dirty
    out(A ∪ B) = (out(A) − up(B)) ∪ (out(B) − up(A))
    out(A − B) = out(A) − down(B)

All three are computed in one recursion returning ``(up, down, out)`` per
node, and a core is evaluated once: every row of ``C(DB)`` carries one tid
per atom, and ``C(conflict-free DB)`` is exactly the rows none of whose
tids is conflicting (not *dirty*) -- any witness of a value counts, not
only the first one kept.

Soundness is proved by induction: ``up`` over-approximates possible truth
and ``down`` under-approximates certain truth, with the difference rules
swapping the two (a tuple certainly in ``B`` is certainly not in
``A − B``; a tuple possibly in ``B`` cannot be *certainly* in ``A − B``).
``out`` under-approximates "false in some repair": a dirty tid ``t`` lies
in a stored edge ``e``, every stored edge is minimal, so ``e − {t}``
extends to a repair without ``t`` -- and without the value's only row
(docs/ARCHITECTURE.md, "The envelope: one pass per core").

Envelope evaluation also keeps every core's ``C(DB)`` with the witness
tids of each value (its *provenance*): a core is conjunctive and every
repair is a subset of the database, so a core that does not produce a
candidate over the database is false in every repair, and one that does
names the very tuples the Prover reasons about -- the extended-envelope
optimization answers the Prover's membership checks from them without
database queries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import filterfalse
from typing import AbstractSet, Any, KeysView, Optional, Sequence

from repro.conflicts.hypergraph import ConflictHypergraph
from repro.engine.database import Database
from repro.ra.compile import CoreWitnesses, evaluate_core
from repro.ra.sjud import Difference, SJUDCore, SJUDTree, Union_

#: One core's witness for a candidate: a tid per atom, or None when the
#: core does not produce the candidate over the database.
Provenance = Optional[tuple[int, ...]]


@dataclass
class EnvelopeEvaluation:
    """The result of Enveloping + Evaluation for one query.

    Attributes:
        candidates: envelope rows (``Q-up``), in evaluation order.
        certain: core rows (``Q-down``); guaranteed consistent answers.
        refuted: envelope rows false in some repair (``Q-out``).
            Both are subsets of ``candidates`` and disjoint, and each is
            a set of its own, sharing no storage with a witness map.
        witnesses: every core's ``C(DB)`` (value -> its first witness's
            tids), in tree order -- the core numbering of
            :class:`~repro.core.grounding.GroundQuery`.
        seconds: wall-clock time of the evaluation.
    """

    candidates: KeysView[tuple]
    certain: AbstractSet[tuple]
    refuted: AbstractSet[tuple]
    witnesses: tuple[CoreWitnesses, ...]
    seconds: float = 0.0

    @property
    def candidate_count(self) -> int:
        return len(self.candidates)


class Enveloper:
    """Evaluates envelopes / cores against a database + hypergraph."""

    def __init__(self, db: Database, hypergraph: ConflictHypergraph) -> None:
        self._db = db
        self._hypergraph = hypergraph
        self._clean_tids: dict[str, frozenset[int]] = {}

    # ------------------------------------------------------------ plumbing

    def conflict_free_tids(self, relation: str) -> frozenset[int]:
        """Tids of the conflict-free tuples of ``relation`` (memoized)."""
        key = relation.lower()
        cached = self._clean_tids.get(key)
        if cached is None:
            table = self._db.catalog.table(key)
            conflicting = self._hypergraph.conflicting_tids(key)
            cached = frozenset(
                tid for tid in table.tids() if tid not in conflicting
            )
            self._clean_tids[key] = cached
        return cached

    # ---------------------------------------------------------- evaluation

    def evaluate(self, tree: SJUDTree, compute_core: bool = True) -> EnvelopeEvaluation:
        """Evaluate ``Q-up`` and every core's witnesses, optionally
        ``Q-down`` and ``Q-out``."""
        started = time.perf_counter()
        witnesses: list[CoreWitnesses] = []
        up, down, out = self._evaluate(tree, witnesses)
        elapsed = time.perf_counter() - started
        if not compute_core:
            down, out = set(), set()
        return EnvelopeEvaluation(up.keys(), down, out, tuple(witnesses), elapsed)

    def _evaluate(
        self, tree: SJUDTree, witnesses: list[CoreWitnesses]
    ) -> tuple[dict[tuple, Any], set[tuple], set[tuple]]:
        """``(up, down, out)`` of one node -- ``up``'s keys are the rows --
        with each core's witness map appended to ``witnesses``, left to
        right; every core is evaluated once and its map is never modified."""
        if isinstance(tree, SJUDCore):
            up, down, out = evaluate_core(
                tree, self._db, conflicting=self._hypergraph.conflicting_tids
            )
            witnesses.append(up)
            return up, down, out
        if not isinstance(tree, (Union_, Difference)):
            raise TypeError(f"cannot envelope {type(tree).__name__}")
        up, down, out = self._evaluate(tree.left, witnesses)
        right_up, right_down, right_out = self._evaluate(tree.right, witnesses)
        if isinstance(tree, Union_):
            refuted = out.difference(right_up)
            refuted.update(right_out.difference(up))
            return up | right_up, down | right_down, refuted
        kept = dict.fromkeys(filterfalse(right_down.__contains__, up))
        return kept, down.difference(right_up), out.difference(right_down)


def provenance_hints(
    witnesses: Sequence[CoreWitnesses], candidate: tuple
) -> list[Provenance]:
    """The candidate's witness in every core, None where the core does not
    produce it: the answer to every membership check the Prover will ask
    about this candidate, read off the envelope's own evaluation."""
    return [core.get(candidate) for core in witnesses]
