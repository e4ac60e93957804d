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
  tuples that have to be processed by Prover".

Rules (C a conjunctive core, evaluated by the engine):

    up(C)      = C(DB)                      down(C)    = C(conflict-free DB)
    up(A ∪ B)  = up(A) ∪ up(B)              down(A ∪ B) = down(A) ∪ down(B)
    up(A − B)  = up(A) − down(B)            down(A − B) = down(A) − up(B)

Both are computed in one recursion returning ``(up, down)`` per node, and a
core is evaluated once: every row of ``C(DB)`` carries one tid per atom, and
``C(conflict-free DB)`` is exactly the rows none of whose tids is
conflicting -- any witness of a value counts, not only the first one kept.

Soundness is proved by induction: ``up`` over-approximates possible truth
and ``down`` under-approximates certain truth, with the difference rules
swapping the two (a tuple certainly in ``B`` is certainly not in
``A − B``; a tuple possibly in ``B`` cannot be *certainly* in ``A − B``).

Envelope evaluation also records, per candidate, the witness tids that
produced it (its *provenance*) -- the extended-envelope optimization uses
them to answer the Prover's membership checks without database queries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.conflicts.hypergraph import ConflictHypergraph, Vertex
from repro.core.facts import Fact
from repro.engine.database import Database
from repro.engine.storage import Table
from repro.ra.compile import evaluate_core
from repro.ra.sjud import Difference, SJUDCore, SJUDTree, Union_

#: candidate value -> witness (relation, tid) pairs, or None if the
#: witness came from a branch we did not track.
Provenance = Optional[tuple[tuple[str, int], ...]]


@dataclass
class EnvelopeEvaluation:
    """The result of Enveloping + Evaluation for one query.

    Attributes:
        candidates: envelope rows (``Q-up``) with their provenance.
        certain: core rows (``Q-down``); guaranteed consistent answers.
        seconds: wall-clock time of the evaluation.
    """

    candidates: dict[tuple, Provenance]
    certain: frozenset[tuple]
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
        """Evaluate ``Q-up`` (with provenance) and optionally ``Q-down``."""
        started = time.perf_counter()
        candidates, certain = self._evaluate(tree)
        elapsed = time.perf_counter() - started
        return EnvelopeEvaluation(
            candidates, frozenset(certain if compute_core else ()), elapsed
        )

    def _evaluate(self, tree: SJUDTree) -> tuple[dict[tuple, Provenance], set[tuple]]:
        """``(up, down)`` of one node; every core is evaluated once."""
        if isinstance(tree, SJUDCore):
            return evaluate_core(
                tree, self._db, conflicting=self._hypergraph.conflicting_tids
            )
        if not isinstance(tree, (Union_, Difference)):
            raise TypeError(f"cannot envelope {type(tree).__name__}")
        up, down = self._evaluate(tree.left)
        right_up, right_down = self._evaluate(tree.right)
        if isinstance(tree, Union_):
            for value, provenance in right_up.items():
                up.setdefault(value, provenance)
            return up, down | right_down
        kept = {
            value: provenance
            for value, provenance in up.items()
            if value not in right_down
        }
        return kept, down.difference(right_up)


def provenance_hints(
    tables: Mapping[str, Table], provenance: Provenance
) -> dict[Fact, Vertex]:
    """Translate a candidate's provenance into membership hints.

    Each witness tid is turned into the fact it stores, so the Prover's
    positive membership checks about those facts are answered for free;
    a tid that has vanished since the envelope ran gives no hint.
    ``tables`` maps lower-case relation names to their tables (resolved
    once per query by the caller, this runs once per candidate).
    """
    hints: dict[Fact, Vertex] = {}
    for relation, tid in provenance or ():
        row = tables[relation].find(tid)
        if row is not None:
            # Provenance relations are lower-cased by evaluate_core.
            # hippolint: disable-next-line=HL005 -- relation already lower-case
            hints[Fact(relation, row)] = Vertex(relation, tid)
    return hints
