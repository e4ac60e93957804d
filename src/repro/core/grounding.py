"""Grounding: candidate tuple x SJUD query -> boolean membership formula.

Because Hippo's query class restricts projection to be non-existential,
a candidate answer determines, for every atom of every core, the *unique*
witness tuple that could have produced it (see
:func:`repro.ra.sjud.reconstruction_map`).  Grounding therefore reduces
``candidate in Q(M)`` to a quantifier-free boolean combination of ground
membership atoms:

* core ``pi(sigma(R1 x .. x Rk))``: FALSE if the core does not produce the
  candidate over the database (it is conjunctive and every repair is a
  subset of the database, so it produces it in no repair either),
  otherwise ``R1(t1) AND .. AND Rk(tk)`` over its witness tuples;
* ``Q1 UNION Q2`` contributes ``Phi1 OR Phi2``;
* ``Q1 EXCEPT Q2`` contributes ``Phi1 AND NOT Phi2``.

The envelope already evaluated every core over the database
(:attr:`~repro.core.envelope.EnvelopeEvaluation.witnesses`), so which
cores produce a candidate, and with which tids, is read off its witness
maps (:func:`~repro.core.envelope.provenance_hints`); nothing is
reconstructed or re-checked per candidate.

The resulting formula's size depends only on the query, never on the
data -- the linchpin of Hippo's polynomial data complexity.  So does its
shape, up to which cores contribute FALSE: :class:`GroundQuery` builds the
formula once per such case over numbered atom *slots*, and per candidate
only lays out the witness tids and picks the case.
"""

from __future__ import annotations

from typing import Sequence, Union, cast

from repro.conflicts.hypergraph import Vertex
from repro.core import formula as fm
from repro.core.envelope import Provenance
from repro.ra.sjud import Difference, SJUDCore, SJUDTree, Union_

#: The query's set-operation shape over core numbers: a core's position in
#: tree order, or an ("union" | "difference", left, right) node.
_Shape = Union[int, tuple[str, "_Shape", "_Shape"]]


class GroundQuery:
    """A query prepared for repeated grounding (one per input query).

    A candidate's provenance decides which cores are *live* (produce it
    over the database) and the witness tid of each of their atoms.  The
    live cores' atoms are numbered as *slots*, in core order, and the
    formula over slots is fixed by the liveness mask, so it is built --
    and normalised, see :class:`~repro.core.formula.Template` -- once per
    mask, not once per candidate.  So are the atoms' relations, paired
    with the witness tids only here, for candidates that reach the Prover.
    """

    def __init__(self, tree: SJUDTree) -> None:
        self._relations: list[tuple[str, ...]] = []  # per core, tree order
        self._shape = self._prepare(tree)
        self._templates: dict[int, fm.Template] = {}

    def _prepare(self, tree: SJUDTree) -> _Shape:
        if isinstance(tree, SJUDCore):
            self._relations.append(tuple(a.relation.lower() for a in tree.atoms))
            return len(self._relations) - 1
        if isinstance(tree, Union_):
            return ("union", self._prepare(tree.left), self._prepare(tree.right))
        if isinstance(tree, Difference):
            return (
                "difference",
                self._prepare(tree.left),
                self._prepare(tree.right),
            )
        raise TypeError(f"cannot ground {type(tree).__name__}")

    def _template(self, live: int) -> fm.Template:
        """The formula over slots when exactly the cores in ``live`` (a
        bit mask over core numbers) produce the candidate."""
        first: dict[int, int] = {}
        slots = 0
        for number, relations in enumerate(self._relations):
            if live >> number & 1:
                first[number] = slots
                slots += len(relations)

        def recurse(node: _Shape) -> fm.Formula[int]:
            if isinstance(node, int):
                if node not in first:
                    return fm.FALSE
                start = first[node]
                return fm.conj(
                    fm.AtomF(slot)
                    for slot in range(start, start + len(self._relations[node]))
                )
            op, left, right = node
            if op == "union":
                return fm.disj([recurse(left), recurse(right)])
            return fm.conj([recurse(left), fm.negate(recurse(right))])

        return fm.Template(recurse(self._shape))

    def formula_for(self, provenance: Sequence[Provenance]) -> fm.Ground:
        """The membership formula ``Phi`` with ``t in Q(M) iff M |= Phi`` for
        a candidate with this provenance (one entry per core, see
        :func:`~repro.core.envelope.provenance_hints`), compiled: the
        query's template for its live cores plus the witness vertex in
        each slot (``.formula`` is the tree): plain ``(relation, tid)``
        pairs, which compare and hash as :class:`Vertex` does -- unpack
        them, never read ``.relation`` / ``.tid``."""
        live = 0
        vertices: list[tuple[str, int]] = []
        relations = self._relations
        for number, witness in enumerate(provenance):
            if witness is not None:
                live |= 1 << number
                vertices += zip(relations[number], witness)
        template = self._templates.get(live)
        if template is None:
            template = self._templates[live] = self._template(live)
        return fm.Ground(template, cast(list[Vertex], vertices))
