"""Grounding: candidate tuple x SJUD query -> boolean membership formula.

Because Hippo's query class restricts projection to be non-existential,
a candidate answer determines, for every atom of every core, the *unique*
witness tuple that could have produced it (see
:func:`repro.ra.sjud.reconstruction_map`).  Grounding therefore reduces
``candidate in Q(M)`` to a quantifier-free boolean combination of ground
membership atoms:

* core ``pi(sigma(R1 x .. x Rk))``: reconstruct each atom's tuple from the
  candidate; if the core's condition fails on the reconstruction the core
  contributes FALSE, otherwise it contributes ``R1(t1) AND .. AND Rk(tk)``;
* ``Q1 UNION Q2`` contributes ``Phi1 OR Phi2``;
* ``Q1 EXCEPT Q2`` contributes ``Phi1 AND NOT Phi2``.

The resulting formula's size depends only on the query, never on the
data -- the linchpin of Hippo's polynomial data complexity.  So does its
shape, up to which cores contribute FALSE: :class:`GroundQuery` builds the
formula once per such case over numbered atom *slots* and, per candidate,
only reconstructs the slot facts and picks the case.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Optional, Union

from repro.core import formula as fm
from repro.core.facts import Fact
from repro.engine.expressions import ExpressionCompiler, Scope
from repro.sql import ast
from repro.ra.sjud import (
    Difference,
    SJUDCore,
    SJUDTree,
    SchemaProvider,
    Source,
    Union_,
    reconstruction_map,
)

#: The query's set-operation shape over core numbers: a core's index into
#: ``GroundQuery._cores``, or an ("union" | "difference", left, right) node.
_Shape = Union[int, tuple[str, "_Shape", "_Shape"]]


def _values_picker(sources: list[Source]) -> Callable[[tuple], tuple]:
    """``candidate -> the atom tuple`` it determines, for one atom's sources."""
    if len(sources) > 1 and all(kind == "slot" for kind, _payload in sources):
        return itemgetter(*(position for _kind, position in sources))
    return lambda candidate: tuple(
        candidate[payload] if kind == "slot" else payload
        for kind, payload in sources
    )


def _pinned(
    conjunct: ast.Expression, source_of: Callable[[ast.ColumnRef], Source]
) -> bool:
    """Whether ``conjunct`` is ``column = literal`` with the column
    reconstructed as that very (non-NULL) literal: true for every candidate."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return False
    column, literal = conjunct.left, conjunct.right
    if isinstance(column, ast.Literal):
        column, literal = literal, column
    if not (
        isinstance(column, ast.ColumnRef)
        and isinstance(literal, ast.Literal)
        and literal.value is not None
    ):
        return False
    kind, value = source_of(column)
    return (
        kind == "const"
        and type(value) is type(literal.value)
        and value == literal.value
    )


class _GroundCore:
    """Pre-compiled grounding for one core.

    ``slots`` are the query-wide numbers of the core's atoms, in atom
    order: ``facts[slots[i]]`` of a ground formula is atom ``i``'s
    reconstructed tuple.
    """

    def __init__(
        self, core: SJUDCore, schema: SchemaProvider, first_slot: int
    ) -> None:
        self.core = core
        self.slots = range(first_slot, first_slot + len(core.atoms))
        recon = reconstruction_map(core, schema)
        sources = [recon[atom.alias.lower()] for atom in core.atoms]
        self.atom_plans: list[tuple[str, Callable[[tuple], tuple]]] = [
            (atom.relation.lower(), _values_picker(plan))
            for atom, plan in zip(core.atoms, sources)
        ]
        # The condition is evaluated over the reconstructed concatenation
        # of all atom tuples, laid out atom by atom.
        entries: list[tuple[Optional[str], str]] = []
        offsets: dict[tuple[str, str], int] = {}
        for atom in core.atoms:
            for column in schema.relation_columns(atom.relation):
                offsets[(atom.alias.lower(), column.lower())] = len(entries)
                entries.append((atom.alias.lower(), column.lower()))
        reconstructed = [source for plan in sources for source in plan]

        def source_of(ref: ast.ColumnRef) -> Source:
            return reconstructed[offsets[(ref.table.lower(), ref.name.lower())]]

        # A conjunct the reconstruction satisfies by construction is not
        # re-evaluated per candidate.
        residual = ast.conjunction(
            [
                conjunct
                for conjunct in ast.split_conjuncts(core.condition)
                if not _pinned(conjunct, source_of)
            ]
        )
        self.condition: Optional[Callable] = None
        if residual is not None:
            compiler = ExpressionCompiler(Scope(entries))
            self.condition = compiler.compile_predicate(residual)
        # Output re-projection check: candidate values must agree with the
        # reconstruction (a candidate produced by *another* branch of a
        # union/difference may contradict this core's pinned constants).
        # The reconstructed value at an offset is itself a constant or a
        # candidate position, so each check reads the candidate alone --
        # and one comparing a position with itself is dropped here.
        self.projection_checks: list[tuple[int, Source]] = []
        for index, column in enumerate(core.outputs):
            source = column.source
            expected = (
                ("const", source.value)
                if isinstance(source, ast.Literal)
                else source_of(source)
            )
            if expected != ("slot", index):
                self.projection_checks.append((index, expected))

    def reconstruct(self, candidate: tuple) -> list[Fact]:
        """The unique witness facts for this candidate."""
        return [
            # atom_plans lower-cases every relation when the plan is built.
            # hippolint: disable-next-line=HL005 -- relation already lower-case
            Fact(relation, pick(candidate))
            for relation, pick in self.atom_plans
        ]

    def produces(self, candidate: tuple, facts: list[Fact]) -> bool:
        """Whether this core can produce ``candidate`` from ``facts`` (its
        reconstruction): projection agrees and the condition holds."""
        for index, (kind, payload) in self.projection_checks:
            expected = candidate[payload] if kind == "slot" else payload
            if candidate[index] != expected:
                return False
        if self.condition is None:
            return True
        concatenated = tuple(value for fact_ in facts for value in fact_.values)
        return bool(self.condition((concatenated,)))


class GroundQuery:
    """A query prepared for repeated grounding (one per input query).

    Every atom of every core is numbered as a *slot*.  A candidate only
    decides which fact fills each slot and which cores are *live* (can
    produce it: projection check + condition); the formula over slots is
    fixed by that liveness mask, so it is built -- and normalised, see
    :class:`~repro.core.formula.Template` -- once per mask, not once per
    candidate.
    """

    def __init__(self, tree: SJUDTree, schema: SchemaProvider) -> None:
        self._cores: list[_GroundCore] = []
        self._shape = self._prepare(tree, schema)
        self._templates: dict[int, fm.Template] = {}

    def _prepare(self, tree: SJUDTree, schema: SchemaProvider) -> _Shape:
        if isinstance(tree, SJUDCore):
            first_slot = self._cores[-1].slots.stop if self._cores else 0
            self._cores.append(_GroundCore(tree, schema, first_slot))
            return len(self._cores) - 1
        if isinstance(tree, Union_):
            return (
                "union",
                self._prepare(tree.left, schema),
                self._prepare(tree.right, schema),
            )
        if isinstance(tree, Difference):
            return (
                "difference",
                self._prepare(tree.left, schema),
                self._prepare(tree.right, schema),
            )
        raise TypeError(f"cannot ground {type(tree).__name__}")

    def _template(self, live: int) -> fm.Template:
        """The formula over slots when exactly the cores in ``live`` (a
        bit mask over core numbers) can produce the candidate."""

        def recurse(node: _Shape) -> fm.Formula[int]:
            if isinstance(node, int):
                if not live >> node & 1:
                    return fm.FALSE
                return fm.conj(fm.AtomF(slot) for slot in self._cores[node].slots)
            op, left, right = node
            if op == "union":
                return fm.disj([recurse(left), recurse(right)])
            return fm.conj([recurse(left), fm.negate(recurse(right))])

        return fm.Template(recurse(self._shape))

    def formula_for(self, candidate: tuple) -> fm.Ground:
        """The membership formula ``Phi`` with ``t in Q(M) iff M |= Phi``,
        compiled: the query's template for this candidate's live cores
        plus the fact in each slot (``.formula`` is the tree)."""
        facts: list[Fact] = []
        live = 0
        for number, core in enumerate(self._cores):
            core_facts = core.reconstruct(candidate)
            if core.produces(candidate, core_facts):
                live |= 1 << number
            facts += core_facts
        template = self._templates.get(live)
        if template is None:
            template = self._templates[live] = self._template(live)
        return fm.Ground(template, facts)
