"""Denial constraints: the constraint class Hippo supports.

A denial constraint forbids a combination of tuples:

    forall t1..tk:  NOT ( R1(t1) AND ... AND Rk(tk) AND phi(t1..tk) )

where ``phi`` is a quantifier-free condition over the tuple variables.
Functional dependencies and exclusion constraints are special cases (see
:mod:`repro.constraints.fd` and :mod:`repro.constraints.exclusion`).

A *violation* is a set of tuples jointly satisfying the body; violations
become the hyperedges of the conflict hypergraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import ConstraintError
from repro.sql import ast
from repro.sql.formatter import format_expression


@dataclass(frozen=True)
class ConstraintAtom:
    """One tuple variable of a denial constraint's body."""

    alias: str
    relation: str


@dataclass(frozen=True)
class DenialConstraint:
    """A denial constraint ``NOT (atoms AND condition)``.

    Attributes:
        name: label used in diagnostics and statistics.
        atoms: the tuple variables (relation occurrences).
        condition: quantifier-free condition over ``ColumnRef(alias, col)``
            references; ``None`` means *true* (any combination violates --
            useful only for degenerate test cases).
    """

    name: str
    atoms: tuple[ConstraintAtom, ...]
    condition: Optional[ast.Expression] = None

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ConstraintError(f"constraint {self.name!r} has no atoms")
        seen = set()
        for atom in self.atoms:
            lowered = atom.alias.lower()
            if lowered in seen:
                raise ConstraintError(
                    f"constraint {self.name!r} repeats alias {atom.alias!r}"
                )
            seen.add(lowered)
        if self.condition is not None:
            self._validate_refs(self.condition, seen)

    def _validate_refs(self, expr: ast.Expression, aliases: set[str]) -> None:
        if ast.contains_subquery(expr):
            raise ConstraintError(
                f"constraint {self.name!r}: the condition must be"
                " quantifier-free (no subqueries)"
            )
        for ref in ast.column_refs(expr):
            if ref.table is None:
                raise ConstraintError(
                    f"constraint {self.name!r}: reference {ref} must be"
                    " qualified with a tuple-variable alias"
                )
            if ref.table.lower() not in aliases:
                raise ConstraintError(
                    f"constraint {self.name!r}: unknown tuple variable"
                    f" {ref.table!r} in {ref}"
                )

    @property
    def arity(self) -> int:
        """Number of tuple variables in the body."""
        return len(self.atoms)

    @property
    def is_binary(self) -> bool:
        """Whether the constraint relates exactly two tuples.

        The PODS'99 query-rewriting baseline applies only to binary
        ("universal binary") constraints; Hippo has no such restriction.
        """
        return self.arity == 2

    def relations(self) -> frozenset[str]:
        """The (lower-cased) relation names mentioned by the body."""
        return frozenset(atom.relation.lower() for atom in self.atoms)

    def __str__(self) -> str:
        body = " AND ".join(f"{a.relation} AS {a.alias}" for a in self.atoms)
        if self.condition is not None:
            body += f" WHERE {format_expression(self.condition)}"
        return f"DENIAL {self.name}: NOT({body})"


def to_denial_constraints(
    constraints: Iterable[object],
) -> list[DenialConstraint]:
    """Normalize a mixed list of constraints to denial constraints.

    Accepts :class:`DenialConstraint` instances directly and anything
    exposing a ``to_denials() -> Sequence[DenialConstraint]`` method
    (functional dependencies, keys, exclusion constraints).

    Raises:
        ConstraintError: for objects of unknown type.
    """
    result: list[DenialConstraint] = []
    for constraint in constraints:
        if isinstance(constraint, DenialConstraint):
            result.append(constraint)
        elif hasattr(constraint, "to_denials"):
            result.extend(constraint.to_denials())
        else:
            raise ConstraintError(
                f"cannot interpret {type(constraint).__name__} as a denial"
                " constraint"
            )
    return result
