"""Restricted foreign-key constraints (the paper's named future work).

    "Future work includes the support for restricted foreign key
    constraints ..."  (Hippo, EDBT 2004)

A foreign key ``R(f1..fn) references S(k1..kn)`` is an *inclusion*
dependency -- not a denial constraint -- so deletion-only repairs
interact with it non-monotonically in general: deleting a referenced
tuple of ``S`` can create brand-new violations in ``R``, and the conflict
hypergraph cannot express that.  The **restricted** case sidesteps the
interaction:

    every relation referenced by a foreign key must itself be free of
    choice-involving conflicts -- it may lose tuples only through its own
    (deterministic) dangling deletions, and the reference graph must be
    acyclic.

Under the restriction, every repair keeps exactly the same set of
referenced tuples, so a tuple of ``R`` is dangling *statically*: its
deletion is forced in every repair, which is precisely a **singleton
hyperedge**.  Detection therefore walks the reference graph in
topological order, accumulating certain deletions, and emits one
singleton violation per dangling tuple; everything downstream (Prover,
envelope, repairs) works unchanged.

The restriction is *verified*, not assumed: detection raises
:class:`~repro.errors.ConstraintError` when a referenced relation has
denial-constraint conflicts or the references are cyclic, explaining why
the general case is out of Hippo's reach (as it was in 2004).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConstraintError


@dataclass(frozen=True)
class ForeignKeyConstraint:
    """``referencing(columns) REFERENCES referenced(ref_columns)``.

    Attributes:
        referencing: the child relation (its dangling tuples get deleted).
        columns: child columns, in order.
        referenced: the parent relation.
        ref_columns: parent columns matched positionally with ``columns``.

    NULLs follow SQL's MATCH SIMPLE: a child tuple with a NULL in any key
    column references nothing and is *not* a violation.
    """

    referencing: str
    columns: tuple[str, ...]
    referenced: str
    ref_columns: tuple[str, ...]

    def __init__(
        self,
        referencing: str,
        columns: Sequence[str],
        referenced: str,
        ref_columns: Sequence[str],
    ) -> None:
        object.__setattr__(self, "referencing", referencing)
        object.__setattr__(self, "columns", tuple(columns))
        object.__setattr__(self, "referenced", referenced)
        object.__setattr__(self, "ref_columns", tuple(ref_columns))
        if not self.columns:
            raise ConstraintError("foreign key needs at least one column")
        if len(self.columns) != len(self.ref_columns):
            raise ConstraintError(
                "foreign key column lists differ in length:"
                f" {self.columns} vs {self.ref_columns}"
            )
        if self.referencing.lower() == self.referenced.lower():
            raise ConstraintError(
                "self-referencing foreign keys are outside the restricted"
                " class (the reference graph must be acyclic)"
            )

    def __str__(self) -> str:
        return (
            f"FK {self.referencing}({', '.join(self.columns)}) ->"
            f" {self.referenced}({', '.join(self.ref_columns)})"
        )


def topological_fk_order(
    foreign_keys: Iterable[ForeignKeyConstraint],
) -> list[ForeignKeyConstraint]:
    """Order FKs so parents are fully resolved before their children.

    Raises:
        ConstraintError: when the reference graph has a cycle (outside
            the restricted class).
    """
    fks = list(foreign_keys)
    # Edges: child relation -> parent relation.
    children: dict[str, set[str]] = {}
    for fk in fks:
        children.setdefault(fk.referencing.lower(), set()).add(
            fk.referenced.lower()
        )

    order: dict[str, int] = {}
    visiting: set[str] = set()

    def visit(relation: str) -> int:
        if relation in order:
            return order[relation]
        if relation in visiting:
            raise ConstraintError(
                f"cyclic foreign-key references through {relation!r}:"
                " outside the restricted class Hippo supports"
            )
        visiting.add(relation)
        depth = 0
        for parent in children.get(relation, ()):
            depth = max(depth, visit(parent) + 1)
        visiting.discard(relation)
        order[relation] = depth
        return depth

    for fk in fks:
        visit(fk.referencing.lower())
    # Resolve FKs whose *parent* is shallower first.
    return sorted(fks, key=lambda fk: order.get(fk.referenced.lower(), 0))
