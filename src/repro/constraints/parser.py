"""A concrete text syntax for integrity constraints.

Hippo reads its set ``IC`` of integrity constraints as input; this parser
provides a compact syntax for writing them in configuration files, tests
and examples::

    KEY emp(name)
    FD emp: name -> dept, salary
    EXCLUSION emp(ssn) ~ contractor(ssn)
    DENIAL r1 IN emp, r2 IN emp WHERE r1.mgr = r2.name AND r1.salary > r2.salary
    FK order(customer_id) -> customer(id)

One constraint per line; blank lines and ``--`` comments are skipped.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.constraints.denial import ConstraintAtom, DenialConstraint
from repro.constraints.exclusion import ExclusionConstraint
from repro.constraints.fd import FunctionalDependency, key_constraint
from repro.constraints.foreign_key import ForeignKeyConstraint
from repro.errors import ConstraintError
from repro.sql.parser import parse_expression

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog

Constraint = Union[
    DenialConstraint,
    FunctionalDependency,
    ExclusionConstraint,
    ForeignKeyConstraint,
]


def parse_constraints(
    text: str, catalog: Optional[Catalog] = None
) -> list[Constraint]:
    """Parse a multi-line constraint specification.

    Args:
        text: the specification (see module docstring for the syntax).
        catalog: needed only for ``KEY`` constraints, whose RHS is every
            non-key column of the relation.

    Raises:
        ConstraintError: on syntax errors or a KEY without a catalog.
    """
    constraints: list[Constraint] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("--", 1)[0].strip()
        if not line:
            continue
        try:
            constraints.append(parse_constraint(line, catalog))
        except ConstraintError as exc:
            raise ConstraintError(f"line {line_number}: {exc}") from None
    return constraints


def parse_constraint(
    line: str, catalog: Optional[Catalog] = None
) -> Constraint:
    """Parse a single constraint."""
    stripped = line.strip()
    upper = stripped.upper()
    if upper.startswith("KEY "):
        return _parse_key(stripped[4:], catalog)
    if upper.startswith("FD "):
        return _parse_fd(stripped[3:])
    if upper.startswith("FK "):
        return _parse_fk(stripped[3:])
    if upper.startswith("EXCLUSION "):
        return _parse_exclusion(stripped[len("EXCLUSION "):])
    if upper.startswith("DENIAL "):
        return _parse_denial(stripped[len("DENIAL "):])
    raise ConstraintError(
        f"unknown constraint kind in {line!r}"
        " (expected KEY, FD, EXCLUSION or DENIAL)"
    )


def _split_names(text: str) -> list[str]:
    names = [name.strip() for name in text.replace(",", " ").split()]
    if not all(name.replace("_", "").isalnum() for name in names):
        raise ConstraintError(f"bad attribute list: {text!r}")
    return names


def _parse_relation_columns(text: str) -> tuple[str, list[str]]:
    """Parse ``rel(a, b, ...)``."""
    open_paren = text.find("(")
    if open_paren < 0 or not text.rstrip().endswith(")"):
        raise ConstraintError(f"expected rel(col, ...), got {text!r}")
    relation = text[:open_paren].strip()
    inner = text.rstrip()[open_paren + 1 : -1]
    if not relation:
        raise ConstraintError(f"missing relation name in {text!r}")
    return relation, _split_names(inner)


def _parse_key(
    text: str, catalog: Optional[Catalog]
) -> FunctionalDependency:
    relation, key = _parse_relation_columns(text)
    if catalog is None:
        raise ConstraintError(
            "KEY constraints need a catalog to determine the"
            " dependent columns; pass catalog= or use FD"
        )
    columns = catalog.table(relation).schema.column_names
    return key_constraint(relation, key, columns)


def _parse_fd(text: str) -> FunctionalDependency:
    if ":" not in text:
        raise ConstraintError(f"FD needs 'relation: lhs -> rhs', got {text!r}")
    relation, rest = text.split(":", 1)
    if "->" not in rest:
        raise ConstraintError(f"FD needs '->' in {text!r}")
    lhs_text, rhs_text = rest.split("->", 1)
    return FunctionalDependency(
        relation.strip(), _split_names(lhs_text), _split_names(rhs_text)
    )


def _parse_fk(text: str) -> ForeignKeyConstraint:
    separator = "->" if "->" in text else None
    if separator is None and " REFERENCES " in text.upper():
        split_at = text.upper().index(" REFERENCES ")
        left_text = text[:split_at]
        right_text = text[split_at + len(" REFERENCES "):]
    elif separator is not None:
        left_text, right_text = text.split("->", 1)
    else:
        raise ConstraintError(
            f"FK needs 'child(cols) -> parent(cols)', got {text!r}"
        )
    child, child_columns = _parse_relation_columns(left_text.strip())
    parent, parent_columns = _parse_relation_columns(right_text.strip())
    return ForeignKeyConstraint(child, child_columns, parent, parent_columns)


def _parse_exclusion(text: str) -> ExclusionConstraint:
    where_clause = None
    upper = text.upper()
    if " WHERE " in upper:
        split_at = upper.index(" WHERE ")
        where_clause = text[split_at + len(" WHERE "):]
        text = text[:split_at]
    if "~" not in text:
        raise ConstraintError(f"EXCLUSION needs 'rel(cols) ~ rel(cols)', got {text!r}")
    left_text, right_text = text.split("~", 1)
    left_relation, left_columns = _parse_relation_columns(left_text.strip())
    right_relation, right_columns = _parse_relation_columns(right_text.strip())
    if len(left_columns) != len(right_columns):
        raise ConstraintError(
            f"EXCLUSION column lists differ in length in {text!r}"
        )
    extra = parse_expression(where_clause) if where_clause else None
    return ExclusionConstraint(
        left_relation, right_relation, list(zip(left_columns, right_columns)), extra
    )


def _parse_denial(text: str) -> DenialConstraint:
    upper = text.upper()
    condition = None
    if " WHERE " in upper:
        split_at = upper.index(" WHERE ")
        condition_text = text[split_at + len(" WHERE "):]
        condition = parse_expression(condition_text)
        text = text[:split_at]
    atoms = []
    for part in text.split(","):
        words = part.split()
        if len(words) != 3 or words[1].upper() != "IN":
            raise ConstraintError(
                f"DENIAL atom must be 'alias IN relation', got {part.strip()!r}"
            )
        atoms.append(ConstraintAtom(words[0], words[2]))
    name = "denial:" + ",".join(f"{a.alias}@{a.relation}" for a in atoms)
    return DenialConstraint(name, tuple(atoms), condition)
