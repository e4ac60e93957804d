"""Boolean formulas over membership atoms, with NNF / DNF conversion.

Grounding a query for a candidate tuple yields a formula ``Phi`` over
atoms ``fact in M`` such that for every subset ``M`` of the database,
``candidate in Q(M)  iff  M |= Phi``.  The candidate is a consistent
answer iff no repair satisfies ``not Phi`` -- so the Prover converts
``not Phi`` to disjunctive normal form and checks each disjunct with one
"does a repair containing S and avoiding T exist?" query against the
conflict hypergraph.

DNF conversion is exponential in formula size in the worst case, but the
formula's size is bounded by the *query* size (number of atoms in the
SJUD tree), not the data -- which is exactly why Hippo's data complexity
stays polynomial.

It is also why the conversion runs once per query, not once per
candidate: a :class:`Template` is the formula over numbered *slots* with
its DNF cached, and a :class:`Ground` formula -- what the Prover takes --
is a template plus the database tuple (hypergraph vertex) each slot
stands for.  The tree over vertices (:attr:`Ground.formula`) is only
materialised for explanations and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Generic,
    Hashable,
    Iterable,
    NamedTuple,
    Optional,
    Sequence,
    TypeVar,
    Union,
)

from repro.conflicts.hypergraph import Vertex
from repro.core.facts import Fact

#: What an atom stands for: a ground :class:`Fact`, or -- in a query's
#: compiled :class:`Template` -- the number of the slot a fact goes into.
A = TypeVar("A", bound=Hashable)
B = TypeVar("B", bound=Hashable)


class Formula(Generic[A]):
    """Marker base class."""


@dataclass(frozen=True)
class TrueF(Formula[A]):
    """The constant true."""


@dataclass(frozen=True)
class FalseF(Formula[A]):
    """The constant false."""


@dataclass(frozen=True)
class AtomF(Formula[A]):
    """Membership atom: ``fact`` is in the repair."""

    fact: A


@dataclass(frozen=True)
class NotF(Formula[A]):
    """Negation."""

    child: Formula[A]


@dataclass(frozen=True)
class AndF(Formula[A]):
    """Conjunction (n-ary)."""

    children: tuple[Formula[A], ...]


@dataclass(frozen=True)
class OrF(Formula[A]):
    """Disjunction (n-ary)."""

    children: tuple[Formula[A], ...]


TRUE: TrueF[Any] = TrueF()
FALSE: FalseF[Any] = FalseF()


def conj(children: Iterable[Formula[A]]) -> Formula[A]:
    """Simplifying conjunction constructor."""
    flat: list[Formula[A]] = []
    for child in children:
        if isinstance(child, FalseF):
            return FALSE
        if isinstance(child, TrueF):
            continue
        if isinstance(child, AndF):
            flat.extend(child.children)
        else:
            flat.append(child)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return AndF(tuple(flat))


def disj(children: Iterable[Formula[A]]) -> Formula[A]:
    """Simplifying disjunction constructor."""
    flat: list[Formula[A]] = []
    for child in children:
        if isinstance(child, TrueF):
            return TRUE
        if isinstance(child, FalseF):
            continue
        if isinstance(child, OrF):
            flat.extend(child.children)
        else:
            flat.append(child)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return OrF(tuple(flat))


def negate(formula: Formula[A]) -> Formula[A]:
    """Logical negation (kept shallow; NNF handles the pushing)."""
    if isinstance(formula, TrueF):
        return FALSE
    if isinstance(formula, FalseF):
        return TRUE
    if isinstance(formula, NotF):
        return formula.child
    return NotF(formula)


def to_nnf(formula: Formula[A], negated: bool = False) -> Formula[A]:
    """Negation normal form: negations pushed onto atoms."""
    if isinstance(formula, TrueF):
        return FALSE if negated else TRUE
    if isinstance(formula, FalseF):
        return TRUE if negated else FALSE
    if isinstance(formula, AtomF):
        return NotF(formula) if negated else formula
    if isinstance(formula, NotF):
        return to_nnf(formula.child, not negated)
    if isinstance(formula, AndF):
        children = tuple(to_nnf(child, negated) for child in formula.children)
        return disj(children) if negated else conj(children)
    if isinstance(formula, OrF):
        children = tuple(to_nnf(child, negated) for child in formula.children)
        return conj(children) if negated else disj(children)
    raise TypeError(f"unknown formula node {type(formula).__name__}")


#: One DNF disjunct: (atoms that must be IN the repair,
#:                    atoms that must be OUT of the repair).
Disjunct = tuple[frozenset[A], frozenset[A]]


def to_dnf(formula: Formula[A]) -> list[Disjunct[A]]:
    """Disjunctive normal form of an NNF-able formula.

    Contradictory disjuncts (a fact required both in and out) are dropped.
    An empty list means *unsatisfiable*; a disjunct ``(empty, empty)``
    means *valid* (true in every repair).
    """
    nnf = to_nnf(formula)

    def recurse(node: Formula[A]) -> list[Disjunct[A]]:
        if isinstance(node, TrueF):
            return [(frozenset(), frozenset())]
        if isinstance(node, FalseF):
            return []
        if isinstance(node, AtomF):
            return [(frozenset([node.fact]), frozenset())]
        if isinstance(node, NotF):
            assert isinstance(node.child, AtomF), "input must be in NNF"
            return [(frozenset(), frozenset([node.child.fact]))]
        if isinstance(node, OrF):
            result: list[Disjunct[A]] = []
            for child in node.children:
                result.extend(recurse(child))
            return result
        if isinstance(node, AndF):
            partial: list[Disjunct[A]] = [(frozenset(), frozenset())]
            for child in node.children:
                child_disjuncts = recurse(child)
                combined: list[Disjunct[A]] = []
                for pos1, neg1 in partial:
                    for pos2, neg2 in child_disjuncts:
                        pos = pos1 | pos2
                        neg = neg1 | neg2
                        if pos & neg:
                            continue  # contradictory
                        combined.append((pos, neg))
                partial = combined
                if not partial:
                    return []
            return partial
        raise TypeError(f"unknown formula node {type(node).__name__}")

    # Deduplicate and drop disjuncts subsumed by smaller ones.
    disjuncts = recurse(nnf)
    unique: list[Disjunct[A]] = []
    seen: set[Disjunct[A]] = set()
    for disjunct in disjuncts:
        if disjunct not in seen:
            seen.add(disjunct)
            unique.append(disjunct)
    return unique


def atoms_of(formula: Formula[A]) -> frozenset[A]:
    """Every fact mentioned by the formula."""
    if isinstance(formula, AtomF):
        return frozenset([formula.fact])
    if isinstance(formula, NotF):
        return atoms_of(formula.child)
    if isinstance(formula, (AndF, OrF)):
        result: frozenset[A] = frozenset()
        for child in formula.children:
            result |= atoms_of(child)
        return result
    return frozenset()


def evaluate(formula: Formula[A], present: Union[set, frozenset]) -> bool:
    """Evaluate under an explicit set of present facts (testing aid)."""
    if isinstance(formula, TrueF):
        return True
    if isinstance(formula, FalseF):
        return False
    if isinstance(formula, AtomF):
        return formula.fact in present
    if isinstance(formula, NotF):
        return not evaluate(formula.child, present)
    if isinstance(formula, AndF):
        return all(evaluate(child, present) for child in formula.children)
    if isinstance(formula, OrF):
        return any(evaluate(child, present) for child in formula.children)
    raise TypeError(f"unknown formula node {type(formula).__name__}")


def rename(formula: Formula[A], atom: Callable[[A], B]) -> Formula[B]:
    """The same formula over other atoms: shape kept, nothing simplified."""
    if isinstance(formula, TrueF):
        return TRUE
    if isinstance(formula, FalseF):
        return FALSE
    if isinstance(formula, AtomF):
        return AtomF(atom(formula.fact))
    if isinstance(formula, NotF):
        return NotF(rename(formula.child, atom))
    if isinstance(formula, AndF):
        return AndF(tuple(rename(child, atom) for child in formula.children))
    if isinstance(formula, OrF):
        return OrF(tuple(rename(child, atom) for child in formula.children))
    raise TypeError(f"unknown formula node {type(formula).__name__}")


#: A DNF disjunct over slots, each side in ascending slot order.
SlotDisjunct = tuple[tuple[int, ...], tuple[int, ...]]


class Template:
    """A formula over slot numbers with the DNF of each polarity cached.

    A ground formula's shape depends only on the query (and on which of
    its cores produce the candidate), so one template serves every
    candidate of that shape: the Prover substitutes the candidate's
    vertices into the cached disjuncts instead of normalising a fresh tree.

    Two slots may receive the same tuple (one relation under two
    branches).  The slot-level DNF then keeps disjuncts the tuple-level
    DNF would have merged, or dropped as contradictory.  That is sound:
    substituting equal tuples for distinct atoms preserves equivalence,
    and :meth:`~repro.core.prover.Prover.exists_repair` rejects a
    disjunct whose required and forbidden vertices meet.
    """

    def __init__(self, tree: Formula[int]) -> None:
        self.tree = tree
        self._dnf: dict[bool, tuple[SlotDisjunct, ...]] = {}

    def dnf(self, negated: bool) -> tuple[SlotDisjunct, ...]:
        """The DNF of the template, or of its negation (computed once)."""
        cached = self._dnf.get(negated)
        if cached is None:
            cached = self._dnf[negated] = tuple(
                (tuple(sorted(require)), tuple(sorted(forbid)))
                for require, forbid in to_dnf(
                    negate(self.tree) if negated else self.tree
                )
            )
        return cached


class Ground(NamedTuple):
    """A ground formula as the Prover takes it: ``template`` with
    ``vertices[slot]`` standing for every slot (slots the template does
    not mention are ignored; None is a fact the database does not hold)."""

    template: Template
    vertices: Sequence[Optional[Vertex]]

    @classmethod
    def of(
        cls, formula: Formula[Fact], resolve: Callable[[Fact], Optional[Vertex]]
    ) -> "Ground":
        """Compile a hand-built formula over facts: its distinct facts
        become slots, each resolved to a vertex once."""
        slots: dict[Fact, int] = {}
        tree = rename(formula, lambda fact: slots.setdefault(fact, len(slots)))
        return cls(Template(tree), [resolve(fact) for fact in slots])

    @property
    def formula(self) -> Formula[Optional[Vertex]]:
        """The formula as a tree over vertices (explanations and tests)."""
        return rename(self.template.tree, self.vertices.__getitem__)
