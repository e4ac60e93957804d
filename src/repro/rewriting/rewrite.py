"""The query-rewriting baseline (Arenas, Bertossi & Chomicki, PODS 1999).

The first practical CQA mechanism rewrites the input query ``Q`` into a
query ``Q'`` whose ordinary evaluation returns the consistent answers.
Each positive literal ``R(x)`` acquires a *residue* per constraint: for a
binary denial constraint ``NOT (R(t1) AND S(t2) AND phi)`` the literal
becomes

    R(x) AND NOT EXISTS (SELECT * FROM S t2 WHERE phi[t1 := x])

i.e. "x is in R and cannot be removed by a conflict partner".

The paper's demonstration (part 2 and part 3) positions Hippo against this
method on both axes reproduced here:

* **scope** -- rewriting handles S/SJ/SJD queries under *binary* universal
  constraints; it cannot express unions of candidate repairs members, and
  non-binary denial constraints have no first-order residue of this shape.
  Out-of-scope inputs raise :class:`~repro.errors.RewritingError`.
* **speed** -- the rewritten query drags correlated NOT EXISTS subqueries
  through the RDBMS for *every* tuple, conflicting or not, while Hippo
  consults the in-memory hypergraph only for envelope candidates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    Optional,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backends.mirror import MirrorBackend

from repro.constraints.denial import DenialConstraint, to_denial_constraints
from repro.constraints.foreign_key import ForeignKeyConstraint
from repro.core.hippo import AnswerSet, QueryLike, answer_query, parse_sjud
from repro.engine.database import Database
from repro.errors import RewritingError, UnsupportedQueryError
from repro.ra.sjud import (
    Atom,
    Difference,
    SJUDCore,
    SJUDTree,
    Union_,
    cores_of,
    from_sql_query,
)
from repro.ra.to_sql import core_to_select
from repro.sql import ast
from repro.sql.formatter import format_query
from repro.sql.parser import parse_query


def _rebuild(
    expr: ast.Expression, visit: Callable[[ast.Expression], ast.Expression]
) -> ast.Expression:
    """``expr`` with ``visit`` applied bottom-up to every sub-expression."""
    return visit(ast.map_children(expr, lambda child: _rebuild(child, visit)))


def _substitute_aliases(
    expr: ast.Expression, mapping: dict[str, str]
) -> ast.Expression:
    """Rename the table qualifiers of column references."""

    def rename(node: ast.Expression) -> ast.Expression:
        if (
            isinstance(node, ast.ColumnRef)
            and node.table is not None
            and node.table.lower() in mapping
        ):
            return ast.ColumnRef(mapping[node.table.lower()], node.name)
        return node

    return _rebuild(expr, rename)


_COMMUTATIVE = frozenset({"=", "<>", "AND", "OR"})

#: Stands for the fresh alias in a residue's identity; ``#`` does not lex,
#: so no query alias can collide with it.
_PARTNER = "#rw"


def _canonical(expr: ast.Expression) -> ast.Expression:
    """``expr`` with the operands of commutative operators in a fixed order.

    Two conditions with the same canonical form are logically equivalent,
    which is what lets :meth:`RewritingEngine._residues_for` keep one of
    the two mirror-image residues a symmetric constraint over one relation
    (a key, an FD) produces; ``<`` and ``<=`` are not reordered, so an
    asymmetric constraint keeps both.
    """

    def order(node: ast.Expression) -> ast.Expression:
        if isinstance(node, ast.BinaryOp) and node.op in _COMMUTATIVE:
            left, right = sorted((node.left, node.right), key=repr)
            return ast.BinaryOp(node.op, left, right)
        return node

    return _rebuild(expr, order)


@dataclass
class RewritingEngine:
    """Rewrites SJD queries under binary denial constraints.

    Args:
        db: the database the rewritten SQL is executed against.
        constraints: the integrity constraints (FDs, keys, exclusions or
            explicit denial constraints).
    """

    def __init__(self, db: Database, constraints: Iterable[object]) -> None:
        self.db = db
        self.denials: list[DenialConstraint] = to_denial_constraints(constraints)

    # -------------------------------------------------------------- public

    def rewrite(self, query: QueryLike) -> ast.Query:
        """The rewritten query ``Q'`` as a SQL AST.

        Raises:
            RewritingError: when :func:`classify` finds the query or
                constraints outside the method's scope (its first reason
                is the message).
        """
        tree, _ = parse_sjud(query, self.db.catalog)
        verdict = classify(tree, self.denials)
        if not verdict.rewritable:
            raise RewritingError(verdict.reasons[0])
        # Numbered from zero on every call (the rewriting is a function of
        # its inputs: equal queries give equal text), skipping the names
        # the query itself binds.
        taken = {
            atom.alias.lower() for core in cores_of(tree) for atom in core.atoms
        }
        fresh = (
            alias
            for alias in map("rw{}".format, itertools.count())
            if alias not in taken
        )
        return ast.Query(self._rewrite_tree(tree, fresh))

    def rewrite_sql(self, query: QueryLike) -> str:
        """The rewritten query as SQL text (for display and logging)."""
        return format_query(self.rewrite(query))

    def consistent_answers(
        self, query: QueryLike, backend: Optional["MirrorBackend"] = None
    ) -> AnswerSet:
        """Evaluate the rewritten query on the RDBMS.

        Returns an :class:`~repro.core.hippo.AnswerSet` built by the same
        pipeline as Hippo's (:func:`~repro.core.hippo.answer_query`), so
        the query's ORDER BY and the default order apply alike and
        benchmarks can treat all approaches uniformly.

        Args:
            backend: an execution backend to push the rewritten SQL to
                (see :mod:`repro.backends`) -- the rewriting method's
                "any RDBMS can evaluate Q'" claim made literal.  A query
                the backend declines falls back to native execution
                (counted); None runs the rewritten SELECT like any other,
                on the database's attached backend if it has one.
        """

        def evaluate(tree: SJUDTree) -> tuple[set[tuple], dict[str, object]]:
            rewritten = self.rewrite(tree)

            def native() -> list[tuple]:
                return self.db.execute_statement(ast.SelectStatement(rewritten)).rows

            rows = (
                native()
                if backend is None
                else backend.pushdown(
                    lambda: backend.execute_query(rewritten)[1], native
                )
            )
            return set(rows), {"rewritten_sql": format_query(rewritten)}

        return answer_query(query, self.db.catalog, evaluate)

    # ------------------------------------------------------------ internals

    def _rewrite_tree(
        self, tree: SJUDTree, fresh: Iterator[str]
    ) -> Union[ast.SelectCore, ast.SetOperation]:
        """Rewrite a tree :func:`classify` accepted: cores and differences."""
        if isinstance(tree, SJUDCore):
            return self._rewrite_core(tree, fresh)
        # The negative side of a difference is its tuples true in *some*
        # repair -- for the single-atom core classify() insists on, every
        # stored tuple (classify() refuses a right-hand relation under a
        # unary denial, the one constraint with singleton violations).
        assert isinstance(tree, Difference) and isinstance(tree.right, SJUDCore)
        return ast.SetOperation(
            "except", self._rewrite_tree(tree.left, fresh), core_to_select(tree.right)
        )

    def _rewrite_core(self, core: SJUDCore, fresh: Iterator[str]) -> ast.SelectCore:
        base = core_to_select(core)
        residues = [
            residue
            for atom in core.atoms
            for residue in self._residues_for(atom, fresh)
        ]
        where = ast.conjunction(
            ([base.where] if base.where is not None else []) + residues
        )
        return replace(base, where=where)

    def _residues_for(self, atom: Atom, fresh: Iterator[str]) -> list[ast.Expression]:
        """The residues for one positive literal, one per distinct condition.

        A residue's identity is structural: the partner relation plus the
        :func:`_canonical` condition with :data:`_PARTNER` for the fresh
        alias.  ``fresh`` is drawn from only for the residues kept.
        """
        residues: list[ast.Expression] = []
        seen: set[tuple[Optional[str], Optional[ast.Expression]]] = set()
        relation = atom.relation.lower()
        for constraint in self.denials:
            positions = [
                index
                for index, c_atom in enumerate(constraint.atoms)
                if c_atom.relation.lower() == relation
            ]
            if not positions:
                continue
            if constraint.arity == 1:
                # Unary denial: the residue is the negated condition
                # (classify() refused the condition-less, empty-query case).
                assert constraint.condition is not None
                mapping = {constraint.atoms[0].alias.lower(): atom.alias}
                condition = _substitute_aliases(constraint.condition, mapping)
                identity = (None, _canonical(condition))
                if identity not in seen:
                    seen.add(identity)
                    residues.append(ast.UnaryOp("NOT", condition))
                continue
            for position in positions:
                other = constraint.atoms[1 - position]
                this = constraint.atoms[position]
                mapping = {
                    this.alias.lower(): atom.alias,
                    other.alias.lower(): _PARTNER,
                }
                condition = (
                    _substitute_aliases(constraint.condition, mapping)
                    if constraint.condition is not None
                    else None
                )
                identity = (
                    other.relation.lower(),
                    _canonical(condition) if condition is not None else None,
                )
                if identity in seen:
                    continue
                seen.add(identity)
                fresh_alias = next(fresh)
                if condition is not None:
                    condition = _substitute_aliases(condition, {_PARTNER: fresh_alias})
                subquery = ast.Query(
                    ast.SelectCore(
                        (ast.Star(None),),
                        (ast.TableRef(other.relation, fresh_alias),),
                        condition,
                    )
                )
                residues.append(ast.Exists(subquery, negated=True))
        return residues


# ---------------------------------------------------------------------------
# Static classification: which CQA path applies?
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryClassification:
    """The statically determined CQA path for one (query, constraints) pair.

    Attributes:
        path: ``"first-order-rewriting"`` when the PODS'99 rewriting
            answers the query exactly; ``"conflict-hypergraph"`` when
            Hippo's pipeline / repair enumeration is needed; or
            ``"unsupported"`` when the query is outside the SJUD class
            both paths require (existential projections are co-NP-hard).
        rewritable: whether the rewriting path applies.
        shape: the top-level query shape: ``core``, ``union`` or
            ``difference``.
        query_relations: the lower-cased base relations the query reads.
        reasons: why rewriting is out of scope (empty when it applies).
        denial_constraints: number of denial-form constraints considered.
        foreign_keys: number of foreign-key constraints (these alone
            force the hypergraph path).
    """

    path: str
    rewritable: bool
    shape: str
    query_relations: tuple[str, ...]
    reasons: tuple[str, ...]
    denial_constraints: int
    foreign_keys: int

    def describe(self) -> str:
        """A human-readable report (the CLI's ``.classify`` output)."""
        lines = [
            f"path: {self.path}",
            f"shape: {self.shape}",
            f"relations: {', '.join(self.query_relations) or '(none)'}",
            f"constraints: {self.denial_constraints} denial-form,"
            f" {self.foreign_keys} foreign-key",
        ]
        if self.rewritable:
            lines.append(
                "first-order rewriting applies: the rewritten query can be"
                " evaluated by any RDBMS with no repair machinery"
            )
        else:
            lines.append("first-order rewriting does not apply:")
            lines.extend(f"  - {reason}" for reason in self.reasons)
        return "\n".join(lines)


def _tree_nodes(tree: SJUDTree) -> Iterator[SJUDTree]:
    yield tree
    if isinstance(tree, (Union_, Difference)):
        yield from _tree_nodes(tree.left)
        yield from _tree_nodes(tree.right)


def _violable_alone(constraint: DenialConstraint) -> bool:
    """Whether one tuple, standing for every atom, can violate the
    constraint -- and so be in no repair: the atoms range over one
    relation (trivially so for a unary denial) and no ``<>`` / ``<`` /
    ``>`` conjunct compares the same column of two of them (as every FD
    and key has)."""
    if len(constraint.relations()) != 1:
        return False
    return not any(
        isinstance(conjunct, ast.BinaryOp)
        and conjunct.op in ("<>", "<", ">")
        and isinstance(conjunct.left, ast.ColumnRef)
        and isinstance(conjunct.right, ast.ColumnRef)
        and conjunct.left.table != conjunct.right.table
        and conjunct.left.name.lower() == conjunct.right.name.lower()
        for conjunct in ast.split_conjuncts(constraint.condition)
    )


def classify(
    query: QueryLike,
    constraints: Iterable[object],
    schema: Optional[Database] = None,
) -> QueryClassification:
    """Statically decide which CQA path answers ``query`` -- no data access.

    This is the rewriting scope test of :class:`RewritingEngine` turned
    into a pure function of the query and constraint *shapes*: unions,
    wide difference right-hand sides, non-binary denial constraints,
    binary ones whose conflict partner may be in no repair (one tuple
    alone violates a unary denial, or a constraint against itself) and
    foreign keys each force the conflict-hypergraph path; everything
    else is answerable by the PODS'99 first-order rewriting.  (It is also the
    stepping stone to a dichotomy-aware router: the same inspection point
    can grow finer tractability tests without touching the engines.)

    Args:
        query: SQL text, a parsed query AST, or an SJUD tree.
        constraints: the integrity constraints (any mix of FDs, keys,
            exclusions, denial constraints and foreign keys).
        schema: the database whose catalog SQL input resolves against;
            SJUD-tree input needs none.

    Raises:
        RewritingError: when SQL input is given without a schema.
    """
    foreign_keys = [
        c for c in constraints if isinstance(c, ForeignKeyConstraint)
    ]
    denials = to_denial_constraints(
        c for c in constraints if not isinstance(c, ForeignKeyConstraint)
    )
    if isinstance(query, str):
        query = parse_query(query)
    if isinstance(query, ast.Query):
        if schema is None:
            raise RewritingError(
                "classifying SQL text needs a schema: pass schema= a"
                " Database (SJUD trees need none)"
            )
        try:
            tree = from_sql_query(query, schema.catalog)
        except UnsupportedQueryError as exc:
            return QueryClassification(
                path="unsupported",
                rewritable=False,
                shape="unknown",
                query_relations=(),
                reasons=(
                    f"outside the SJUD class both paths require: {exc}",
                ),
                denial_constraints=len(denials),
                foreign_keys=len(foreign_keys),
            )
    else:
        tree = query
    relations = frozenset(
        atom.relation.lower()
        for core in cores_of(tree)
        for atom in core.atoms
    )
    nodes = list(_tree_nodes(tree))
    if isinstance(tree, SJUDCore):
        shape = "core"
    elif isinstance(tree, Union_):
        shape = "union"
    else:
        shape = "difference"

    reasons: list[str] = []
    if any(isinstance(node, Union_) for node in nodes):
        reasons.append(
            "the query contains a union: consistent answers to unions"
            " carry disjunctive information that no rewritten first-order"
            " query expresses (Hippo's demonstrated advantage)"
        )
    for node in nodes:
        if isinstance(node, Difference) and not (
            isinstance(node.right, SJUDCore) and len(node.right.atoms) == 1
        ):
            reasons.append(
                "a difference's right-hand side is not a single-atom"
                " core, so its 'possibly true' semantics is not"
                " first-order expressible"
            )
            break
    # relation -> a constraint one of its tuples can violate alone: the
    # relations whose stored tuples are not all in some repair.
    culled = {
        c.atoms[0].relation.lower(): c.name
        for c in reversed(denials)
        if _violable_alone(c)
    }
    for node in nodes:
        if isinstance(node, Difference) and any(
            atom.relation.lower() in culled
            for core in cores_of(node.right)
            for atom in core.atoms
        ):
            reasons.append(
                "a difference's right-hand relation carries a constraint one"
                " tuple violates alone (a unary denial, or one it violates"
                " against itself): such tuples are in no repair, so they must"
                " not be subtracted, and the rewriting subtracts every stored"
                " tuple"
            )
            break
    if foreign_keys:
        spans = ", ".join(
            sorted(
                f"{fk.referencing.lower()}->{fk.referenced.lower()}"
                for fk in foreign_keys
            )
        )
        reasons.append(
            f"foreign-key constraints ({spans}) have no binary denial"
            " form; their repairs delete referencing chains only the"
            " hypergraph path models"
        )
    for constraint in denials:
        if not relations & {a.relation.lower() for a in constraint.atoms}:
            continue  # cannot produce a residue for this query
        if constraint.arity == 1 and constraint.condition is None:
            reasons.append(
                f"constraint {constraint.name} forbids every"
                f" {constraint.atoms[0].relation} tuple, so the rewriting"
                " degenerates to the empty query"
            )
        elif constraint.arity > 2:
            reasons.append(
                f"constraint {constraint.name} relates {constraint.arity}"
                " tuples; rewriting supports only binary universal"
                " constraints"
            )
        # A residue tests its partner against the stored relation, not
        # against "the partner is in some repair": exact only while
        # every stored tuple of the constraint's relations is in one.
        elif constraint.is_binary and (
            shared := sorted(culled.keys() & constraint.relations())
        ):
            reasons.append(
                f"one {shared[0]} tuple alone can violate"
                f" {culled[shared[0]]}: it is then in no repair and removes"
                f" nothing, but the residues of {constraint.name} count"
                " every stored conflict partner"
            )

    rewritable = not reasons
    return QueryClassification(
        path="first-order-rewriting" if rewritable else "conflict-hypergraph",
        rewritable=rewritable,
        shape=shape,
        query_relations=tuple(sorted(relations)),
        reasons=tuple(reasons),
        denial_constraints=len(denials),
        foreign_keys=len(foreign_keys),
    )
