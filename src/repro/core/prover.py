"""HProver: deciding consistency of a candidate answer.

Theory (Chomicki & Marcinkowski, *Minimal-Change Integrity Maintenance
Using Tuple Deletions*): for denial constraints, repairs are the maximal
independent sets of the conflict hypergraph, and

    there is a repair M with S subset-of M and M disjoint-from T
        iff
    one can choose, for every tuple t of T that is in the database, a
    hyperedge e_t containing t whose remainder e_t - {t} avoids T, such
    that S union (all remainders) is independent.

(The remainders "block" the T-tuples: any maximal independent superset of
the union would complete the edge e_t if it tried to include t.)  The
number of tuples in S and T is bounded by the *query* size, and each
tuple's candidate edges are polynomial in the data, so the check is
polynomial-time in the data.

A candidate ``t`` with ground formula ``Phi`` is a consistent answer iff
*no* repair satisfies ``not Phi``; the Prover runs the repair-existence
check on every disjunct of the DNF of ``not Phi``.  That DNF belongs to the
query, not the candidate: it is computed once per
:class:`~repro.core.formula.Template` and only the candidate's witness
vertices are substituted into it here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.conflicts.hypergraph import ConflictHypergraph, Vertex
from repro.core import formula as fm
from repro.core.facts import Fact
from repro.core.membership import MembershipResolver


@dataclass
class ProverStats:
    """Counters surfaced by benchmarks.

    Attributes:
        candidates_checked: tuples submitted to the Prover.
        consistent: tuples accepted as consistent answers.
        disjuncts_checked: DNF disjuncts of ``not Phi`` examined.
        repair_searches: repair-existence checks executed.
        independence_checks: hypergraph independence tests performed.
        witness_combinations: covering-edge combinations explored.
    """

    candidates_checked: int = 0
    consistent: int = 0
    disjuncts_checked: int = 0
    repair_searches: int = 0
    independence_checks: int = 0
    witness_combinations: int = 0


class Prover:
    """Checks candidate tuples against the conflict hypergraph."""

    def __init__(
        self, hypergraph: ConflictHypergraph, membership: MembershipResolver
    ) -> None:
        self.hypergraph = hypergraph
        self.membership = membership
        self.stats = ProverStats()

    # ----------------------------------------------------------- entrypoint

    def is_consistent_answer(self, phi: Union[fm.Ground, fm.Formula[Fact]]) -> bool:
        """Whether ``Phi`` holds in *every* repair."""
        if self.satisfying_disjunct(phi, negated=True) is not None:
            return False
        self.stats.consistent += 1
        return True

    def is_possible_answer(self, phi: Union[fm.Ground, fm.Formula[Fact]]) -> bool:
        """Whether ``Phi`` holds in *some* repair (the certainty dual).

        Possible answers bound what any way of resolving the conflicts
        could yield; together with the consistent answers they bracket
        the information content of the inconsistent database.
        """
        return self.satisfying_disjunct(phi, negated=False) is not None

    def satisfying_disjunct(
        self, phi: Union[fm.Ground, fm.Formula[Fact]], negated: bool
    ) -> Optional[tuple[list[Optional[Vertex]], list[Optional[Vertex]]]]:
        """The first ``(require, forbid)`` disjunct of ``Phi`` -- ``negated``:
        of ``not Phi`` -- that some repair satisfies, or None.

        The disjuncts are the template's cached ones with the candidate's
        vertices substituted (a vertex filling two slots is listed twice);
        a hand-built tree over facts is compiled here, once, each fact
        resolved to a vertex (None when the database does not hold it).
        """
        self.stats.candidates_checked += 1
        template, vertices = (
            fm.Ground.of(phi, self.membership.resolve)
            if isinstance(phi, fm.Formula)
            else phi
        )
        for require_slots, forbid_slots in template.dnf(negated):
            self.stats.disjuncts_checked += 1
            require = [vertices[slot] for slot in require_slots]
            forbid = [vertices[slot] for slot in forbid_slots]
            if self.exists_repair(require, forbid):
                return require, forbid
        return None

    # ------------------------------------------------------- repair search

    def exists_repair(
        self, require: Iterable[Optional[Vertex]], forbid: Iterable[Optional[Vertex]]
    ) -> bool:
        """Is there a repair containing ``require`` and avoiding ``forbid``?

        Both name database tuples (a row's every copy, for ``forbid``);
        None stands for a fact the database does not hold.
        """
        self.stats.repair_searches += 1

        required_vertices: set[Vertex] = set()
        for vertex in require:
            witness = None if vertex is None else self.membership.some_vertex(vertex)
            if witness is None:
                return False  # the fact is not even in the database
            required_vertices.add(witness)

        # (No edge is empty, so the empty set needs no test.)
        if required_vertices and not self._independent(required_vertices):
            return False

        forbidden_vertices: set[Vertex] = set()
        for vertex in forbid:
            if vertex is not None:
                forbidden_vertices |= self.membership.all_vertices(vertex)
        # Facts absent from the database are trivially avoided.
        if not forbidden_vertices:
            return True

        if required_vertices & forbidden_vertices:
            return False

        # For every forbidden tuple, collect the hyperedges that can block
        # it -- edges through it whose remainder avoids the forbidden set
        # -- as those remainders.
        blockers: list[list[frozenset[Vertex]]] = []
        for target in forbidden_vertices:
            remainders = [
                remainder
                for edge in self.hypergraph.edges_of(target)
                if not ((remainder := edge - {target}) & forbidden_vertices)
            ]
            if not remainders:
                # The tuple is in every repair (e.g. conflict-free): no
                # repair can avoid it.
                return False
            # Prefer small remainders: cheaper and more likely independent.
            remainders.sort(key=len)
            blockers.append(remainders)

        return self._choose_blockers(blockers, 0, required_vertices)

    def _choose_blockers(
        self,
        blockers: list[list[frozenset[Vertex]]],
        position: int,
        chosen: set[Vertex],
    ) -> bool:
        """Backtracking search over covering-edge choices: one remainder
        per forbidden tuple, added to ``chosen`` (never mutated).

        Independence is antitone (supersets of dependent sets stay
        dependent), so pruning at every level is sound; checking at every
        level makes the final set independent by construction.
        """
        if position == len(blockers):
            return True
        for remainder in blockers[position]:
            self.stats.witness_combinations += 1
            extended = chosen | remainder
            if self._independent(extended):
                if self._choose_blockers(blockers, position + 1, extended):
                    return True
        return False

    def _independent(self, vertices: set[Vertex]) -> bool:
        self.stats.independence_checks += 1
        return self.hypergraph.is_independent(vertices)
