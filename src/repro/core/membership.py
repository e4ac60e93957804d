"""Membership-check strategies for the Prover.

For every candidate tuple, the Prover must decide whether certain ground
facts are in the database (and with which tids).  The paper:

    "In the base version of the system this is done by simply executing
    the appropriate membership queries on the database.  This is a costly
    procedure ...  We have introduced several optimizations addressing
    this problem.  In general, by modifying the expression defining the
    envelope ... the optimizations allow us to answer the required
    membership checks without executing any queries on the database."

Every check is about a *witness*: a database tuple (hypergraph vertex)
the envelope's evaluation of some core produced the candidate from.  The
question is which copy of its row to require, and which copies excluding
it excludes.  Three strategies reproduce the paper's spectrum:

* :class:`QueryMembership` -- the base system: every check is a point
  query for the witness row against the engine (counted in
  ``point_lookups``).
* :class:`CachedMembership` -- memoizes lookups, the moral equivalent of
  prefetching all potentially needed facts once: one query per distinct
  fact.
* :class:`ProvenanceMembership` -- the extended-envelope optimization: a
  witness is its own answer.  Only excluding a row of a relation that
  holds duplicate rows needs the other copies, one cached query each.

A hand-built formula over facts (no envelope behind it) resolves each of
its facts to a vertex once, through :meth:`resolve`, before the Prover
starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

from repro.conflicts.hypergraph import Vertex
from repro.core.facts import Fact
from repro.engine.database import Database


@dataclass
class MembershipStats:
    """Counters surfaced by benchmarks.

    Attributes:
        checks: membership questions asked by the Prover.
        db_queries: database point queries issued.
        free_answers: checks answered from provenance / cache.
    """

    checks: int = 0
    db_queries: int = 0
    free_answers: int = 0


class MembershipResolver(Protocol):
    """What the Prover needs to know about database tuples."""

    stats: MembershipStats

    def some_vertex(self, witness: Vertex) -> Optional[Vertex]:
        """The copy of ``witness``'s row to require (None when absent).

        Duplicate copies of a row have value-symmetric conflict
        neighbourhoods, so any copy serves -- as long as every slot
        holding that row gets the same one.
        """

    def all_vertices(self, witness: Vertex) -> frozenset[Vertex]:
        """Every copy of ``witness``'s row (excluding a fact excludes them
        all)."""

    def resolve(self, fact: Fact) -> Optional[Vertex]:
        """One tid storing ``fact`` (None when absent): the vertex a fact
        of a hand-built formula stands for."""


class QueryMembership:
    """The base strategy: one point query per check, no caching."""

    def __init__(self, db: Database) -> None:
        self._db = db
        self.stats = MembershipStats()

    def _lookup(self, relation: str, row: tuple) -> frozenset[Vertex]:
        self.stats.db_queries += 1
        tids = self._db.lookup(relation, row)
        # Relations are lower-case: vertices' and fact()'s.
        # hippolint: disable-next-line=HL005 -- relation already lower-case
        return frozenset(Vertex(relation, tid) for tid in tids)

    def _copies(self, witness: Vertex) -> frozenset[Vertex]:
        relation, tid = witness  # provenance pairs are plain tuples
        return self._lookup(relation, self._db.table(relation).get(tid))

    def fact_of(self, witness: Vertex) -> Fact:
        """The fact ``witness`` stores."""
        relation, tid = witness
        # hippolint: disable-next-line=HL005 -- vertex relations are lower-case
        return Fact(relation, self._db.table(relation).get(tid))

    def resolve(self, fact: Fact) -> Optional[Vertex]:
        return min(self._lookup(fact.relation, fact.values), default=None)

    def some_vertex(self, witness: Vertex) -> Optional[Vertex]:
        self.stats.checks += 1
        return min(self._copies(witness), default=None)

    def all_vertices(self, witness: Vertex) -> frozenset[Vertex]:
        self.stats.checks += 1
        return self._copies(witness)


class CachedMembership(QueryMembership):
    """Memoized lookups: each distinct fact costs at most one query."""

    def __init__(self, db: Database) -> None:
        super().__init__(db)
        self._cache: dict[tuple[str, tuple], frozenset[Vertex]] = {}

    def _lookup(self, relation: str, row: tuple) -> frozenset[Vertex]:
        cached = self._cache.get((relation, row))
        if cached is not None:
            self.stats.free_answers += 1
            return cached
        vertices = self._cache[relation, row] = super()._lookup(relation, row)
        return vertices


class ProvenanceMembership:
    """The extended-envelope strategy: a witness answers its own checks.

    Relations holding duplicate rows are found once, at construction:
    there ``some_vertex`` maps every copy of a row to the first one seen
    and ``all_vertices`` looks the other copies up (cached); every other
    relation's checks are free.
    """

    def __init__(self, db: Database) -> None:
        self._fallback = CachedMembership(db)
        self.stats = self._fallback.stats  # shared counters
        self._duplicated = frozenset(
            table.schema.name.lower() for table in db.catalog if table.has_duplicates()
        )
        self._required_copy: dict[Fact, Vertex] = {}

    def resolve(self, fact: Fact) -> Optional[Vertex]:
        return self._fallback.resolve(fact)

    def some_vertex(self, witness: Vertex) -> Optional[Vertex]:
        self.stats.checks += 1
        self.stats.free_answers += 1
        relation, _tid = witness
        if relation not in self._duplicated:
            return witness
        fact = self._fallback.fact_of(witness)
        return self._required_copy.setdefault(fact, witness)

    def all_vertices(self, witness: Vertex) -> frozenset[Vertex]:
        relation, _tid = witness
        if relation in self._duplicated:
            return self._fallback.all_vertices(witness)
        self.stats.checks += 1
        self.stats.free_answers += 1
        return frozenset([witness])


def make_membership(strategy: str, db: Database) -> MembershipResolver:
    """Factory: ``"query"``, ``"cached"`` or ``"provenance"``.

    Raises:
        ValueError: for unknown strategy names.
    """
    if strategy == "query":
        return QueryMembership(db)
    if strategy == "cached":
        return CachedMembership(db)
    if strategy == "provenance":
        return ProvenanceMembership(db)
    raise ValueError(
        f"unknown membership strategy {strategy!r}"
        " (expected 'query', 'cached' or 'provenance')"
    )
