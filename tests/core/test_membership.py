"""Tests for the membership-check strategies."""

import pytest

from repro import HippoEngine
from repro.conflicts import vertex
from repro.constraints import FunctionalDependency
from repro.core.facts import fact
from repro.core.membership import (
    CachedMembership,
    ProvenanceMembership,
    QueryMembership,
    make_membership,
)
from repro.engine import Database
from repro.engine.types import SQLType


@pytest.fixture
def small_db():
    db = Database()
    db.create_table("r", [("a", SQLType.INTEGER)])
    db.insert_rows("r", [(1,), (2,)])
    return db


class TestQueryMembership:
    def test_every_check_hits_the_database(self, small_db):
        resolver = QueryMembership(small_db)
        resolver.some_vertex(vertex("r", 0))
        resolver.some_vertex(vertex("r", 0))  # repeated: queried again
        assert resolver.stats.db_queries == 2
        assert small_db.stats.point_lookups == 2

    def test_absent_fact(self, small_db):
        resolver = QueryMembership(small_db)
        assert resolver.resolve(fact("r", (9,))) is None

    def test_present_fact(self, small_db):
        resolver = QueryMembership(small_db)
        assert resolver.resolve(fact("r", (1,))) == vertex("r", 0)
        assert resolver.some_vertex(vertex("r", 0)) == vertex("r", 0)
        assert resolver.all_vertices(vertex("r", 1)) == frozenset({vertex("r", 1)})


class TestCachedMembership:
    def test_second_check_is_free(self, small_db):
        resolver = CachedMembership(small_db)
        resolver.all_vertices(vertex("r", 0))
        resolver.all_vertices(vertex("r", 0))
        assert resolver.stats.db_queries == 1
        assert resolver.stats.free_answers == 1

    def test_negative_results_cached_too(self, small_db):
        resolver = CachedMembership(small_db)
        resolver.resolve(fact("r", (9,)))
        resolver.resolve(fact("r", (9,)))
        assert resolver.stats.db_queries == 1


class TestProvenanceMembership:
    def test_witness_answers_without_database(self, small_db):
        resolver = ProvenanceMembership(small_db)
        assert resolver.some_vertex(vertex("r", 0)) == vertex("r", 0)
        assert resolver.all_vertices(vertex("r", 0)) == frozenset({vertex("r", 0)})
        assert resolver.stats.db_queries == 0
        assert resolver.stats.free_answers == 2
        assert small_db.stats.point_lookups == 0

    def test_duplicates_force_lookup_for_exclusion(self, small_db):
        small_db.insert_rows("r", [(1,)])  # duplicate of value 1
        resolver = ProvenanceMembership(small_db)
        # some_vertex answers from the witness...
        assert resolver.some_vertex(vertex("r", 0)) == vertex("r", 0)
        # ...but all_vertices must see BOTH copies.
        vertices = resolver.all_vertices(vertex("r", 0))
        assert vertices == frozenset({vertex("r", 0), vertex("r", 2)})
        assert resolver.stats.db_queries == 1

    def test_every_copy_of_a_row_is_required_as_one(self, small_db):
        """Two slots witnessed by different copies of one row must not
        require both copies: they may conflict with each other."""
        small_db.insert_rows("r", [(1,)])
        resolver = ProvenanceMembership(small_db)
        assert resolver.some_vertex(vertex("r", 2)) == vertex("r", 2)
        assert resolver.some_vertex(vertex("r", 0)) == vertex("r", 2)
        assert resolver.some_vertex(vertex("r", 1)) == vertex("r", 1)
        assert resolver.stats.db_queries == 0

    def test_duplicates_are_decided_per_relation(self, small_db):
        small_db.create_table("u", [("a", SQLType.INTEGER)])
        small_db.insert_rows("u", [(5,), (5,)])
        resolver = ProvenanceMembership(small_db)
        assert resolver.all_vertices(vertex("r", 0)) == frozenset({vertex("r", 0)})
        assert resolver.stats.db_queries == 0


class TestFactory:
    def test_known_strategies(self, small_db):
        assert isinstance(make_membership("query", small_db), QueryMembership)
        assert isinstance(make_membership("cached", small_db), CachedMembership)
        assert isinstance(
            make_membership("provenance", small_db), ProvenanceMembership
        )

    def test_unknown_strategy(self, small_db):
        with pytest.raises(ValueError, match="unknown membership strategy"):
            make_membership("psychic", small_db)


# ------------------------------------------------ the zero-lookup contract

R_ROWS = [(1, 1), (1, 2), (2, 2), (3, 3)]
S_ROWS = [(1, 1), (2, 3), (4, 4), (4, 5)]

QUERIES = {
    "union": "SELECT * FROM r UNION SELECT * FROM s",
    "difference": "SELECT * FROM r EXCEPT SELECT * FROM s",
    "join": "SELECT r.a, r.b, s.b FROM r, s WHERE r.a = s.a",
}


def engine_over(strategy, r_rows=R_ROWS, unrelated=()):
    """r and s keyed on a (both with conflicts), plus an unrelated u; every
    candidate reaches the Prover (no core short-cut)."""
    db = Database()
    for name in "rsu":
        db.execute(f"CREATE TABLE {name} (a INTEGER, b INTEGER)")
    db.insert_rows("r", r_rows)
    db.insert_rows("s", S_ROWS)
    db.insert_rows("u", list(unrelated))
    constraints = [FunctionalDependency(name, ["a"], ["b"]) for name in "rs"]
    return HippoEngine(db, constraints, membership=strategy, use_core=False)


@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("possible", [False, True])
class TestZeroLookupContract:
    def answer(self, engine, query, possible):
        text = QUERIES[query]
        if possible:
            return engine.possible_answers(text)
        return engine.consistent_answers(text)

    def test_provenance_issues_no_query_over_duplicate_free_relations(
        self, query, possible
    ):
        """Every check -- other union branch and subtrahend included -- is
        answered by an envelope witness."""
        engine = engine_over("provenance")
        stats = self.answer(engine, query, possible).stats["membership"]
        assert stats.checks > 0
        assert stats.db_queries == 0
        assert stats.free_answers == stats.checks
        assert engine.db.stats.point_lookups == 0

    def test_a_duplicate_in_an_unrelated_table_costs_nothing(self, query, possible):
        engine = engine_over("provenance", unrelated=[(5, 5), (5, 5)])
        stats = self.answer(engine, query, possible).stats["membership"]
        assert stats.checks > 0
        assert stats.db_queries == 0

    def test_query_strategy_queries_once_per_check(self, query, possible):
        stats = self.answer(engine_over("query"), query, possible).stats["membership"]
        assert stats.db_queries == stats.checks > 0

    def test_cached_strategy_queries_at_most_once_per_fact(self, query, possible):
        stats = self.answer(engine_over("cached"), query, possible).stats["membership"]
        assert 0 < stats.db_queries <= len(set(R_ROWS)) + len(set(S_ROWS))
        assert stats.db_queries + stats.free_answers == stats.checks


def test_provenance_queries_once_per_forbidden_fact_of_a_duplicated_relation():
    """r holds a duplicate row: excluding an r fact must find every copy
    (one cached query per distinct fact); s's checks stay free."""
    r_rows = R_ROWS + [(3, 3)]
    engine = engine_over("provenance", r_rows=r_rows)
    answers = engine.consistent_answers(QUERIES["union"])
    stats = answers.stats["membership"]
    # Every candidate is checked and forbids its own facts -- each r row
    # once, whichever branches produce it -- and requires nothing.
    assert stats.db_queries == len(set(R_ROWS))
    assert engine.db.stats.point_lookups == len(set(R_ROWS))
    base = engine_over("query", r_rows=r_rows).consistent_answers(QUERIES["union"])
    assert answers.rows == base.rows == [(1, 1), (2, 2), (2, 3), (3, 3)]
