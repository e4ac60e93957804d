"""Tests for HProver: repair existence and consistency checks."""

import pytest

from repro.conflicts import ConflictHypergraph, vertex
from repro.core import formula as fm
from repro.core.facts import fact
from repro.core.membership import CachedMembership, ProvenanceMembership
from repro.core.prover import Prover
from repro.engine import Database
from repro.engine.types import SQLType


@pytest.fixture
def setup():
    """r(a) with tuples 1..5; conflicts {1,2}, {2,3}; 4,5 conflict-free."""
    db = Database()
    db.create_table("r", [("a", SQLType.INTEGER)])
    tids = db.insert_rows("r", [(i,) for i in range(1, 6)])
    v = {i: vertex("r", tid) for i, tid in zip(range(1, 6), tids)}
    graph = ConflictHypergraph(
        [frozenset({v[1], v[2]}), frozenset({v[2], v[3]})]
    )
    prover = Prover(graph, CachedMembership(db))
    return db, graph, prover


def f(value):
    return fact("r", (value,))


def v(value):
    """The tuple storing r(value) in ``setup`` (tids follow insertion from
    0), None for a value it does not store."""
    return vertex("r", value - 1) if 1 <= value <= 5 else None


class TestExistsRepair:
    def test_empty_requirements_always_satisfiable(self, setup):
        _db, _graph, prover = setup
        assert prover.exists_repair([], [])

    def test_require_absent_fact_fails(self, setup):
        _db, _graph, prover = setup
        assert not prover.exists_repair([v(99)], [])

    def test_require_conflicting_pair_fails(self, setup):
        _db, _graph, prover = setup
        assert not prover.exists_repair([v(1), v(2)], [])

    def test_require_independent_pair_succeeds(self, setup):
        _db, _graph, prover = setup
        assert prover.exists_repair([v(1), v(3)], [])

    def test_forbid_conflict_free_tuple_fails(self, setup):
        # 4 is in every repair: no repair avoids it.
        _db, _graph, prover = setup
        assert not prover.exists_repair([], [v(4)])

    def test_forbid_absent_fact_trivially_succeeds(self, setup):
        _db, _graph, prover = setup
        assert prover.exists_repair([], [v(99)])

    def test_forbid_conflicting_tuple_succeeds(self, setup):
        # Excluding 2 works: the repair {1, 3, 4, 5}.
        _db, _graph, prover = setup
        assert prover.exists_repair([], [v(2)])

    def test_forbid_with_blocked_witness(self, setup):
        # Exclude 1: needs edge {1,2} with 2 kept.  Requiring 3 is fine
        # (2 and 3 conflict, but the witness is 2... wait, keeping 2 and 3
        # together violates {2,3}).  So forbidding 1 while requiring 3
        # must fail: the only blocker for 1 is 2, and 2 conflicts with 3.
        _db, _graph, prover = setup
        assert not prover.exists_repair([v(3)], [v(1)])

    def test_forbid_two_tuples_with_shared_blocker(self, setup):
        # Exclude both 1 and 3: blocked by 2 on both sides; {2,4,5} works.
        _db, _graph, prover = setup
        assert prover.exists_repair([], [v(1), v(3)])

    def test_forbid_adjacent_pair_fails(self, setup):
        # Exclude 1 and 2: 1's only blocking edge {1,2} has its remainder
        # {2} inside the forbidden set; 2's blockers {1},{3}: {3} works
        # for 2, but nothing blocks 1.  No such repair.
        _db, _graph, prover = setup
        assert not prover.exists_repair([], [v(1), v(2)])

    def test_required_and_forbidden_same_fact_fails(self, setup):
        _db, _graph, prover = setup
        assert not prover.exists_repair([v(1)], [v(1)])


class TestIsConsistentAnswer:
    def test_conflict_free_atom_consistent(self, setup):
        _db, _graph, prover = setup
        assert prover.is_consistent_answer(fm.AtomF(f(4)))

    def test_conflicting_atom_not_consistent(self, setup):
        _db, _graph, prover = setup
        assert not prover.is_consistent_answer(fm.AtomF(f(1)))

    def test_middle_vertex_not_consistent(self, setup):
        _db, _graph, prover = setup
        assert not prover.is_consistent_answer(fm.AtomF(f(2)))

    def test_disjunction_covering_edge_consistent(self, setup):
        # Every repair contains 1 or 2 (they form an edge; maximality
        # forces one of them in).
        _db, _graph, prover = setup
        phi = fm.disj([fm.AtomF(f(1)), fm.AtomF(f(2))])
        assert prover.is_consistent_answer(phi)

    def test_disjunction_of_nonadjacent_not_consistent(self, setup):
        # Repair {2,4,5} contains neither 1 nor 3.
        _db, _graph, prover = setup
        phi = fm.disj([fm.AtomF(f(1)), fm.AtomF(f(3))])
        assert not prover.is_consistent_answer(phi)

    def test_negated_absent_fact_consistent(self, setup):
        _db, _graph, prover = setup
        assert prover.is_consistent_answer(fm.NotF(fm.AtomF(f(99))))

    def test_negated_present_fact_not_consistent(self, setup):
        # 1 is in some repair, so NOT r(1) fails there.
        _db, _graph, prover = setup
        assert not prover.is_consistent_answer(fm.NotF(fm.AtomF(f(1))))

    def test_true_and_false(self, setup):
        _db, _graph, prover = setup
        assert prover.is_consistent_answer(fm.TRUE)
        assert not prover.is_consistent_answer(fm.FALSE)

    def test_stats_tracked(self, setup):
        _db, _graph, prover = setup
        prover.is_consistent_answer(fm.AtomF(f(4)))
        prover.is_consistent_answer(fm.AtomF(f(1)))
        assert prover.stats.candidates_checked == 2
        assert prover.stats.consistent == 1
        assert prover.stats.repair_searches >= 2


class TestSingletonEdges:
    def test_singleton_edge_tuple_never_consistent(self):
        db = Database()
        db.create_table("r", [("a", SQLType.INTEGER)])
        (tid,) = db.insert_rows("r", [(1,)])
        graph = ConflictHypergraph([frozenset({vertex("r", tid)})])
        prover = Prover(graph, CachedMembership(db))
        assert not prover.is_consistent_answer(fm.AtomF(f(1)))
        # ...and its negation holds in every repair.
        assert prover.is_consistent_answer(fm.NotF(fm.AtomF(f(1))))


class TestDuplicates:
    def test_excluding_fact_excludes_every_copy(self):
        """Forbidding a fact must account for all duplicate tids."""
        db = Database()
        db.create_table("r", [("a", SQLType.INTEGER)])
        t1, t2, t3 = db.insert_rows("r", [(1,), (1,), (2,)])
        # Both copies of value 1 conflict with value 2.
        graph = ConflictHypergraph(
            [
                frozenset({vertex("r", t1), vertex("r", t3)}),
                frozenset({vertex("r", t2), vertex("r", t3)}),
            ]
        )
        prover = Prover(graph, CachedMembership(db))
        # A repair avoiding value 1 entirely exists: keep {2}.
        assert prover.exists_repair([], [vertex("r", t1)])
        # But a repair avoiding value 1 AND value 2 does not.
        assert not prover.exists_repair([], [vertex("r", t2), vertex("r", t3)])

    def test_two_slots_with_copies_of_one_row_require_one_copy(self):
        """``r(1) AND r(1)`` witnessed by two copies that conflict with each
        other: a repair keeping either copy satisfies it."""
        db = Database()
        db.create_table("r", [("a", SQLType.INTEGER)])
        t1, t2 = db.insert_rows("r", [(1,), (1,)])
        copies = [vertex("r", t1), vertex("r", t2)]
        graph = ConflictHypergraph([frozenset(copies)])
        both = fm.Ground(fm.Template(fm.conj([fm.AtomF(0), fm.AtomF(1)])), copies)
        for membership in (ProvenanceMembership(db), CachedMembership(db)):
            prover = Prover(graph, membership)
            assert prover.is_possible_answer(both)
            assert prover.is_consistent_answer(both)  # one copy is always kept
