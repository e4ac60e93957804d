"""Tests for grounding candidate tuples into membership formulas."""

from repro.conflicts import ConflictHypergraph
from repro.core import formula as fm
from repro.core.envelope import Enveloper, provenance_hints
from repro.core.facts import fact
from repro.core.grounding import GroundQuery
from repro.core.membership import CachedMembership
from repro.ra import from_sql_query
from repro.sql.parser import parse_query


def ground(db, text, candidate):
    """``candidate``'s formula under ``text``, grounded from the envelope's
    witnesses, as a tree over the facts those witnesses store."""
    tree = from_sql_query(parse_query(text), db.catalog)
    witnesses = Enveloper(db, ConflictHypergraph()).evaluate(tree).witnesses
    phi = GroundQuery(tree).formula_for(provenance_hints(witnesses, candidate))
    return fm.rename(phi.formula, CachedMembership(db).fact_of)


class TestCoreGrounding:
    def test_identity_query(self, two_table_db):
        phi = ground(two_table_db, "SELECT * FROM r", (1, 1))
        assert phi == fm.AtomF(fact("r", (1, 1)))

    def test_condition_failure_grounds_to_false(self, two_table_db):
        text = "SELECT * FROM r WHERE a > 2"
        assert ground(two_table_db, text, (1, 1)) == fm.FALSE
        assert ground(two_table_db, text, (3, 7)) == fm.AtomF(fact("r", (3, 7)))

    def test_a_tuple_the_database_lacks_grounds_to_false(self, two_table_db):
        """No core produces it over the database, so none does in a repair."""
        assert ground(two_table_db, "SELECT * FROM r", (8, 8)) == fm.FALSE

    def test_constant_reconstruction(self, two_table_db):
        phi = ground(two_table_db, "SELECT a FROM r WHERE b = 5", (2,))
        assert phi == fm.AtomF(fact("r", (2, 5)))

    def test_constants_in_the_condition(self, two_table_db):
        r25 = fm.AtomF(fact("r", (2, 5)))
        text = "SELECT a FROM r WHERE b = 5 AND 5 = b"
        assert ground(two_table_db, text, (2,)) == r25
        # Contradictory constants: no row satisfies both.
        text = "SELECT a FROM r WHERE b = 5 AND b = 1"
        assert ground(two_table_db, text, (2,)) == fm.FALSE
        # ``b = NULL`` is never true.
        assert ground(two_table_db, "SELECT a FROM r WHERE b = NULL", (2,)) == fm.FALSE
        # Same value, other type: SQL equality holds.
        text = "SELECT a FROM r WHERE b = 5 AND b = 5.0"
        assert ground(two_table_db, text, (2,)) == r25

    def test_projection_must_agree_with_the_witness(self, two_table_db):
        # x.a is output 0; y.a (output 2) must agree with it.
        text = "SELECT x.a, x.b, y.a FROM r x, s y WHERE x.a = y.a AND y.b = 5"
        assert ground(two_table_db, text, (2, 5, 2)) != fm.FALSE
        assert ground(two_table_db, text, (2, 5, 4)) == fm.FALSE

    def test_join_grounds_to_conjunction(self, two_table_db):
        text = "SELECT x.a, x.b, y.b FROM r x, s y WHERE x.a = y.a"
        phi = ground(two_table_db, text, (2, 5, 5))
        assert isinstance(phi, fm.AndF)
        assert fm.atoms_of(phi) == {fact("r", (2, 5)), fact("s", (2, 5))}

    def test_join_condition_checked_on_the_witnesses(self, two_table_db):
        text = "SELECT x.a, x.b, y.a, y.b FROM r x, s y WHERE x.b < y.b"
        assert ground(two_table_db, text, (1, 1, 2, 5)) != fm.FALSE
        assert ground(two_table_db, text, (2, 5, 1, 1)) == fm.FALSE


class TestSetOperations:
    def test_union_grounds_to_disjunction(self, two_table_db):
        phi = ground(two_table_db, "SELECT * FROM r UNION SELECT * FROM s", (2, 5))
        assert isinstance(phi, fm.OrF)
        assert fm.atoms_of(phi) == {fact("r", (2, 5)), fact("s", (2, 5))}

    def test_union_branch_condition_prunes(self, two_table_db):
        text = "SELECT * FROM r WHERE a = 1 UNION SELECT * FROM s WHERE a = 9"
        # (9,9) only satisfies the right branch: the OR collapses.
        assert ground(two_table_db, text, (9, 9)) == fm.AtomF(fact("s", (9, 9)))

    def test_difference_grounds_to_and_not(self, two_table_db):
        text = "SELECT * FROM r EXCEPT SELECT * FROM s"
        (disjunct,) = fm.to_dnf(ground(two_table_db, text, (2, 5)))
        assert disjunct == (
            frozenset([fact("r", (2, 5))]),
            frozenset([fact("s", (2, 5))]),
        )

    def test_difference_right_branch_false_simplifies(self, two_table_db):
        text = "SELECT * FROM r EXCEPT SELECT * FROM s WHERE a > 5"
        # (2,5) cannot satisfy the right branch; NOT(FALSE) vanishes.
        assert ground(two_table_db, text, (2, 5)) == fm.AtomF(fact("r", (2, 5)))


class TestWitnessFacts:
    def test_formula_size_independent_of_data(self, two_table_db):
        """The polynomial-data-complexity linchpin: |Phi| ~ query size."""
        before = ground(two_table_db, "SELECT * FROM r", (1, 1))
        for i in range(100, 200):
            two_table_db.execute(f"INSERT INTO r VALUES ({i}, {i})")
        after = ground(two_table_db, "SELECT * FROM r", (1, 1))
        assert before == after  # same single-atom formula

    def test_slots_hold_the_witness_tids(self, two_table_db):
        db = two_table_db
        tree = from_sql_query(
            parse_query("SELECT * FROM r EXCEPT SELECT * FROM s"),
            db.catalog,
        )
        witnesses = Enveloper(db, ConflictHypergraph()).evaluate(tree).witnesses
        phi = GroundQuery(tree).formula_for(provenance_hints(witnesses, (2, 5)))
        ((r_tid,), (s_tid,)) = (db.table(t).lookup((2, 5)) for t in "rs")
        assert list(phi.vertices) == [("r", r_tid), ("s", s_tid)]
