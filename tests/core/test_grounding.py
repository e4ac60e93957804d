"""Tests for grounding candidate tuples into membership formulas."""


from repro.core import formula as fm
from repro.core.facts import fact
from repro.core.grounding import GroundQuery
from repro.ra import CatalogSchemaProvider, from_sql_query
from repro.sql.parser import parse_query


def grounder_for(db, text):
    schema = CatalogSchemaProvider(db.catalog)
    tree = from_sql_query(parse_query(text), schema)
    return GroundQuery(tree, schema)


class TestCoreGrounding:
    def test_identity_query(self, two_table_db):
        grounder = grounder_for(two_table_db, "SELECT * FROM r")
        phi = grounder.formula_for((1, 1)).formula
        assert phi == fm.AtomF(fact("r", (1, 1)))

    def test_condition_failure_grounds_to_false(self, two_table_db):
        grounder = grounder_for(two_table_db, "SELECT * FROM r WHERE a > 2")
        assert grounder.formula_for((1, 1)).formula == fm.FALSE
        assert grounder.formula_for((3, 7)).formula == fm.AtomF(fact("r", (3, 7)))

    def test_constant_reconstruction(self, two_table_db):
        grounder = grounder_for(two_table_db, "SELECT a FROM r WHERE b = 5")
        assert grounder.formula_for((2,)).formula == fm.AtomF(fact("r", (2, 5)))

    def test_pinned_conjuncts_are_not_re_evaluated(self, two_table_db):
        """``b = 5`` holds on every reconstruction (b is rebuilt as 5): the
        compiled core keeps no condition.  A conjunct the reconstruction
        does not satisfy by construction stays."""
        pinned = grounder_for(two_table_db, "SELECT a FROM r WHERE b = 5 AND 5 = b")
        assert pinned._cores[0].condition is None
        assert pinned.formula_for((2,)).formula == fm.AtomF(fact("r", (2, 5)))
        # Contradictory constants: b is rebuilt as one of them only.
        grounder = grounder_for(two_table_db, "SELECT a FROM r WHERE b = 5 AND b = 1")
        assert grounder.formula_for((2,)).formula == fm.FALSE
        # NULL pins nothing: ``b = NULL`` is never true.
        grounder = grounder_for(two_table_db, "SELECT a FROM r WHERE b = NULL")
        assert grounder.formula_for((2,)).formula == fm.FALSE
        # Same value, other type: left to the evaluator.
        grounder = grounder_for(two_table_db, "SELECT a FROM r WHERE b = 5 AND b = 5.0")
        assert grounder._cores[0].condition is not None
        assert grounder.formula_for((2,)).formula == fm.AtomF(fact("r", (2, 5)))

    def test_tautological_projection_checks_are_dropped(self, two_table_db):
        identity = grounder_for(two_table_db, "SELECT * FROM r")
        assert identity._cores[0].projection_checks == []
        # x.a is rebuilt from output 0; y.a (output 2) must agree with it.
        joined = grounder_for(
            two_table_db,
            "SELECT x.a, x.b, y.a FROM r x, s y WHERE x.a = y.a AND y.b = 5",
        )
        assert joined._cores[0].projection_checks == [(2, ("slot", 0))]
        assert joined.formula_for((2, 5, 2)).formula != fm.FALSE
        assert joined.formula_for((2, 5, 4)).formula == fm.FALSE

    def test_join_grounds_to_conjunction(self, two_table_db):
        grounder = grounder_for(
            two_table_db, "SELECT x.a, x.b, y.b FROM r x, s y WHERE x.a = y.a"
        )
        phi = grounder.formula_for((2, 5, 5)).formula
        assert isinstance(phi, fm.AndF)
        assert fm.atoms_of(phi) == {fact("r", (2, 5)), fact("s", (2, 5))}

    def test_join_condition_checked_on_reconstruction(self, two_table_db):
        grounder = grounder_for(
            two_table_db,
            "SELECT x.a, x.b, y.a, y.b FROM r x, s y WHERE x.b < y.b",
        )
        assert grounder.formula_for((1, 1, 2, 5)).formula != fm.FALSE
        assert grounder.formula_for((2, 5, 1, 1)).formula == fm.FALSE


class TestSetOperations:
    def test_union_grounds_to_disjunction(self, two_table_db):
        grounder = grounder_for(
            two_table_db, "SELECT * FROM r UNION SELECT * FROM s"
        )
        phi = grounder.formula_for((2, 5)).formula
        assert isinstance(phi, fm.OrF)
        assert fm.atoms_of(phi) == {fact("r", (2, 5)), fact("s", (2, 5))}

    def test_union_branch_condition_prunes(self, two_table_db):
        grounder = grounder_for(
            two_table_db,
            "SELECT * FROM r WHERE a = 1 UNION SELECT * FROM s WHERE a = 9",
        )
        # (9,9) only satisfies the right branch: the OR collapses.
        assert grounder.formula_for((9, 9)).formula == fm.AtomF(fact("s", (9, 9)))

    def test_difference_grounds_to_and_not(self, two_table_db):
        grounder = grounder_for(
            two_table_db, "SELECT * FROM r EXCEPT SELECT * FROM s"
        )
        phi = grounder.formula_for((2, 5)).formula
        (disjunct,) = fm.to_dnf(phi)
        assert disjunct == (
            frozenset([fact("r", (2, 5))]),
            frozenset([fact("s", (2, 5))]),
        )

    def test_difference_right_branch_false_simplifies(self, two_table_db):
        grounder = grounder_for(
            two_table_db, "SELECT * FROM r EXCEPT SELECT * FROM s WHERE a > 5"
        )
        # (2,5) cannot satisfy the right branch; NOT(FALSE) vanishes.
        assert grounder.formula_for((2, 5)).formula == fm.AtomF(fact("r", (2, 5)))


class TestWitnessFacts:
    def test_formula_size_independent_of_data(self, two_table_db):
        """The polynomial-data-complexity linchpin: |Phi| ~ query size."""
        grounder = grounder_for(two_table_db, "SELECT * FROM r")
        before = grounder.formula_for((1, 1)).formula
        for i in range(100, 200):
            two_table_db.execute(f"INSERT INTO r VALUES ({i}, {i})")
        after = grounder.formula_for((1, 1)).formula
        assert before == after  # same single-atom formula
