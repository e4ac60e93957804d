"""Tests for the PODS'99 query-rewriting baseline."""

import re

import pytest

from repro import Database, HippoEngine
from repro.constraints import (
    ConstraintAtom,
    DenialConstraint,
    ExclusionConstraint,
    FunctionalDependency,
)
from repro.errors import RewritingError
from repro.constraints.foreign_key import ForeignKeyConstraint
from repro.repairs import ground_truth_consistent_answers
from repro.rewriting import RewritingEngine, classify
from repro.sql.parser import parse_expression


@pytest.fixture
def emp_fd():
    return FunctionalDependency("emp", ["name"], ["dept", "salary"])


class TestRewrittenSQL:
    def test_residue_shape(self, emp_db, emp_fd):
        engine = RewritingEngine(emp_db, [emp_fd])
        sql = engine.rewrite_sql("SELECT * FROM emp WHERE salary > 10")
        assert "NOT EXISTS" in sql
        assert sql.count("NOT EXISTS") >= 2  # one per dependent attribute

    def test_unary_constraint_residue_is_negated_condition(self, two_table_db):
        denial = DenialConstraint(
            "pos", (ConstraintAtom("t", "r"),), parse_expression("t.a < 0")
        )
        engine = RewritingEngine(two_table_db, [denial])
        sql = engine.rewrite_sql("SELECT * FROM r")
        assert "NOT" in sql and "EXISTS" not in sql

    def test_rewritten_query_is_valid_sql(self, emp_db, emp_fd):
        engine = RewritingEngine(emp_db, [emp_fd])
        sql = engine.rewrite_sql("SELECT * FROM emp")
        emp_db.query(sql)  # must parse and execute


def _binary(name, left, right, condition):
    """``NOT (left(t1) AND right(t2) AND condition)``."""
    return DenialConstraint(
        name,
        (ConstraintAtom("t1", left), ConstraintAtom("t2", right)),
        parse_expression(condition),
    )


class TestResidueIdentity:
    """One residue per *distinct* condition: the two positions of a
    symmetric constraint are one, those of an asymmetric one are two."""

    KEY = FunctionalDependency("r", ["a"], ["b"])

    def residues(self, db, constraints, query):
        return RewritingEngine(db, constraints).rewrite_sql(query).count("NOT EXISTS")

    def test_key_fd_gives_one_residue_per_atom(self, two_table_db):
        key_s = FunctionalDependency("s", ["a"], ["b"])
        assert self.residues(two_table_db, [self.KEY], "SELECT * FROM r") == 1
        join = "SELECT r.a, r.b, s.b FROM r, s WHERE r.a = s.a"
        assert self.residues(two_table_db, [self.KEY, key_s], join) == 2

    def test_explicit_symmetric_denial_is_merged_whatever_the_spelling(
        self, two_table_db
    ):
        denial = _binary("fd", "r", "r", "t2.b <> t1.b AND t1.a = t2.a")
        assert self.residues(two_table_db, [denial], "SELECT * FROM r") == 1

    def test_asymmetric_condition_keeps_both_positions(self, two_table_db):
        denial = _binary("lt", "r", "r", "t1.a = t2.a AND t1.b < t2.b")
        engine = RewritingEngine(two_table_db, [denial])
        sql = engine.rewrite_sql("SELECT * FROM r")
        # "no partner above me" and "no partner below me".
        assert "(r.b < rw0.b)" in sql and "(rw1.b < r.b)" in sql
        hippo = HippoEngine(two_table_db, [denial])
        truth = ground_truth_consistent_answers(
            two_table_db, hippo.hypergraph, hippo.parse("SELECT * FROM r")[0]
        )
        assert engine.consistent_answers("SELECT * FROM r").as_set() == truth
        assert truth == {(2, 5), (3, 7), (4, 4)}

    def test_exclusion_constraint_gives_one_residue_per_side(self, two_table_db):
        exclusion = [ExclusionConstraint("r", "s", [("a", "a")])]
        assert self.residues(two_table_db, exclusion, "SELECT * FROM r") == 1
        assert self.residues(two_table_db, exclusion, "SELECT * FROM s") == 1
        join = "SELECT r.a, r.b, s.a FROM r, s WHERE r.b = s.b"
        sql = RewritingEngine(two_table_db, exclusion).rewrite_sql(join)
        assert "FROM s AS rw0" in sql and "FROM r AS rw1" in sql
        assert sql.count("NOT EXISTS") == 2

    def test_self_join_keeps_a_residue_per_alias(self, two_table_db):
        query = "SELECT u1.a, u1.b, u2.b FROM r u1, r u2 WHERE u1.a = u2.a"
        sql = RewritingEngine(two_table_db, [self.KEY]).rewrite_sql(query)
        assert sql.count("NOT EXISTS") == 2
        assert "u1.b <> rw0.b" in sql and "u2.b <> rw1.b" in sql


class TestRewritingIsAFunctionOfItsInputs:
    def test_same_query_same_text(self, emp_db, emp_fd):
        engine = RewritingEngine(emp_db, [emp_fd])
        query = "SELECT * FROM emp WHERE salary > 10"
        assert engine.rewrite_sql(query) == engine.rewrite_sql(query)
        first = engine.consistent_answers(query).stats["rewritten_sql"]
        assert engine.consistent_answers(query).stats["rewritten_sql"] == first

    def test_residues_of_one_rewrite_get_distinct_aliases(self, emp_db, emp_fd):
        emp_db.execute("CREATE TABLE former (name TEXT, dept TEXT, salary INTEGER)")
        constraints = [
            emp_fd,
            FunctionalDependency("former", ["name"], ["dept", "salary"]),
        ]
        sql = RewritingEngine(emp_db, constraints).rewrite_sql(
            "SELECT e.name, e.dept, e.salary, f.dept, f.salary FROM emp e, former f"
            " WHERE e.name = f.name"
        )
        aliases = re.findall(r"AS (rw\d+)", sql)
        assert aliases == ["rw0", "rw1", "rw2", "rw3"]

    def test_fresh_aliases_skip_the_query_own(self, two_table_db):
        engine = RewritingEngine(
            two_table_db, [FunctionalDependency("r", ["a"], ["b"])]
        )
        query = "SELECT * FROM r rw0"
        assert "FROM r AS rw1" in engine.rewrite_sql(query)
        assert engine.consistent_answers(query).as_set() == {(2, 5), (3, 7), (4, 4)}


class TestCorrectness:
    def test_selection_matches_ground_truth(self, emp_db, emp_fd):
        engine = RewritingEngine(emp_db, [emp_fd])
        hippo = HippoEngine(emp_db, [emp_fd])
        for text in [
            "SELECT * FROM emp",
            "SELECT * FROM emp WHERE salary > 10",
            "SELECT * FROM emp WHERE dept = 'cs'",
        ]:
            truth = ground_truth_consistent_answers(
                emp_db, hippo.hypergraph, hippo.parse(text)[0]
            )
            assert engine.consistent_answers(text).as_set() == truth, text

    def test_rows_come_in_hippos_default_order(self, emp_db, emp_fd):
        text = "SELECT * FROM emp"
        expected = HippoEngine(emp_db, [emp_fd]).consistent_answers(text).rows
        assert RewritingEngine(emp_db, [emp_fd]).consistent_answers(text).rows == (
            expected
        )

    def test_join_matches_ground_truth(self, emp_db, emp_fd):
        emp_db.execute("CREATE TABLE mgr (name TEXT, dept TEXT)")
        emp_db.execute("INSERT INTO mgr VALUES ('bob','ee'), ('frank','cs')")
        engine = RewritingEngine(emp_db, [emp_fd])
        hippo = HippoEngine(emp_db, [emp_fd])
        text = (
            "SELECT e.name, e.dept, e.salary, m.name FROM emp e, mgr m"
            " WHERE e.dept = m.dept"
        )
        truth = ground_truth_consistent_answers(
            emp_db, hippo.hypergraph, hippo.parse(text)[0]
        )
        assert engine.consistent_answers(text).as_set() == truth

    def test_difference_single_atom_right(self, emp_db, emp_fd):
        emp_db.execute("CREATE TABLE former (name TEXT, dept TEXT, salary INTEGER)")
        emp_db.execute("INSERT INTO former VALUES ('bob','ee',20), ('zed','cs',1)")
        engine = RewritingEngine(emp_db, [emp_fd])
        hippo = HippoEngine(emp_db, [emp_fd])
        text = "SELECT * FROM emp EXCEPT SELECT * FROM former"
        truth = ground_truth_consistent_answers(
            emp_db, hippo.hypergraph, hippo.parse(text)[0]
        )
        assert engine.consistent_answers(text).as_set() == truth

    def test_exclusion_constraint(self, two_table_db):
        excl = ExclusionConstraint("r", "s", [("a", "a"), ("b", "b")])
        engine = RewritingEngine(two_table_db, [excl])
        hippo = HippoEngine(two_table_db, [excl])
        text = "SELECT * FROM r"
        truth = ground_truth_consistent_answers(
            two_table_db, hippo.hypergraph, hippo.parse(text)[0]
        )
        assert engine.consistent_answers(text).as_set() == truth

    def test_consistent_database_identity(self, two_table_db):
        fd = FunctionalDependency("s", ["a"], ["b"])
        engine = RewritingEngine(two_table_db, [fd])
        rows = engine.consistent_answers("SELECT * FROM s").as_set()
        assert rows == frozenset(two_table_db.query("SELECT * FROM s").rows)


class TestScopeLimits:
    def test_union_rejected(self, emp_db, emp_fd):
        engine = RewritingEngine(emp_db, [emp_fd])
        with pytest.raises(RewritingError, match="union"):
            engine.rewrite(
                "SELECT name, dept FROM emp WHERE salary = 10"
                " UNION SELECT name, dept FROM emp WHERE salary = 12"
            )

    def test_ternary_constraint_rejected(self, two_table_db):
        denial = DenialConstraint(
            "t3",
            (
                ConstraintAtom("x", "r"),
                ConstraintAtom("y", "r"),
                ConstraintAtom("z", "s"),
            ),
            parse_expression("x.a = y.a AND y.a = z.a"),
        )
        engine = RewritingEngine(two_table_db, [denial])
        with pytest.raises(RewritingError, match="binary"):
            engine.rewrite("SELECT * FROM r")

    def test_ternary_constraint_on_other_relation_tolerated(self, two_table_db):
        two_table_db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        denial = DenialConstraint(
            "t3",
            (
                ConstraintAtom("x", "t"),
                ConstraintAtom("y", "t"),
                ConstraintAtom("z", "t"),
            ),
            parse_expression("x.a = y.a AND y.a = z.a"),
        )
        engine = RewritingEngine(two_table_db, [denial])
        engine.rewrite("SELECT * FROM r")  # r untouched by the constraint

    def test_multi_atom_difference_right_rejected(self, two_table_db):
        fd = FunctionalDependency("r", ["a"], ["b"])
        engine = RewritingEngine(two_table_db, [fd])
        with pytest.raises(RewritingError, match="single"):
            engine.rewrite(
                "SELECT * FROM r EXCEPT"
                " SELECT s.a, s.b FROM s, r t WHERE t.a = s.a AND t.b = s.b"
            )

    def test_stats_include_rewritten_sql(self, emp_db, emp_fd):
        engine = RewritingEngine(emp_db, [emp_fd])
        answers = engine.consistent_answers("SELECT * FROM emp")
        assert "NOT EXISTS" in answers.stats["rewritten_sql"]


class TestClassify:
    """The static, data-free routing decision behind `.classify`."""

    def test_rewritable_core(self, emp_db, emp_fd):
        result = classify("SELECT * FROM emp", [emp_fd], schema=emp_db)
        assert result.path == "first-order-rewriting"
        assert result.rewritable
        assert result.shape == "core"
        assert result.query_relations == ("emp",)
        assert result.reasons == ()
        # the FD expands into one denial per dependent attribute
        assert result.denial_constraints == 2
        assert result.foreign_keys == 0

    def test_union_needs_hypergraph(self, emp_db, emp_fd):
        result = classify(
            "SELECT name, dept FROM emp WHERE salary = 10"
            " UNION SELECT name, dept FROM emp WHERE salary = 12",
            [emp_fd],
            schema=emp_db,
        )
        assert result.path == "conflict-hypergraph"
        assert not result.rewritable
        assert result.shape == "union"
        assert any("union" in reason for reason in result.reasons)

    def test_foreign_key_forces_hypergraph(self, emp_db, emp_fd):
        emp_db.execute("CREATE TABLE dept (dept TEXT, head TEXT)")
        fk = ForeignKeyConstraint("emp", ["dept"], "dept", ["dept"])
        result = classify("SELECT * FROM emp", [emp_fd, fk], schema=emp_db)
        assert result.path == "conflict-hypergraph"
        assert result.foreign_keys == 1
        assert any("emp->dept" in reason for reason in result.reasons)

    def test_ternary_constraint_blocks_rewriting(self, two_table_db):
        denial = DenialConstraint(
            "t3",
            (
                ConstraintAtom("x", "r"),
                ConstraintAtom("y", "r"),
                ConstraintAtom("z", "s"),
            ),
            parse_expression("x.a = y.a AND y.a = z.a"),
        )
        result = classify("SELECT * FROM r", [denial], schema=two_table_db)
        assert result.path == "conflict-hypergraph"
        assert any("binary" in reason for reason in result.reasons)

    def test_existential_projection_unsupported(self, emp_db, emp_fd):
        result = classify("SELECT name FROM emp", [emp_fd], schema=emp_db)
        assert result.path == "unsupported"
        assert not result.rewritable
        assert result.shape == "unknown"

    def test_classification_is_data_free(self, emp_db, emp_fd):
        before = classify("SELECT * FROM emp", [emp_fd], schema=emp_db)
        emp_db.execute("DELETE FROM emp")
        after = classify("SELECT * FROM emp", [emp_fd], schema=emp_db)
        assert before == after

    def test_describe_mentions_path(self, emp_db, emp_fd):
        report = classify("SELECT * FROM emp", [emp_fd], schema=emp_db).describe()
        assert "path: first-order-rewriting" in report
        assert "relations: emp" in report


def _denial(name, relations, condition):
    atoms = tuple(
        ConstraintAtom(alias, relation)
        for alias, relation in zip("xyz", relations)
    )
    return DenialConstraint(
        name, atoms, parse_expression(condition) if condition else None
    )


SCOPE_QUERIES = [
    "SELECT * FROM r WHERE a > 1",
    "SELECT r.a, r.b, s.b FROM r, s WHERE r.a = s.a",
    "SELECT * FROM r UNION SELECT * FROM s",
    "SELECT * FROM r EXCEPT SELECT * FROM s",
    "SELECT * FROM r EXCEPT SELECT * FROM t",
    "SELECT * FROM r EXCEPT SELECT * FROM s EXCEPT SELECT * FROM t WHERE a = 1",
    "SELECT * FROM r EXCEPT SELECT s.a, s.b FROM s, t WHERE t.a = s.a AND t.b = s.b",
    "SELECT * FROM r EXCEPT (SELECT * FROM s UNION SELECT * FROM t)",
    "SELECT * FROM r EXCEPT (SELECT * FROM s EXCEPT SELECT * FROM t)",
    "SELECT * FROM r WHERE a = 1 UNION SELECT * FROM s EXCEPT SELECT * FROM t",
]

SCOPE_CONSTRAINTS = {
    "none": [],
    "fd": [FunctionalDependency("r", ["a"], ["b"])],
    "exclusion": [ExclusionConstraint("r", "s", [("a", "a"), ("b", "b")])],
    "unary": [_denial("pos", ["r"], "x.a < 0")],
    "unary-unconditional": [_denial("none", ["s"], None)],
    "ternary": [_denial("t3", ["r", "r", "s"], "x.a = y.a AND y.a = z.a")],
    "ternary-elsewhere": [_denial("t3", ["t", "t", "t"], "x.a = y.a AND y.a = z.a")],
    "mixed": [
        FunctionalDependency("s", ["a"], ["b"]),
        _denial("t3", ["t", "t", "t"], "x.a = y.a AND y.a = z.a"),
    ],
    "fd+unary": [
        FunctionalDependency("r", ["a"], ["b"]),
        _denial("five", ["r"], "x.b = 5"),
    ],
    "exclusion+unary-partner": [
        ExclusionConstraint("r", "s", [("a", "a"), ("b", "b")]),
        _denial("five", ["s"], "x.b = 5"),
    ],
    "self-pair": [_denial("loop", ["r", "r"], "x.a = y.b")],
}


@pytest.mark.parametrize("constraints", sorted(SCOPE_CONSTRAINTS))
@pytest.mark.parametrize("text", SCOPE_QUERIES)
def test_classify_is_the_scope_of_rewrite(two_table_db, text, constraints):
    """``classify(q, ics).rewritable`` iff ``rewrite(q)`` does not raise,
    and a refusal carries classify's first reason."""
    two_table_db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    ics = SCOPE_CONSTRAINTS[constraints]
    verdict = classify(text, ics, schema=two_table_db)
    engine = RewritingEngine(two_table_db, ics)
    if verdict.rewritable:
        two_table_db.query(engine.rewrite_sql(text))  # and the result executes
    else:
        with pytest.raises(RewritingError) as refusal:
            engine.rewrite(text)
        assert str(refusal.value) == verdict.reasons[0]


def test_unary_denial_on_difference_right_is_not_rewritable():
    """A tuple violating a unary denial is in no repair, so it is never
    subtracted -- but the rewriting subtracts every stored right-hand
    tuple.  classify() must route this to the hypergraph path."""
    db = Database()
    db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
    db.execute("CREATE TABLE s (a INTEGER, b INTEGER)")
    db.insert_rows("r", [(1, 1), (2, 2)])
    db.insert_rows("s", [(1, 1), (2, -2)])
    ics = [_denial("pos", ["s"], "x.b > 0")]
    text = "SELECT a, b FROM r EXCEPT SELECT a, b FROM s"

    hippo = HippoEngine(db, ics)
    truth = ground_truth_consistent_answers(db, hippo.hypergraph, hippo.parse(text)[0])
    assert truth == {(1, 1), (2, 2)}
    assert hippo.consistent_answers(text).as_set() == truth

    verdict = classify(text, ics, schema=db)
    assert not verdict.rewritable and verdict.path == "conflict-hypergraph"
    assert "unary denial" in verdict.reasons[0]
    with pytest.raises(RewritingError, match="unary denial"):
        RewritingEngine(db, ics).rewrite(text)
    # The same constraint on the *left* relation stays rewritable.
    assert classify(
        "SELECT a, b FROM s EXCEPT SELECT a, b FROM r", ics, schema=db
    ).rewritable


@pytest.mark.parametrize(
    "ics, r_rows, text, certain, reason",
    [
        (
            # (3,5) violates the unary denial, so it is in no repair and
            # its FD partner (3,6) is in every one.
            [
                FunctionalDependency("r", ["a"], ["b"]),
                _denial("five", ["r"], "x.b = 5"),
            ],
            [(3, 5), (3, 6), (9, 9)],
            "SELECT * FROM r",
            {(3, 6), (9, 9)},
            "alone can violate five",
        ),
        (
            # (1,1) pairs with itself, so it is in no repair and (2,1),
            # which conflicts with nothing else, is in every one.
            [_denial("loop", ["r", "r"], "x.a = y.b")],
            [(1, 1), (2, 1)],
            "SELECT * FROM r",
            {(2, 1)},
            "alone can violate loop",
        ),
        (
            # The query never reads r, but s(1,1)'s only conflict partner
            # r(1,1) pairs with itself.
            [
                ExclusionConstraint("r", "s", [("a", "a")]),
                _denial("loop", ["r", "r"], "x.a = y.b"),
            ],
            [(1, 1)],
            "SELECT * FROM s",
            {(1, 1)},
            "alone can violate loop",
        ),
    ],
    ids=["fd+unary", "self-pair", "self-pair-partner"],
)
def test_partner_in_no_repair_is_not_rewritable(
    ics, r_rows, text, certain, reason
):
    """A residue counts every *stored* conflict partner; one that is in
    no repair removes nothing.  The rewriting used to answer these
    shapes (dropping the certain tuple) -- classify() must refuse them."""
    db = Database()
    db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
    db.execute("CREATE TABLE s (a INTEGER, b INTEGER)")
    db.insert_rows("r", r_rows)
    db.insert_rows("s", [(1, 1)])

    hippo = HippoEngine(db, ics)
    truth = ground_truth_consistent_answers(db, hippo.hypergraph, hippo.parse(text)[0])
    assert truth == certain
    assert hippo.consistent_answers(text).as_set() == truth

    verdict = classify(text, ics, schema=db)
    assert not verdict.rewritable and verdict.path == "conflict-hypergraph"
    assert reason in verdict.reasons[0]
    with pytest.raises(RewritingError, match=reason):
        RewritingEngine(db, ics).rewrite(text)
