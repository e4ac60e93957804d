"""Tests for denial constraints, FDs, exclusion constraints and the parser."""

import pytest

from repro.constraints import (
    ConstraintAtom,
    DenialConstraint,
    ExclusionConstraint,
    FunctionalDependency,
    key_constraint,
    parse_constraint,
    parse_constraints,
    primary_key_fd,
    to_denial_constraints,
)
from repro.errors import ConstraintError
from repro.sql import ast
from repro.sql.parser import parse_expression


class TestDenialConstraint:
    def test_valid(self):
        constraint = DenialConstraint(
            "c",
            (ConstraintAtom("t1", "r"), ConstraintAtom("t2", "r")),
            parse_expression("t1.a = t2.a AND t1.b <> t2.b"),
        )
        assert constraint.arity == 2 and constraint.is_binary
        assert constraint.relations() == {"r"}

    def test_no_atoms_rejected(self):
        with pytest.raises(ConstraintError):
            DenialConstraint("c", ())

    def test_duplicate_alias_rejected(self):
        with pytest.raises(ConstraintError, match="repeats"):
            DenialConstraint(
                "c", (ConstraintAtom("t", "r"), ConstraintAtom("T", "s"))
            )

    def test_unqualified_ref_rejected(self):
        with pytest.raises(ConstraintError, match="qualified"):
            DenialConstraint(
                "c", (ConstraintAtom("t", "r"),), parse_expression("a > 0")
            )

    def test_unknown_alias_rejected(self):
        with pytest.raises(ConstraintError, match="unknown tuple variable"):
            DenialConstraint(
                "c", (ConstraintAtom("t", "r"),), parse_expression("zz.a > 0")
            )

    def test_subquery_rejected(self):
        # A denial body is quantifier-free; the incremental detector plans
        # it once and runs that plan on every delta.
        with pytest.raises(ConstraintError, match="quantifier-free"):
            DenialConstraint(
                "c",
                (ConstraintAtom("t", "r"),),
                parse_expression("EXISTS (SELECT * FROM s WHERE s.a = t.a)"),
            )

    def test_str(self):
        constraint = DenialConstraint(
            "c", (ConstraintAtom("t", "r"),), parse_expression("t.a < 0")
        )
        assert "DENIAL" in str(constraint) and "t.a" in str(constraint)


class TestFunctionalDependency:
    def test_to_denials_one_per_dependent(self):
        fd = FunctionalDependency("r", ["a"], ["b", "c"])
        denials = fd.to_denials()
        assert len(denials) == 2
        assert all(d.is_binary for d in denials)
        assert all(d.relations() == {"r"} for d in denials)

    def test_denial_condition_shape(self):
        fd = FunctionalDependency("r", ["a", "b"], ["c"])
        (denial,) = fd.to_denials()
        conjuncts = ast.split_conjuncts(denial.condition)
        assert len(conjuncts) == 3  # two lhs equalities + one rhs inequality
        assert conjuncts[-1].op == "<>"

    def test_empty_sides_rejected(self):
        with pytest.raises(ConstraintError):
            FunctionalDependency("r", [], ["b"])
        with pytest.raises(ConstraintError):
            FunctionalDependency("r", ["a"], [])

    def test_overlap_rejected(self):
        with pytest.raises(ConstraintError, match="both sides"):
            FunctionalDependency("r", ["a"], ["A", "b"])

    def test_key_constraint(self):
        fd = key_constraint("r", ["a"], ["a", "b", "c"])
        assert fd.lhs == ("a",) and set(fd.rhs) == {"b", "c"}

    def test_trivial_key_rejected(self):
        with pytest.raises(ConstraintError, match="trivial"):
            key_constraint("r", ["a", "b"], ["a", "b"])

    def test_primary_key_fd(self, emp_db):
        fd = primary_key_fd(emp_db, "emp")
        assert fd.lhs == ("name",) and set(fd.rhs) == {"dept", "salary"}

    def test_primary_key_fd_missing_key(self, two_table_db):
        with pytest.raises(ConstraintError, match="PRIMARY KEY"):
            primary_key_fd(two_table_db, "r")


class TestExclusionConstraint:
    def test_to_denials(self):
        excl = ExclusionConstraint("r", "s", [("a", "a")])
        (denial,) = excl.to_denials()
        assert denial.is_binary
        assert denial.relations() == {"r", "s"}

    def test_extra_condition(self):
        excl = ExclusionConstraint(
            "r", "s", [("a", "a")], parse_expression("t1.b > 0")
        )
        (denial,) = excl.to_denials()
        assert len(ast.split_conjuncts(denial.condition)) == 2

    def test_empty_rejected(self):
        with pytest.raises(ConstraintError):
            ExclusionConstraint("r", "s", [])


class TestNormalization:
    def test_mixed_list(self):
        fd = FunctionalDependency("r", ["a"], ["b"])
        excl = ExclusionConstraint("r", "s", [("a", "a")])
        denial = DenialConstraint(
            "d", (ConstraintAtom("t", "r"),), parse_expression("t.a < 0")
        )
        denials = to_denial_constraints([fd, excl, denial])
        assert len(denials) == 3

    def test_unknown_object_rejected(self):
        with pytest.raises(ConstraintError):
            to_denial_constraints(["KEY r(a)"])


class TestConstraintParser:
    def test_parse_fd(self):
        fd = parse_constraint("FD emp: name -> dept, salary")
        assert isinstance(fd, FunctionalDependency)
        assert fd.lhs == ("name",) and fd.rhs == ("dept", "salary")

    def test_parse_fd_multi_lhs(self):
        fd = parse_constraint("FD r: a b -> c")
        assert fd.lhs == ("a", "b")

    def test_parse_key_needs_schema(self, emp_db):
        fd = parse_constraint("KEY emp(name)", emp_db.catalog)
        assert set(fd.rhs) == {"dept", "salary"}
        with pytest.raises(ConstraintError, match="need a catalog"):
            parse_constraint("KEY emp(name)")

    def test_parse_exclusion(self):
        excl = parse_constraint("EXCLUSION emp(ssn) ~ contractor(ssn)")
        assert isinstance(excl, ExclusionConstraint)
        assert excl.pairs == (("ssn", "ssn"),)

    def test_parse_exclusion_with_where(self):
        excl = parse_constraint(
            "EXCLUSION emp(ssn) ~ contractor(ssn) WHERE t1.active = TRUE"
        )
        assert excl.extra is not None

    def test_parse_exclusion_arity_mismatch(self):
        with pytest.raises(ConstraintError, match="length"):
            parse_constraint("EXCLUSION r(a, b) ~ s(a)")

    def test_parse_denial(self):
        denial = parse_constraint(
            "DENIAL r1 IN emp, r2 IN emp WHERE r1.mgr = r2.name AND"
            " r1.salary > r2.salary"
        )
        assert isinstance(denial, DenialConstraint)
        assert denial.arity == 2

    def test_parse_denial_bad_atom(self):
        with pytest.raises(ConstraintError, match="alias IN relation"):
            parse_constraint("DENIAL emp WHERE emp.a = 1")

    def test_parse_multi_line_with_comments(self, emp_db):
        constraints = parse_constraints(
            """
            -- keys
            KEY emp(name)

            FD emp: dept -> salary  -- departments pay flat salaries
            """,
            emp_db.catalog,
        )
        assert len(constraints) == 2

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConstraintError, match="line 2"):
            parse_constraints("FD r: a -> b\nBOGUS x")

    def test_unknown_kind(self):
        with pytest.raises(ConstraintError, match="unknown constraint kind"):
            parse_constraint("CHECK r.a > 0")
