"""Property suite: incremental maintenance == full re-detection.

For randomized sequences of INSERT/DELETE/UPDATE over FD, exclusion and
restricted-FK scenarios (including the generated workloads), the
incrementally maintained conflict hypergraph must equal what a fresh
Conflict Detection run produces on the final state -- same edge set,
same labels, same adjacency, same per-constraint counters.  Batch
boundaries are randomized too, so deltas interact (insert-then-delete
of the same tuple inside one batch, updates folded into batches, ...).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, HippoEngine
from repro.conflicts import detect_conflicts
from repro.constraints import (
    ConstraintAtom,
    DenialConstraint,
    ExclusionConstraint,
    FunctionalDependency,
)
from repro.constraints.foreign_key import ForeignKeyConstraint
from repro.sql.parser import parse_expression
from repro.workloads import generate_key_conflict_table


def assert_equivalent(engine: HippoEngine, db: Database, constraints) -> None:
    full = detect_conflicts(db, constraints)
    maintained = engine.hypergraph
    assert maintained.as_dict() == full.hypergraph.as_dict()
    assert engine.detection.per_constraint == full.per_constraint
    assert engine.detection.subsumed == full.subsumed
    assert set(maintained.conflicting_vertices()) == set(
        full.hypergraph.conflicting_vertices()
    )
    for v in full.hypergraph.conflicting_vertices():
        assert set(maintained.edges_of(v)) == set(full.hypergraph.edges_of(v))


# One randomized mutation step: (kind, key, value).
ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update"]),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=25,
)
# After how many ops to refresh + compare (randomized batch boundaries).
batches = st.integers(min_value=1, max_value=5)


def run_sequence(db, engine, constraints, table, sequence, batch):
    applied = 0
    for kind, key, value in sequence:
        if kind == "insert":
            db.execute(f"INSERT INTO {table} VALUES ({key}, {value})")
        elif kind == "delete":
            db.execute(f"DELETE FROM {table} WHERE a = {key}")
        else:
            db.execute(f"UPDATE {table} SET b = {value} WHERE a = {key}")
        applied += 1
        if applied % batch == 0:
            engine.refresh()
            assert_equivalent(engine, db, constraints)
    engine.refresh()
    assert_equivalent(engine, db, constraints)


class TestFunctionalDependencies:
    @settings(max_examples=30, deadline=None)
    @given(sequence=ops, batch=batches)
    def test_fd_sequences(self, sequence, batch):
        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO r VALUES (0, 0), (0, 1), (1, 2), (2, 3)")
        fd = FunctionalDependency("r", ["a"], ["b"])
        engine = HippoEngine(db, [fd])
        run_sequence(db, engine, [fd], "r", sequence, batch)

    @settings(max_examples=15, deadline=None)
    @given(sequence=ops, batch=batches)
    def test_fd_plus_unary_denial(self, sequence, batch):
        # Singletons absorb pairs: exercises subsumption bookkeeping.
        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO r VALUES (0, 0), (0, 1)")
        constraints = [
            FunctionalDependency("r", ["a"], ["b"]),
            DenialConstraint(
                "neg", (ConstraintAtom("t", "r"),), parse_expression("t.b < 2")
            ),
        ]
        engine = HippoEngine(db, constraints)
        run_sequence(db, engine, constraints, "r", sequence, batch)


# One randomized mutation step over ``r`` / ``s``: (kind, table, key, value).
two_relation_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update"]),
        st.sampled_from(["r", "s"]),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=4),
    ),
    min_size=1,
    max_size=20,
)


def run_two_relation_sequence(constraints, sequence, batch):
    db = Database()
    db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
    db.execute("CREATE TABLE s (a INTEGER, b INTEGER)")
    db.execute("INSERT INTO r VALUES (0, 0), (1, 1)")
    db.execute("INSERT INTO s VALUES (1, 0), (2, 1)")
    engine = HippoEngine(db, constraints)
    applied = 0
    for kind, table, key, value in sequence:
        if kind == "insert":
            db.execute(f"INSERT INTO {table} VALUES ({key}, {value})")
        elif kind == "delete":
            db.execute(f"DELETE FROM {table} WHERE a = {key}")
        else:
            db.execute(f"UPDATE {table} SET b = {value} WHERE a = {key}")
        applied += 1
        if applied % batch == 0:
            engine.refresh()
            assert_equivalent(engine, db, constraints)
    engine.refresh()
    assert_equivalent(engine, db, constraints)


class TestExclusion:
    @settings(max_examples=20, deadline=None)
    @given(sequence=two_relation_ops, batch=batches)
    def test_exclusion_sequences(self, sequence, batch):
        constraints = [
            ExclusionConstraint("r", "s", [("a", "a")]),
            FunctionalDependency("r", ["a"], ["b"]),
        ]
        run_two_relation_sequence(constraints, sequence, batch)


def three_atoms(name, condition):
    """A denial over ``r t1, s t2, r t3``."""
    atoms = (
        ConstraintAtom("t1", "r"),
        ConstraintAtom("t2", "s"),
        ConstraintAtom("t3", "r"),
    )
    return DenialConstraint(name, atoms, parse_expression(condition))


CHAIN = three_atoms("chain", "t1.a = t2.a AND t2.b = t3.b AND t1.b < t3.a")

THREE_ATOM_SHAPES = {
    "chain": CHAIN,
    # t1 is the hub: t2 and t3 are linked to it alone.
    "star": three_atoms("star", "t1.a = t2.a AND t1.b = t3.b AND t2.b <> t3.a"),
    # t3 is tied to the others only by a non-equality.
    "loose": three_atoms("loose", "t1.a = t2.a AND t2.b < t3.b"),
}


class TestThreeAtomDenials:
    """Multi-atom FROM lists: each bound atom joins the other two."""

    @pytest.mark.parametrize("shape", sorted(THREE_ATOM_SHAPES))
    @settings(max_examples=20, deadline=None)
    @given(sequence=two_relation_ops, batch=batches)
    def test_three_atom_sequences(self, shape, sequence, batch):
        constraints = [
            THREE_ATOM_SHAPES[shape],
            FunctionalDependency("s", ["a"], ["b"]),
        ]
        run_two_relation_sequence(constraints, sequence, batch)

    @pytest.mark.parametrize("table, row, edges", [("r", (5, 0), 2), ("s", (7, 9), 1)])
    def test_one_insert_costs_its_matches_not_the_tables(self, table, row, edges):
        # r binds either end of the chain, s its middle: every other atom
        # is reached through an index, so a delta scans the couple of
        # rows it matches, not the 2,000 of either table.
        db = Database()
        for name in ("r", "s"):
            db.execute(f"CREATE TABLE {name} (a INTEGER, b INTEGER)")
            db.insert_rows(name, [(i, i) for i in range(2000)])
        engine = HippoEngine(db, [CHAIN])
        db.execute(f"INSERT INTO {table} VALUES {row}")
        before = db.stats.rows_scanned
        engine.refresh()
        assert db.stats.rows_scanned - before <= 4
        assert engine.detection.mode == "incremental"
        assert engine.detection.edges_added == edges
        assert_equivalent(engine, db, [CHAIN])


class TestForeignKeyChains:
    @settings(max_examples=20, deadline=None)
    @given(
        sequence=st.lists(
            st.tuples(
                st.sampled_from(
                    [
                        ("insert", "parent"),
                        ("delete", "parent"),
                        ("flag", "parent"),
                        ("insert", "child"),
                        ("delete", "child"),
                        ("insert", "gc"),
                        ("delete", "gc"),
                    ]
                ),
                st.integers(min_value=0, max_value=5),
            ),
            min_size=1,
            max_size=20,
        ),
        batch=batches,
    )
    def test_fk_cascade_sequences(self, sequence, batch):
        db = Database()
        db.execute("CREATE TABLE parent (id INTEGER, ok INTEGER)")
        db.execute("CREATE TABLE child (id INTEGER, pid INTEGER)")
        db.execute("CREATE TABLE gc (id INTEGER, cid INTEGER)")
        db.execute("INSERT INTO parent VALUES (0, 1), (1, 1), (2, 0)")
        db.execute("INSERT INTO child VALUES (0, 0), (1, 2), (2, 5)")
        db.execute("INSERT INTO gc VALUES (0, 0), (1, 2), (2, 4)")
        constraints = [
            DenialConstraint(
                "bad-parent",
                (ConstraintAtom("t", "parent"),),
                parse_expression("t.ok = 0"),
            ),
            ForeignKeyConstraint("child", ["pid"], "parent", ["id"]),
            ForeignKeyConstraint("gc", ["cid"], "child", ["id"]),
        ]
        engine = HippoEngine(db, constraints)
        applied = 0
        for (kind, table), key in sequence:
            if kind == "insert" and table == "parent":
                db.execute(f"INSERT INTO parent VALUES ({key}, 1)")
            elif kind == "flag":
                db.execute(f"UPDATE parent SET ok = 0 WHERE id = {key}")
            elif kind == "insert" and table == "child":
                db.execute(f"INSERT INTO child VALUES ({key}, {key})")
            elif kind == "insert" and table == "gc":
                db.execute(f"INSERT INTO gc VALUES ({key}, {key})")
            else:
                column = "id"
                db.execute(f"DELETE FROM {table} WHERE {column} = {key}")
            applied += 1
            if applied % batch == 0:
                engine.refresh()
                assert_equivalent(engine, db, constraints)
        engine.refresh()
        assert_equivalent(engine, db, constraints)


class TestGeneratedWorkload:
    def test_workload_update_stream(self):
        """The benchmark scenario shape, deterministic seeds, all ops."""
        rng = random.Random(97)
        db = Database()
        table = generate_key_conflict_table(db, "r", 300, 0.1, seed=5)
        engine = HippoEngine(db, [table.fd])
        for step in range(120):
            kind = rng.randrange(3)
            key = rng.randrange(3000)
            if kind == 0:
                db.execute(
                    f"INSERT INTO r VALUES ({key}, {rng.randrange(50)})"
                )
            elif kind == 1:
                db.execute(f"DELETE FROM r WHERE a = {key}")
            else:
                db.execute(
                    f"UPDATE r SET b0 = {rng.randrange(50)} WHERE a = {key}"
                )
            if step % 7 == 0:
                engine.refresh()
                assert_equivalent(engine, db, [table.fd])
        engine.refresh()
        assert_equivalent(engine, db, [table.fd])
        assert engine.detection.mode in ("incremental", "full")
