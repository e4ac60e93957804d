"""The single-pass envelope against its reference.

``Enveloper.evaluate`` runs every core once and reads ``Q-down`` and
``Q-out`` off the tids of the ``Q-up`` rows.  The reference for ``Q-down``
is what the code did before: a second, tid-restricted evaluation of every
core over the conflict-free database, folded by the ``down`` rules (and
``Q-up`` folded by the ``up`` rules).  Restricted evaluation is still in
the tree -- repairs and ``cleaned_answers`` use it -- which is what makes
it an oracle here.  ``Q-out`` is checked against a per-row loop folded by
the ``out`` rules, and its meaning against repair enumeration and the
Prover.

Two layers are checked on random trees x instances:

* envelope level, on *arbitrary* cores (existential projections and
  self-joins included: a value whose first witness is dirty and a later
  one clean must still land in ``certain``);
* engine level, on valid SJUD trees: ``consistent_answers`` == repair
  enumeration, with and without ``use_core``.

Three wrong ``out`` rules are pinned by ``@example`` s below: a union
refuting what the other branch may produce, a difference refuting what
its right side refutes, and a value refuted although it has two rows.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro import Database, HippoEngine
from repro.conflicts import detect_conflicts
from repro.constraints import FunctionalDependency
from repro.constraints.parser import parse_constraint
from repro.core.envelope import Enveloper
from repro.ra import (
    Atom,
    Difference,
    OutputColumn,
    SJUDCore,
    Union_,
    cores_of,
    evaluate_core,
)
from repro.ra.compile import compile_core
from repro.repairs import ground_truth_consistent_answers
from repro.sql import ast

value = st.integers(min_value=0, max_value=3)
# max_size 6 over a 4x4 domain: duplicate rows are common.
rows = st.lists(st.tuples(value, value), min_size=0, max_size=6)

CONSTRAINT_SETS = [
    [FunctionalDependency("r", ["a"], ["b"]), FunctionalDependency("s", ["a"], ["b"])],
    # unary self-conflicts: every s tuple with b > 1 is in no repair
    [
        FunctionalDependency("r", ["a"], ["b"]),
        parse_constraint("DENIAL x IN s WHERE x.b > 1"),
    ],
    [parse_constraint("DENIAL x IN r, y IN s WHERE x.a = y.a AND x.b <> y.b")],
]
constraint_sets = st.sampled_from(CONSTRAINT_SETS)


def build_db(r_rows, s_rows) -> Database:
    db = Database()
    db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
    db.execute("CREATE TABLE s (a INTEGER, b INTEGER)")
    db.insert_rows("r", r_rows)
    db.insert_rows("s", s_rows)
    return db


def _ref(alias: str, column: str) -> ast.ColumnRef:
    return ast.ColumnRef(alias, column)


def _eq(left: ast.Expression, right: ast.Expression) -> ast.Expression:
    return ast.BinaryOp("=", left, right)


def _core(atoms, conjuncts, outputs) -> SJUDCore:
    return SJUDCore(
        tuple(atoms),
        ast.conjunction(conjuncts),
        tuple(OutputColumn(name, source) for name, source in zip("abcd", outputs)),
    )


@st.composite
def selections(draw):
    """sigma over r or s, both columns kept (valid SJUD)."""
    relation = draw(st.sampled_from(["r", "s"]))
    conjuncts = [
        ast.BinaryOp(
            draw(st.sampled_from(["<", "=", "<>", ">="])),
            _ref("t", column),
            ast.Literal(draw(value)),
        )
        for column in "ab"
        if draw(st.booleans())
    ]
    return _core([Atom("t", relation)], conjuncts, [_ref("t", "a"), _ref("t", "b")])


@st.composite
def determined_joins(draw):
    """``t1(x, x), t2(x, y)`` -- a (self-)join whose output fixes both atoms."""
    second = draw(st.sampled_from(["r", "s"]))
    conjuncts = [
        _eq(_ref("t1", "b"), _ref("t2", "a")),
        _eq(_ref("t1", "a"), _ref("t2", "a")),
    ]
    return _core(
        [Atom("t1", "r"), Atom("t2", second)],
        conjuncts,
        [_ref("t1", "a"), _ref("t2", "b")],
    )


@st.composite
def existential_cores(draw):
    """Cores outside the SJUD class: one value, many differing witnesses."""
    relation = draw(st.sampled_from(["r", "s"]))
    if draw(st.booleans()):
        column = draw(st.sampled_from("ab"))  # pi_{c,c}: drops the other column
        return _core(
            [Atom("t", relation)], [], [_ref("t", column), _ref("t", column)]
        )
    return _core(  # pi_{t1.a, t2.b}(t1 join t2 on t1.b = t2.a)
        [Atom("t1", "r"), Atom("t2", relation)],
        [_eq(_ref("t1", "b"), _ref("t2", "a"))],
        [_ref("t1", "a"), _ref("t2", "b")],
    )


def trees(cores, depth: int = 3):
    """Nested UNION / EXCEPT over ``cores``."""
    return st.recursive(
        cores,
        lambda sub: st.builds(
            lambda op, left, right: op(left, right),
            st.sampled_from([Union_, Difference]),
            sub,
            sub,
        ),
        max_leaves=2**depth,
    )


valid_trees = trees(st.one_of(selections(), determined_joins()))
any_trees = trees(st.one_of(selections(), determined_joins(), existential_cores()))


# ------------------------------------------------- the two-pass reference


def reference_up(tree, db, clean):
    if isinstance(tree, SJUDCore):
        return dict(evaluate_core(tree, db))
    left = reference_up(tree.left, db, clean)
    if isinstance(tree, Union_):
        for answer, provenance in reference_up(tree.right, db, clean).items():
            left.setdefault(answer, provenance)
        return left
    removed = reference_down(tree.right, db, clean)
    return {a: p for a, p in left.items() if a not in removed}


def reference_down(tree, db, clean):
    if isinstance(tree, SJUDCore):
        return frozenset(evaluate_core(tree, db, clean))
    left = reference_down(tree.left, db, clean)
    if isinstance(tree, Union_):
        return left | reference_down(tree.right, db, clean)
    return left - frozenset(reference_up(tree.right, db, clean))


def reference_out(tree, db, clean, conflicting):
    if isinstance(tree, SJUDCore):
        return reference_core(tree, db, conflicting)[2]
    left = reference_out(tree.left, db, clean, conflicting)
    if isinstance(tree, Difference):
        return left - reference_down(tree.right, db, clean)
    right = reference_out(tree.right, db, clean, conflicting)
    return (left - set(reference_up(tree.right, db, clean))) | (
        right - set(reference_up(tree.left, db, clean))
    )


# dirty first witness (tid 0, conflicts with tid 1), clean later one (tid 2)
_B_ONLY = _core([Atom("t", "r")], [], [_ref("t", "b"), _ref("t", "b")])


@settings(max_examples=150, deadline=None)
@given(rows, rows, constraint_sets, any_trees)
@example([(1, 2), (1, 3), (0, 2)], [], CONSTRAINT_SETS[0], _B_ONLY)
@example([(1, 2), (1, 3), (0, 2)], [(2, 2)], CONSTRAINT_SETS[0], Difference(
    _core([Atom("t", "s")], [], [_ref("t", "a"), _ref("t", "b")]), _B_ONLY
))
def test_single_pass_equals_restricted_second_pass(r_rows, s_rows, ics, tree):
    db = build_db(r_rows, s_rows)
    graph = detect_conflicts(db, ics).hypergraph
    enveloper = Enveloper(db, graph)
    clean = enveloper.conflict_free_tids
    up, down = reference_up(tree, db, clean), reference_down(tree, db, clean)

    evaluation = enveloper.evaluate(tree)
    # What lets the Prover skip its pass when the sizes add up.
    assert evaluation.certain <= set(evaluation.candidates)
    assert evaluation.refuted <= set(evaluation.candidates)
    assert evaluation.certain.isdisjoint(evaluation.refuted)
    assert evaluation.certain == down
    assert evaluation.refuted == reference_out(tree, db, clean, graph.conflicting_tids)
    assert list(evaluation.candidates) == list(up)  # in the Prover's order
    # Every core's own witnesses, first ones included, in tree order.
    assert evaluation.witnesses == tuple(
        evaluate_core(core, db) for core in cores_of(tree)
    )

    without_core = enveloper.evaluate(tree, compute_core=False)
    assert without_core.certain == without_core.refuted == frozenset()
    assert list(without_core.candidates) == list(up)


def test_dirty_first_witness_clean_later_is_certain():
    db = build_db([(1, 2), (1, 3), (0, 2)], [])
    graph = detect_conflicts(db, CONSTRAINT_SETS[0]).hypergraph
    evaluation = Enveloper(db, graph).evaluate(_B_ONLY)
    assert evaluation.witnesses[0][(2, 2)] == (0,)  # first witness: dirty
    assert evaluation.certain == {(2, 2)}  # tid 2 vouches for it


# ------------------------------------------- evaluate_core against a per-row loop


def reference_core(core, db, conflicting):
    """The per-row loop the set-shaped pass replaced: the first witness of
    each value, in first-seen order, and a value is certain as soon as
    one of its witnesses has no conflicting tid; refuted when it has
    exactly one row and that row a conflicting tid."""
    arity = len(core.outputs)
    relations = [atom.relation.lower() for atom in core.atoms]
    witnesses, certain, rows, dirty = {}, set(), {}, set()
    for row in compile_core(core, db).rows(()):
        value, tids = row[:arity], row[arity:]
        witnesses.setdefault(value, tids)
        rows[value] = rows.get(value, 0) + 1
        if any(tid in conflicting(r) for r, tid in zip(relations, tids)):
            dirty.add(value)
        else:
            certain.add(value)
    refuted = {value for value, count in rows.items() if count == 1} & dirty
    return witnesses, certain, refuted


@st.composite
def chain_cores(draw):
    """``t1 x t2 x t3`` linked ``b = a``, any relations (self-joins
    included), projected to the ends: three atoms, often all dirty, and
    many witnesses per value."""
    relations = [draw(st.sampled_from(["r", "s"])) for _ in range(3)]
    return _core(
        [Atom(f"t{i}", relation) for i, relation in enumerate(relations, 1)],
        [_eq(_ref("t1", "b"), _ref("t2", "a")), _eq(_ref("t2", "b"), _ref("t3", "a"))],
        [_ref("t1", "a"), _ref("t3", "b")],
    )


any_cores = st.one_of(
    selections(), determined_joins(), existential_cores(), chain_cores()
)


@settings(max_examples=200, deadline=None)
@given(rows, rows, constraint_sets, any_cores)
@example(  # duplicate rows, and a value with a dirty and a clean witness
    [(1, 2), (1, 2), (1, 3), (2, 1)], [(2, 1)], CONSTRAINT_SETS[0], _B_ONLY
)
@example(  # a self-join chain over two dirty relations
    [(0, 1), (0, 2), (1, 1)], [(1, 0), (1, 3)], CONSTRAINT_SETS[0],
    _core(
        [Atom("t1", "r"), Atom("t2", "s"), Atom("t3", "r")],
        [_eq(_ref("t1", "b"), _ref("t2", "a")), _eq(_ref("t2", "b"), _ref("t3", "a"))],
        [_ref("t1", "a"), _ref("t3", "b")],
    ),
)
def test_evaluate_core_equals_the_per_row_loop(r_rows, s_rows, ics, core):
    db = build_db(r_rows, s_rows)
    conflicting = detect_conflicts(db, ics).hypergraph.conflicting_tids
    expected_witnesses, expected_certain, expected_refuted = reference_core(
        core, db, conflicting
    )
    witnesses, certain, refuted = evaluate_core(core, db, conflicting=conflicting)
    # Same keys in the same order, each with its first witness.
    assert list(witnesses.items()) == list(expected_witnesses.items())
    assert certain == expected_certain
    assert refuted == expected_refuted
    assert list(evaluate_core(core, db).items()) == list(witnesses.items())


@settings(max_examples=120, deadline=None)
@given(rows, rows, constraint_sets, valid_trees, st.booleans())
def test_consistent_answers_match_enumeration(r_rows, s_rows, ics, tree, use_core):
    db = build_db(r_rows, s_rows)
    hippo = HippoEngine(db, ics, use_core=use_core)
    truth = ground_truth_consistent_answers(db, hippo.hypergraph, tree)
    assert hippo.consistent_answers(tree).as_set() == truth


def _scan(relation: str) -> SJUDCore:
    return _core([Atom("t", relation)], [], [_ref("t", "a"), _ref("t", "b")])


@settings(max_examples=150, deadline=None)
@given(rows, rows, constraint_sets, any_trees)
@example(  # (1, 2)'s one r row is dirty, but s holds it clean: certain
    [(1, 2), (1, 3)], [(1, 2)], CONSTRAINT_SETS[0], Union_(_scan("r"), _scan("s"))
)
@example(  # s's (0, 2) is in no repair: refuted in s, certain in r - s
    [(0, 2)], [(0, 2)], CONSTRAINT_SETS[1], Difference(_scan("r"), _scan("s"))
)
@example(  # pi_a over (1, 2), (1, 3): two dirty rows, one in every repair
    [(1, 2), (1, 3)],
    [],
    CONSTRAINT_SETS[0],
    _core([Atom("t", "r")], [], [_ref("t", "a"), _ref("t", "a")]),
)
def test_no_refuted_value_is_a_consistent_answer(r_rows, s_rows, ics, tree):
    db = build_db(r_rows, s_rows)
    graph = detect_conflicts(db, ics).hypergraph
    evaluation = Enveloper(db, graph).evaluate(tree)
    assert evaluation.refuted <= set(evaluation.candidates)
    assert not evaluation.refuted & evaluation.certain
    assert not evaluation.refuted & ground_truth_consistent_answers(db, graph, tree)


@settings(max_examples=100, deadline=None)
@given(rows, rows, constraint_sets, valid_trees)
def test_the_prover_rejects_every_refuted_value(r_rows, s_rows, ics, tree):
    db = build_db(r_rows, s_rows)
    hippo = HippoEngine(db, ics, use_core=False)  # every candidate is proved
    refuted = Enveloper(db, hippo.hypergraph).evaluate(tree).refuted
    answers = hippo.consistent_answers(tree)
    assert answers.stats["prover"].candidates_checked == answers.stats["candidates"]
    assert not refuted & answers.as_set()


# ------------------------------------------------------------ exact counts


def test_a_scan_query_reads_each_row_once():
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    db.insert_rows("t", [(i // 2, i) for i in range(40)])  # 20 conflicting pairs
    hippo = HippoEngine(db, [FunctionalDependency("t", ["a"], ["b"])])
    before = db.stats.rows_scanned
    hippo.consistent_answers("SELECT * FROM t")
    assert db.stats.rows_scanned - before == 40  # N, not 2N


def test_every_core_is_planned_once(monkeypatch):
    from repro.engine.planner import Planner

    planned = []
    plan_query = Planner.plan_query
    monkeypatch.setattr(
        Planner,
        "plan_query",
        lambda self, query, outer_scope=None: planned.append(query)
        or plan_query(self, query, outer_scope),
    )
    db = build_db([(1, 1), (1, 2)], [(1, 1)])
    hippo = HippoEngine(db, CONSTRAINT_SETS[0])
    planned.clear()
    hippo.consistent_answers(
        "SELECT * FROM r EXCEPT (SELECT * FROM s UNION SELECT * FROM r WHERE a > 1)"
    )
    assert len(planned) == 3
    planned.clear()
    hippo.possible_answers("SELECT * FROM r UNION SELECT * FROM s")
    assert len(planned) == 2


# ------------------------------------------------------ cores as columns
#
# A single-atom core over an unrestricted scan (optionally filtered by a
# typed comparison with a constant) is read straight off the table's
# ColumnStore: stored rows as answers, the tid column as witnesses.  A
# two-atom core joining such a scan to a live index reads the join as
# columns: the left store's key column mapped through the index's owners.
# The shapes below take those paths and the general one next to them; each
# is checked against the per-row loop (``compile_core(...).rows``) and
# repair enumeration, before and after DML, which drops the store and
# moves the postings.


def _stored_path(core, db) -> bool:
    """Whether ``core`` is answered with the table's stored rows."""
    values, _tails, _columns = compile_core(core, db).split(len(core.outputs), ())
    rows = list(db.table(core.atoms[0].relation).rows())
    return bool(values) and all(
        any(value is row for row in rows) for value in values
    )


COLUMN_SHAPES = {
    "select *": _scan("r"),
    "select * where": _core(
        [Atom("t", "r")], [ast.BinaryOp("<", _ref("t", "b"), ast.Literal(2))],
        [_ref("t", "a"), _ref("t", "b")],
    ),
    "select * where and": _core(
        [Atom("t", "s")],
        [
            ast.BinaryOp(">=", _ref("t", "a"), ast.Literal(1)),
            ast.BinaryOp("<>", ast.Literal(3), _ref("t", "b")),
        ],
        [_ref("t", "a"), _ref("t", "b")],
    ),
    "literal output": SJUDCore(  # SELECT a, b, 1 FROM r
        (Atom("t", "r"),),
        None,
        (
            OutputColumn("a", _ref("t", "a")),
            OutputColumn("b", _ref("t", "b")),
            OutputColumn("one", ast.Literal(1)),
        ),
    ),
    "swapped columns": _core(
        [Atom("t", "s")], [], [_ref("t", "b"), _ref("t", "a")]
    ),
}

#: Two-atom SJUD cores over the indexes :data:`INDEXES` makes: the right
#: atom is probed on ``s (a)``, ``r (a)``, ``s (a, b)`` or ``r (b, a)``.
JOIN_SHAPES = {
    "join": _core(  # values off both sides
        [Atom("t1", "r"), Atom("t2", "s")],
        [_eq(_ref("t1", "b"), _ref("t2", "a"))],
        [_ref("t1", "a"), _ref("t1", "b"), _ref("t2", "b")],
    ),
    "self join": _core(
        [Atom("t1", "r"), Atom("t2", "r")],
        [_eq(_ref("t1", "b"), _ref("t2", "a"))],
        [_ref("t2", "b"), _ref("t1", "a"), _ref("t2", "a")],
    ),
    "join where": _core(  # a row-tested left filter
        [Atom("t1", "r"), Atom("t2", "s")],
        [
            _eq(_ref("t1", "b"), _ref("t2", "a")),
            ast.BinaryOp("<", _ref("t1", "a"), ast.Literal(2)),
        ],
        [_ref("t1", "a"), _ref("t1", "b"), _ref("t2", "b")],
    ),
    "two keys": _core(  # values off the left side only
        [Atom("t1", "r"), Atom("t2", "s")],
        [_eq(_ref("t1", "a"), _ref("t2", "a")), _eq(_ref("t1", "b"), _ref("t2", "b"))],
        [_ref("t1", "a"), _ref("t1", "b")],
    ),
    "two keys right values": _core(  # values off the right side only
        [Atom("t1", "s"), Atom("t2", "r")],
        [_eq(_ref("t1", "a"), _ref("t2", "a")), _eq(_ref("t2", "b"), _ref("t1", "b"))],
        [_ref("t2", "b"), _ref("t2", "a")],
    ),
}
COLUMN_SHAPES.update(JOIN_SHAPES)
INDEXES = (
    "CREATE INDEX s_a ON s (a)",
    "CREATE INDEX r_a ON r (a)",
    "CREATE INDEX s_ab ON s (a, b)",
    "CREATE INDEX r_ab ON r (b, a)",
)

dml = st.lists(
    st.one_of(
        st.builds("INSERT INTO r VALUES ({}, {})".format, value, value),
        st.builds("INSERT INTO s VALUES ({}, {})".format, value, value),
        st.builds("DELETE FROM r WHERE a = {}".format, value),
        st.builds("DELETE FROM s WHERE b = {}".format, value),
        st.builds("UPDATE r SET b = {} WHERE a = {}".format, value, value),
    ),
    min_size=1,
    max_size=4,
)


def _check_columns_path(core, db, ics):
    arity = len(core.outputs)
    joined = list(compile_core(core, db).rows(()))  # the per-row loop
    values, tails, columns = compile_core(core, db).split(arity, ())
    assert list(values) == [row[:arity] for row in joined]
    assert list(tails) == [row[arity:] for row in joined]
    assert [list(column) for column in columns] == [
        [row[i] for row in joined] for i in range(arity, arity + len(core.atoms))
    ]
    conflicting = detect_conflicts(db, ics).hypergraph.conflicting_tids
    expected = reference_core(core, db, conflicting)
    witnesses, certain, refuted = evaluate_core(core, db, conflicting=conflicting)
    assert list(witnesses.items()) == list(expected[0].items())
    assert (certain, refuted) == expected[1:]
    hippo = HippoEngine(db, ics)
    truth = ground_truth_consistent_answers(db, hippo.hypergraph, core)
    assert certain <= truth and not refuted & truth
    assert hippo.consistent_answers(core).as_set() == truth
    hippo.detach()


nullable = st.one_of(value, st.none())
nullable_rows = st.lists(st.tuples(nullable, nullable), min_size=0, max_size=6)


@settings(max_examples=200, deadline=None)
@given(
    nullable_rows, nullable_rows, constraint_sets,
    st.sampled_from(sorted(COLUMN_SHAPES)), dml,
)
@example(  # duplicate rows: one answer, first witness tid 0
    [(1, 1), (1, 1), (1, 2)], [], CONSTRAINT_SETS[0], "select *",
    ["DELETE FROM r WHERE a = 1"],
)
@example(  # one owner, two owners (tids 1, 3 in order), none, a NULL key
    [(0, 1), (1, 2), (2, 3), (3, None)], [(1, 0), (2, 0), (0, 1), (2, 1)],
    CONSTRAINT_SETS[0], "join", ["INSERT INTO s VALUES (1, 3)"],
)
def test_columns_path_equals_the_per_row_loop(r_rows, s_rows, ics, shape, statements):
    core = COLUMN_SHAPES[shape]
    db = build_db(r_rows, s_rows)
    for sql in INDEXES:
        db.execute(sql)
    if shape in JOIN_SHAPES:
        assert compile_core(core, db)._join_columns(len(core.outputs)) is not None
    _check_columns_path(core, db, ics)  # builds (and caches) the stores
    for sql in statements:  # each mutation drops its table's store
        db.execute(sql)
    _check_columns_path(core, db, ics)


def test_single_atom_cores_take_the_stored_rows():
    db = build_db([(1, 1), (1, 1), (2, 3)], [(0, 1), (1, 1)])
    for shape in ("select *", "select * where", "select * where and"):
        assert _stored_path(COLUMN_SHAPES[shape], db), shape
    for shape in ("literal output", "swapped columns"):
        assert not _stored_path(COLUMN_SHAPES[shape], db), shape
    witnesses = evaluate_core(COLUMN_SHAPES["select *"], db)
    assert witnesses == {(1, 1): (0,), (2, 3): (2,)}  # first witness wins


_COLUMNS = [_ref(alias, column) for alias in ("t1", "t2") for column in "ab"]


@st.composite
def existential_joins(draw):
    """``t1 join t2 on t1.b = t2.a`` (or on both columns), under any pick
    of one to three of its four columns: each output off either side."""
    left, right = draw(st.sampled_from(["r", "s"])), draw(st.sampled_from(["r", "s"]))
    keys = [_eq(_ref("t1", "b"), _ref("t2", "a"))]
    if draw(st.booleans()):
        keys = [
            _eq(_ref("t1", "a"), _ref("t2", "a")),
            _eq(_ref("t1", "b"), _ref("t2", "b")),
        ]
    outputs = draw(st.lists(st.sampled_from(_COLUMNS), min_size=1, max_size=3))
    return _core([Atom("t1", left), Atom("t2", right)], keys, outputs)


@settings(max_examples=150, deadline=None)
@given(nullable_rows, nullable_rows, constraint_sets, existential_joins(), dml)
def test_join_columns_equal_the_joined_rows(r_rows, s_rows, ics, core, statements):
    db = build_db(r_rows, s_rows)
    for sql in INDEXES:
        db.execute(sql)
    arity = len(core.outputs)
    for _state in ("before", "after"):
        plan = compile_core(core, db)
        assert plan._join_columns(arity) is not None
        joined = list(plan.rows(()))
        values, tails, columns = plan.split(arity, ())
        assert list(values) == [row[:arity] for row in joined]
        assert list(tails) == [row[arity:] for row in joined]
        assert [list(column) for column in columns] == [
            [row[i] for row in joined] for i in (arity, arity + 1)
        ]
        conflicting = detect_conflicts(db, ics).hypergraph.conflicting_tids
        witnesses, certain, refuted = evaluate_core(core, db, conflicting=conflicting)
        expected = reference_core(core, db, conflicting)
        assert list(witnesses.items()) == list(expected[0].items())
        assert (certain, refuted) == expected[1:]
        for sql in statements:
            db.execute(sql)


def test_join_cores_take_the_columns_only_over_a_live_index():
    db = build_db([(1, 1), (2, 1), (0, 9)], [(1, 5), (1, 6)])
    core = _core(
        [Atom("t1", "r"), Atom("t2", "s")],
        [_eq(_ref("t1", "b"), _ref("t2", "a"))],
        [_ref("t1", "a"), _ref("t2", "b")],
    )
    assert compile_core(core, db)._join_columns(2) is None  # a hash join
    db.execute(INDEXES[0])
    assert compile_core(core, db)._join_columns(2) is not None
    # Left rows in store order, each key's owners in tid order; (0, 9)
    # has no partner.
    assert evaluate_core(core, db) == {
        (1, 5): (0, 0), (1, 6): (0, 1), (2, 5): (1, 0), (2, 6): (1, 1)
    }
