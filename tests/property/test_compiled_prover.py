"""The compiled ground formula against its two references.

``GroundQuery.formula_for`` hands the Prover a template compiled once per
query (per liveness mask) plus the witness tids the envelope found for the
candidate; the Prover substitutes them into the template's cached DNF.
Checked on random SJUD trees x constraint sets x small instances
(duplicate rows and NULLs included), for all three membership strategies
and both modes:

* the engine's answers == repair enumeration (the definition);
* == the decision taken the way the code took it before grounding read
  the envelope's witnesses: every core's facts *reconstructed* from the
  candidate (``reconstruction_map``), the core FALSE unless it produces
  the candidate from them, the ``Formula`` tree over facts through
  ``fm.to_dnf``, each fact looked up in the database, one
  ``exists_repair`` per fact-level disjunct.

The trees put join cores, constants in the projection and *the same
relation under two branches* side by side, so two slots regularly carry
the same fact -- the case in which the slot-level DNF keeps disjuncts the
fact-level DNF merges or drops.  NULLs are where a liveness read off the
database and one checked on a reconstruction could part ways.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import Database, HippoEngine
from repro.conflicts import ConflictHypergraph, vertex
from repro.constraints import FunctionalDependency
from repro.constraints.parser import parse_constraint
from repro.core import formula as fm
from repro.core.envelope import Enveloper, provenance_hints
from repro.core.facts import fact
from repro.core.grounding import GroundQuery
from repro.core.membership import CachedMembership, make_membership
from repro.core.prover import Prover
from repro.ra import (
    Atom,
    Difference,
    OutputColumn,
    SJUDCore,
    Union_,
    evaluate_core,
    evaluate_tree,
    reconstruction_map,
)
from repro.repairs import (
    all_repairs,
    ground_truth_consistent_answers,
    repair_restriction,
)
from repro.sql import ast

STRATEGIES = ("query", "cached", "provenance")

value = st.one_of(st.none(), st.integers(min_value=0, max_value=2))
# <= 5 rows per relation over a 4x4 domain: duplicate rows are common.
rows = st.lists(st.tuples(value, value), min_size=0, max_size=5)

CONSTRAINT_SETS = [
    # key FDs
    [FunctionalDependency("r", ["a"], ["b"]), FunctionalDependency("s", ["a"], ["b"])],
    # a unary denial: every s tuple with b > 1 is a singleton hyperedge
    [
        FunctionalDependency("r", ["a"], ["b"]),
        parse_constraint("DENIAL x IN s WHERE x.b > 1"),
    ],
    # a binary denial across the two relations
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


def _core(atoms, conjuncts, outputs) -> SJUDCore:
    return SJUDCore(
        tuple(atoms),
        ast.conjunction(conjuncts),
        tuple(OutputColumn(name, source) for name, source in zip("ab", outputs)),
    )


def _scan(relation: str, *conjuncts: ast.Expression, swap: bool = False) -> SJUDCore:
    columns = "ba" if swap else "ab"
    return _core(
        [Atom("t", relation)], conjuncts, [_ref("t", column) for column in columns]
    )


@st.composite
def selections(draw):
    """sigma over r or s with both columns kept, possibly swapped (so the
    same relation under two branches need not rebuild the same tuple)."""
    conjuncts = [
        ast.BinaryOp(
            draw(st.sampled_from(["<", "=", "<>", ">="])),
            _ref("t", column),
            ast.Literal(draw(value)),
        )
        for column in "ab"
        if draw(st.booleans())
    ]
    return _scan(draw(st.sampled_from("rs")), *conjuncts, swap=draw(st.booleans()))


@st.composite
def constant_projections(draw):
    """``SELECT a, c FROM t WHERE b = c``: a constant in the projection,
    which candidates of other branches may contradict."""
    constant = ast.Literal(draw(value))
    return _core(
        [Atom("t", draw(st.sampled_from("rs")))],
        [ast.BinaryOp("=", _ref("t", "b"), constant)],
        [_ref("t", "a"), constant],
    )


@st.composite
def joins(draw):
    """``t1(x, x) join t2(x, y)``: two atoms, both fixed by the output."""
    return _core(
        [Atom("t1", "r"), Atom("t2", draw(st.sampled_from("rs")))],
        [
            ast.BinaryOp("=", _ref("t1", "b"), _ref("t2", "a")),
            ast.BinaryOp("=", _ref("t1", "a"), _ref("t2", "a")),
        ],
        [_ref("t1", "a"), _ref("t2", "b")],
    )


trees = st.recursive(
    st.one_of(selections(), constant_projections(), joins()),
    lambda sub: st.builds(
        lambda op, left, right: op(left, right),
        st.sampled_from([Union_, Difference]),
        sub,
        sub,
    ),
    max_leaves=4,
)

_R = _scan("r")
_R_POSITIVE = _scan("r", ast.BinaryOp(">=", _ref("t", "a"), ast.Literal(1)))
#: one relation under two branches: both slots always carry the same fact
SAME_FACT_TREES = [
    Difference(_R, _R_POSITIVE),
    Union_(_R, _R_POSITIVE),
    Difference(_R, Difference(_R, _R_POSITIVE)),
    # ... or only for candidates (x, x)
    Difference(_R, _scan("r", swap=True)),
]


def possible_truth(db, hypergraph, tree) -> frozenset[tuple]:
    """Tuples true in some repair (the dual of the consistent ground truth)."""
    found: frozenset[tuple] = frozenset()
    for repair in all_repairs(db, hypergraph):
        found |= evaluate_tree(tree, db, repair_restriction(repair))
    return found


def reconstructed(tree, candidate: tuple, schema) -> fm.Formula:
    """``candidate in Q(M)`` over facts rebuilt from the candidate alone: a
    core's atoms per ``reconstruction_map``, the core FALSE unless it
    produces the candidate from exactly those tuples."""
    if isinstance(tree, SJUDCore):
        sources = reconstruction_map(tree, schema)
        facts = [
            fact(
                atom.relation,
                tuple(
                    candidate[payload] if kind == "slot" else payload
                    for kind, payload in sources[atom.alias.lower()]
                ),
            )
            for atom in tree.atoms
        ]
        alone = build_db(
            [f.values for f in facts if f.relation == "r"],
            [f.values for f in facts if f.relation == "s"],
        )
        if candidate not in evaluate_core(tree, alone):
            return fm.FALSE
        return fm.conj(fm.AtomF(f) for f in facts)
    left = reconstructed(tree.left, candidate, schema)
    right = reconstructed(tree.right, candidate, schema)
    if isinstance(tree, Union_):
        return fm.disj([left, right])
    return fm.conj([left, fm.negate(right)])


def reconstruction_decisions(engine: HippoEngine, tree) -> tuple[set, set]:
    """``(consistent, possible)`` decided per candidate from the
    reconstructed ``Formula`` through ``fm.to_dnf``, each fact looked up in
    the database (one tid, None when absent) -- no witnesses, no template,
    no cached DNF."""
    db = engine.db
    schema = db.catalog
    prover = Prover(engine.hypergraph, make_membership("cached", db))

    def vertex_of(f):
        tids = db.lookup(f.relation, f.values)
        return vertex(f.relation, min(tids)) if tids else None

    def holds_somewhere(dnf) -> bool:
        return any(
            prover.exists_repair(map(vertex_of, require), map(vertex_of, forbid))
            for require, forbid in dnf
        )

    consistent, possible = set(), set()
    for candidate in Enveloper(db, engine.hypergraph).evaluate(tree).candidates:
        phi = reconstructed(tree, candidate, schema)
        if not holds_somewhere(fm.to_dnf(fm.negate(phi))):
            consistent.add(candidate)
        if holds_somewhere(fm.to_dnf(phi)):
            possible.add(candidate)
    return consistent, possible


@settings(max_examples=120, deadline=None)
@given(rows, rows, constraint_sets, trees, st.booleans())
@example([(1, 1), (1, 2), (0, 0)], [], CONSTRAINT_SETS[0], SAME_FACT_TREES[0], False)
@example([(1, 1), (1, 2), (0, 0)], [], CONSTRAINT_SETS[0], SAME_FACT_TREES[1], False)
@example([(1, 1), (1, 2), (1, 1)], [], CONSTRAINT_SETS[0], SAME_FACT_TREES[2], False)
@example([(1, 1), (1, 2), (2, 1)], [], CONSTRAINT_SETS[0], SAME_FACT_TREES[3], False)
@example([(1, 1)], [(1, 2), (1, 2)], CONSTRAINT_SETS[2], SAME_FACT_TREES[0], True)
@example(
    [(None, 1), (None, 2)], [(None, 1)], CONSTRAINT_SETS[2], SAME_FACT_TREES[3], False
)
def test_compiled_answers_match_enumeration_and_the_tree(
    r_rows, s_rows, ics, tree, use_core
):
    db = build_db(r_rows, s_rows)
    engines = {
        strategy: HippoEngine(db, ics, membership=strategy, use_core=use_core)
        for strategy in STRATEGIES
    }
    hypergraph = engines["cached"].hypergraph
    consistent = ground_truth_consistent_answers(db, hypergraph, tree)
    possible = possible_truth(db, hypergraph, tree)
    assert reconstruction_decisions(engines["cached"], tree) == (consistent, possible)
    for strategy, engine in engines.items():
        assert engine.consistent_answers(tree).as_set() == consistent, strategy
        assert engine.possible_answers(tree).as_set() == possible, strategy


# -------------------------------------------- slot-level vs fact-level DNF

FACTS = [fact("r", (i,)) for i in range(1, 6)]  # r(5) is not stored

slot_formulas = st.recursive(
    st.builds(fm.AtomF, st.integers(min_value=0, max_value=3)),
    lambda sub: st.one_of(
        st.builds(fm.NotF, sub),
        st.builds(fm.AndF, st.lists(sub, min_size=2, max_size=3).map(tuple)),
        st.builds(fm.OrF, st.lists(sub, min_size=2, max_size=3).map(tuple)),
    ),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def chain_prover() -> Prover:
    """r(a) with tuples 1..4; conflicts {1,2}, {2,3}; 4 conflict-free."""
    db = Database()
    db.execute("CREATE TABLE r (a INTEGER)")
    v = [vertex("r", tid) for tid in db.insert_rows("r", [(i,) for i in range(1, 5)])]
    graph = ConflictHypergraph([frozenset(v[0:2]), frozenset(v[1:3])])
    return Prover(graph, make_membership("cached", db))


@settings(max_examples=200, deadline=None)
@given(slot_formulas, st.lists(st.sampled_from(FACTS), min_size=4, max_size=4))
def test_equal_facts_in_distinct_slots_decide_as_the_fact_level_dnf(
    chain_prover, tree, facts
):
    """Substituting equal (or absent) facts for distinct slots must not
    change a decision, although the slot-level DNF cannot merge them."""
    prover = chain_prover
    resolve = prover.membership.resolve
    compiled = fm.Ground(fm.Template(tree), [resolve(f) for f in facts])
    # Over facts: to_dnf merges what the slots kept apart.
    by_fact = fm.rename(tree, facts.__getitem__)

    def holds_somewhere(dnf) -> bool:
        return any(
            prover.exists_repair(map(resolve, require), map(resolve, forbid))
            for require, forbid in dnf
        )

    assert prover.is_consistent_answer(compiled) == (
        not holds_somewhere(fm.to_dnf(fm.negate(by_fact)))
    )
    assert prover.is_possible_answer(compiled) == holds_somewhere(fm.to_dnf(by_fact))
    # A hand-built tree enters the same loop, compiled once.
    assert prover.is_consistent_answer(by_fact) == prover.is_consistent_answer(
        compiled
    )


# ------------------------------------------------------------ exact counts


def test_dnf_runs_once_per_mask_and_polarity_not_per_candidate(monkeypatch):
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    # 100 conflicting pairs on the key a: 200 candidates, none in the core.
    db.insert_rows("t", [(i // 2, i) for i in range(200)])
    # Without the core the envelope decides nothing: all 200 are proved
    # (with it, those only one branch produces are refuted first).
    engine = HippoEngine(db, [FunctionalDependency("t", ["a"], ["b"])], use_core=False)
    calls = []
    to_dnf = fm.to_dnf
    monkeypatch.setattr(
        fm, "to_dnf", lambda formula: calls.append(formula) or to_dnf(formula)
    )
    # Three liveness masks: b < 120 only, both branches, b >= 80 only.
    query = "SELECT * FROM t WHERE b < 120 UNION SELECT * FROM t WHERE b >= 80"
    answers = engine.consistent_answers(query)
    assert answers.stats["prover"].candidates_checked == 200
    assert len(calls) == 3  # one per mask: only the negated polarity was asked
    engine.possible_answers(query)
    assert len(calls) == 6  # a new query compiles anew: the positive polarity
    # Within one query both polarities of a template are computed once each.
    tree = engine.parse(query)[0]
    grounder = GroundQuery(tree)
    witnesses = Enveloper(db, engine.hypergraph).evaluate(tree).witnesses
    prover = Prover(engine.hypergraph, make_membership("cached", db))
    calls.clear()
    for row in db.table("t").rows():
        phi = grounder.formula_for(provenance_hints(witnesses, row))
        prover.is_consistent_answer(phi)
        prover.is_possible_answer(phi)
    assert len(calls) == 6  # 3 masks x 2 polarities for 200 candidates


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_candidates_of_other_branches_get_the_dead_core_template(strategy):
    """A candidate contradicting a core's constant projection (or failing
    its condition) grounds that core to FALSE, whatever produced it."""
    db = build_db([(0, 2), (0, 1)], [(0, 2), (1, 1)])
    tree = Difference(
        _scan("r"),
        _core(
            [Atom("t", "s")],
            [ast.BinaryOp("=", _ref("t", "b"), ast.Literal(2))],
            [_ref("t", "a"), ast.Literal(2)],
        ),
    )
    engine = HippoEngine(db, CONSTRAINT_SETS[0], membership=strategy)
    witnesses = Enveloper(db, engine.hypergraph).evaluate(tree).witnesses
    grounder = GroundQuery(tree)

    def ground(candidate):
        phi = grounder.formula_for(provenance_hints(witnesses, candidate))
        return fm.rename(phi.formula, CachedMembership(db).fact_of)

    assert ground((0, 1)) == fm.AtomF(fact("r", (0, 1)))
    assert fm.atoms_of(ground((0, 2))) == {fact("r", (0, 2)), fact("s", (0, 2))}
    truth = ground_truth_consistent_answers(db, engine.hypergraph, tree)
    assert engine.consistent_answers(tree).as_set() == truth == frozenset()
    assert engine.possible_answers(tree).rows == [(0, 1)]
