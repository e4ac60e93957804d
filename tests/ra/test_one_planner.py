"""SJUD cores and SQL text meet one planner.

``compile_core`` renders a core as a SELECT block and hands it to
:class:`repro.engine.planner.Planner`; these tests pin what follows from
that: the two entries produce the same operator tree, a restriction
composes with every access path, a SELECT given as text runs through
the same ``Database._execute_select`` as one given as an AST, and no
other module builds joins or picks access paths.
"""

import ast as python_ast
import random
import re
from pathlib import Path

import pytest

import repro
from repro.engine.database import Database
from repro.engine.storage import in_tid_order
from repro.errors import AlgebraError
from repro.ra import (
    Restriction,
    compile_core,
    evaluate_core,
    from_sql_query,
    unrestricted,
)
from repro.sql import ast
from repro.sql.parser import parse_query, parse_statement


def tree_of(db, text):
    return from_sql_query(parse_query(text), db.catalog)


def make_lr_db(indexed: bool) -> Database:
    """``l(a, b)`` and ``r(a, b)`` with a secondary index on ``r(b)``; the
    join column ``a`` is REAL and holds NULLs and NaNs, and ``indexed``
    adds an index on it in both tables (the live-index access)."""
    db = Database()
    db.execute("CREATE TABLE l (a REAL, b INTEGER)")
    db.execute("CREATE TABLE r (a REAL, b INTEGER)")
    db.execute("CREATE INDEX r_b ON r (b)")
    if indexed:
        db.execute("CREATE INDEX l_a ON l (a)")
        db.execute("CREATE INDEX r_a ON r (a)")
    rng = random.Random(16)
    keys = [None, float("nan"), *range(12)]
    for name in ("l", "r"):
        db.insert_rows(name, [(rng.choice(keys), rng.randrange(6)) for _ in range(60)])
    return db


@pytest.fixture(params=[False, True], ids=["hash", "live-index"])
def lr_db(request):
    return make_lr_db(request.param)


PARITY_QUERIES = [
    # The two queries whose plans differed between the planners.
    "SELECT l.a, l.b, r.a, r.b FROM l, r WHERE l.a = r.a AND r.b = 3 AND l.b < 4",
    "SELECT * FROM r WHERE r.b = 3",
    "SELECT * FROM l WHERE b = 3",  # no index: column equality
    "SELECT * FROM l WHERE b < 3",
    "SELECT x.a, x.b, Y.a, Y.b FROM l x, l Y WHERE x.a = Y.a AND x.b < Y.b",
    "SELECT l.a, l.b, r.a, r.b FROM l, r WHERE l.b < r.b",  # no equi key
    "SELECT l.a, l.b, r.a, r.b FROM l, r",
]


@pytest.mark.parametrize("text", PARITY_QUERIES)
def test_sql_and_core_get_the_same_plan(lr_db, text):
    core_plan = compile_core(tree_of(lr_db, text), lr_db).explain()
    assert core_plan.replace(" +tid", "") == lr_db.explain(text)
    assert " +tid" in core_plan


def test_the_join_reaches_the_index_on_both_entries(lr_db):
    text = PARITY_QUERIES[0]
    shape = (
        r"HashJoin.*\n\s+Filter\n\s+Scan\(l.*\n\s+Hash\(1 keys\)\n"
        r"\s+IndexScan\(r on \[b\]"
    )
    assert re.search(shape, lr_db.explain(text))
    assert re.search(shape, compile_core(tree_of(lr_db, text), lr_db).explain())


def shown(rows):
    """Rows as sortable text (NaN is unequal to itself as a float)."""
    return sorted(repr(row) for row in rows)


@pytest.mark.parametrize("text", PARITY_QUERIES)
def test_both_accesses_return_the_same_rows(text):
    hashed, indexed = make_lr_db(False), make_lr_db(True)
    assert ("IndexProbe" in indexed.explain(text)) is ("x.a = Y.a" in text)
    assert "IndexProbe" not in hashed.explain(text)
    expected = shown(hashed.query(text).rows)
    assert shown(indexed.query(text).rows) == expected
    for db in (hashed, indexed):
        tree = tree_of(db, text)
        witnesses = compile_core(tree, db).rows(())
        assert shown(row[: len(tree.outputs)] for row in witnesses) == expected


@pytest.mark.parametrize("text", PARITY_QUERIES)
def test_restriction_filters_the_unrestricted_result(lr_db, text):
    tree = tree_of(lr_db, text)
    # A tid deleted after the index was built must not resurface.
    victim = in_tid_order(lr_db.table("r").index_reader((1,)).owners(3))[0]
    lr_db.table("r").delete(victim)
    rng = random.Random(text)
    keep = {
        name: frozenset(t for t in lr_db.table(name).tids() if rng.random() < 0.6)
        | {victim}
        for name in ("l", "r")
    }
    restrict: Restriction = lambda relation: keep[relation.lower()]
    arity = len(tree.outputs)
    relations = [atom.relation.lower() for atom in tree.atoms]

    def witnesses(node):
        return {
            (row[:arity], tuple(zip(relations, row[arity:])))
            for row in node.rows(())
        }

    everything = witnesses(compile_core(tree, lr_db, unrestricted))
    expected = {
        (value, provenance)
        for value, provenance in everything
        if all(tid in keep[relation] for relation, tid in provenance)
    }
    assert ("r", victim) not in {p for _v, prov in everything for p in prov}
    restricted = compile_core(tree, lr_db, restrict)
    assert witnesses(restricted) == expected
    assert "IndexScan" not in restricted.explain()
    assert "IndexProbe" not in restricted.explain()
    assert set(evaluate_core(tree, lr_db, restrict)) == {v for v, _p in expected}


def test_unknown_column_in_a_core_condition_is_an_algebra_error(lr_db):
    tree = tree_of(lr_db, "SELECT * FROM l")
    broken = type(tree)(
        atoms=tree.atoms,
        condition=ast.BinaryOp("=", ast.ColumnRef("l", "nope"), ast.Literal(1)),
        outputs=tree.outputs,
    )
    with pytest.raises(AlgebraError, match="unknown column"):
        compile_core(broken, lr_db)


def test_tid_pseudo_column_exists_only_in_provenance_mode(lr_db):
    from repro.engine.planner import TID, Planner
    from repro.errors import PlanError

    query = ast.Query(
        ast.SelectCore(
            (ast.SelectItem(ast.ColumnRef("l", TID), None),),
            (ast.TableRef("l", None),),
        )
    )
    with pytest.raises(PlanError, match="unknown column"):
        Planner(lr_db.catalog, lr_db.stats).plan_query(query)
    planned = Planner(lr_db.catalog, lr_db.stats, tids=unrestricted).plan_query(query)
    assert sorted(row[0] for row in planned.plan.rows(())) == sorted(
        lr_db.table("l").tids()
    )
    star = ast.Query(ast.SelectCore((ast.Star(None),), (ast.TableRef("l", None),)))
    planned = Planner(lr_db.catalog, lr_db.stats, tids=unrestricted).plan_query(star)
    assert planned.columns == ["a", "b"]


def test_text_and_ast_selects_take_one_path(lr_db, monkeypatch):
    calls = []
    original = Database._execute_select

    def counted(self, query):
        calls.append(query)
        return original(self, query)

    monkeypatch.setattr(Database, "_execute_select", counted)
    text = "SELECT * FROM r WHERE r.b = 3"
    expected = lr_db.execute_statement(parse_statement(text)).rows
    assert lr_db.execute(text).rows == expected
    assert lr_db.query(text).rows == expected
    assert lr_db.execute(text).rows == expected  # a repeat plans afresh
    assert len(calls) == 4


JOIN_AND_ACCESS_PATH_NODES = {
    "HashJoin",
    "HashSemiJoin",
    "NestedLoopJoin",
    # The one keyed access (a live index or a per-statement hash) and its
    # constant-key form.
    "Access",
    "IndexScan",
    # A private ``Filter(Scan)`` is an access path too: DML WHERE
    # matching had one until it moved to ``Planner.plan_matching``.
    "Scan",
    "Filter",
}


def test_join_and_access_path_nodes_cover_the_plan_module():
    from repro.engine import plan

    keyed = {
        name
        for name, value in vars(plan).items()
        if isinstance(value, type)
        and issubclass(value, plan.PlanNode)
        and ("Join" in name or "Scan" in name or "Access" in name)
    }
    assert keyed <= JOIN_AND_ACCESS_PATH_NODES


def _src_modules():
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(root).as_posix(), python_ast.parse(path.read_text())


def test_only_the_planner_builds_joins_and_access_paths():
    offenders = []
    for relative, module in _src_modules():
        if relative == "engine/planner.py":
            continue
        for node in python_ast.walk(module):
            if not isinstance(node, python_ast.Call):
                continue
            callee = node.func
            name = getattr(callee, "attr", getattr(callee, "id", None))
            if name in JOIN_AND_ACCESS_PATH_NODES:
                offenders.append(f"{relative}:{node.lineno}: {name}(...)")
    assert offenders == []


def test_only_the_access_reads_index_postings():
    # ``Table.index_reader`` is the one read of a live posting list:
    # plan.Access behind every planned lookup, the incremental detector's
    # included.
    readers = {
        relative
        for relative, module in _src_modules()
        for node in python_ast.walk(module)
        if isinstance(node, python_ast.Attribute) and node.attr == "index_reader"
    }
    assert readers == {"engine/plan.py"}
