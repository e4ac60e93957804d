"""Every public def under ``src/repro`` is referenced by something.

A public function, method or class that no code names -- product,
benchmark, example or test -- is dead weight the next reader still has
to understand.  The check is by name: a def counts as referenced when
its name appears as an identifier or attribute anywhere in ``src/``,
``tests/``, ``benchmarks/`` or ``examples/`` outside the def itself.
Imports and ``__all__`` strings do not count; a re-export is not a use.
The ``devtools/`` analyzer is excluded: its rules are found by registry.
"""

from __future__ import annotations

import ast as python_ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
TREES = ("src", "tests", "benchmarks", "examples")

Def = (python_ast.FunctionDef, python_ast.AsyncFunctionDef, python_ast.ClassDef)


def _names(node: python_ast.AST) -> list[str]:
    """Identifiers and attribute names used anywhere under ``node``."""
    found = []
    for child in python_ast.walk(node):
        if isinstance(child, python_ast.Name):
            found.append(child.id)
        elif isinstance(child, python_ast.Attribute):
            found.append(child.attr)
    return found


def test_every_public_def_is_referenced():
    parsed = {
        path: python_ast.parse(path.read_text(encoding="utf-8"))
        for tree in TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
    }
    uses = Counter(name for module in parsed.values() for name in _names(module))
    unreferenced = []
    for path, module in parsed.items():
        if not path.is_relative_to(PACKAGE) or path.is_relative_to(
            PACKAGE / "devtools"
        ):
            continue
        for node in python_ast.walk(module):
            if isinstance(node, Def) and not node.name.startswith("_"):
                inside = _names(node).count(node.name)
                if uses[node.name] == inside:
                    where = path.relative_to(ROOT)
                    unreferenced.append(f"{where}:{node.lineno} {node.name}")
    assert unreferenced == [], "nothing references: " + ", ".join(unreferenced)


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.engine", "dump_sql"),
        ("repro.engine", "restore_sql"),
        ("repro.engine", "load_csv"),
        ("repro.engine", "dump_csv"),
        ("repro.repairs", "count_repairs"),
        ("repro.engine.functions", "is_scalar_function"),
        ("repro.sql.ast", "disjunction"),
        ("repro.engine.expressions", "Scope.columns_of"),
        ("repro.engine.storage", "Table.insert_many"),
        ("repro.ra.sjud", "SJUDCore.alias_of"),
        ("repro.engine.feed", "ChangeFeed.store_transfer"),
        ("repro.engine.feed", "ChangeFeed.load_transfer"),
        ("repro.engine.feed", "ChangeFeed.clear_transfer"),
        ("repro.engine.feed", "ChangeFeed.transfers"),
        ("repro.engine.feed", "TRANSFER_PREFIX"),
        ("repro.conflicts.shard", "ShardWorker.export_topic"),
        ("repro.conflicts.shard", "ShardCoordinator.sweep_transfers"),
        ("repro.engine.plan", "ColumnEqScan"),
        ("repro.engine.columnar", "ColumnStore.column"),
        ("repro.engine.columnar", "ColumnStore.select_equals"),
        ("repro.engine.types", "values_equal"),
        ("repro.engine.expressions", "_apply_comparison"),
        ("repro.engine.plan", "SemiJoinBuild"),
        ("repro.engine.planner", "_DecorrelatedSubplan.buckets"),
        ("repro.engine.planner", "Planner._try_index_scan"),
        ("repro.engine.planner", "Planner._constant_equality"),
        ("repro.engine.planner", "Planner._equi_pair"),
        ("repro.engine.planner", "_hashable"),
        ("repro.engine.storage", "Table.index_lookup"),
        ("repro.engine.storage", "Table.has_tid"),
        ("repro.engine.storage", "Table.has_index"),
        ("repro.conflicts.incremental", "_DenialMatcher._plan"),
        ("repro.conflicts.incremental", "_DenialMatcher.index_plans"),
        ("repro.conflicts.incremental", "_DenialMatcher.ensure_indexes"),
        ("repro.conflicts.incremental", "_DenialMatcher._extend"),
        ("repro.engine.changelog", "ChangeLog.schema_version"),
        ("repro.core.hippo", "HippoEngine._needs_full_detection"),
        ("repro.conflicts.hypergraph", "minimal_edges"),
        ("repro.conflicts.incremental", "DeltaStats"),
        ("repro.conflicts.incremental", "IncrementalDetector.bootstrap"),
        ("repro.conflicts.shard", "global_constraint_names"),
    ],
)
def test_deleted_names_are_gone(module, name):
    owner = importlib.import_module(module)
    *path, last = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, last)


@pytest.mark.parametrize("module", ["repro.engine.io", "repro.smoke"])
def test_deleted_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_only_the_violation_store_edits_hypergraphs():
    """Which violations are hyperedges, and under which label, is decided
    in one place: ``conflicts/hypergraph.py`` (the ``ViolationStore``)."""
    editors = sorted(
        str(path.relative_to(ROOT))
        for path in PACKAGE.rglob("*.py")
        if re.search(r"\.(add_edge|remove_edge)\(", path.read_text(encoding="utf-8"))
    )
    assert editors == ["src/repro/conflicts/hypergraph.py"]
