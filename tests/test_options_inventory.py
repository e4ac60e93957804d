"""Every constructor option has a caller outside the tests.

An option that only tests set is a fork the product never takes: each
keyword option of every public class under ``src/repro`` that writes
its own ``__init__`` (dataclasses, protocols and the ``devtools/``
analyzer excepted) must be passed -- by keyword or by position --
somewhere under ``src/``, ``benchmarks/`` or ``examples/``.  The
exceptions are listed with their reason.
"""

from __future__ import annotations

import ast as python_ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import repro
from repro.cli import HippoShell
from repro.conflicts.executor import ProcessShardExecutor
from repro.conflicts.shard import ShardCoordinator
from repro.engine.feed import ChangeFeed

ROOT = Path(repro.__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
CALLER_TREES = ("src", "benchmarks", "examples")


def _constructed_classes() -> list[type]:
    """Public non-dataclass, non-protocol classes under ``src/repro``
    (``devtools/`` excluded) that define their own ``__init__``."""
    found: list[type] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if "devtools" in parts or parts[-1] == "__main__":
            continue
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = importlib.import_module(".".join(parts))
        for name, obj in vars(module).items():
            if (
                inspect.isclass(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
                and "__init__" in vars(obj)
                and not dataclasses.is_dataclass(obj)
                and not getattr(obj, "_is_protocol", False)
            ):
                found.append(obj)
    return found


CLASSES = _constructed_classes()

#: (class, option) -> why no product caller needs to set it.
ALLOWED = {
    ("ChangeFeed", "fsync"): "a durability mode: the default is the product setting",
    ("ChangeFeed", "max_retained"): "a memory bound: overflow tests need small values",
    ("ShardCoordinator", "assignment"): (
        "the operator's pin: the product sets it on ProcessShardExecutor,"
        " in-process handoff tests need the same skewed start"
    ),
    ("ProcessShardExecutor", "heartbeat_timeout"): (
        "a supervision deadline: the default is the product setting,"
        " the hang test needs a short one"
    ),
    ("ProcessShardExecutor", "fault_hooks"): (
        "the chaos tier's crash-injection seam: a product run never arms it"
    ),
    ("HippoShell", "out"): (
        "the shell's output seam: the product prints to stdout, tests"
        " capture it"
    ),
}


def _parameters(cls: type) -> list[inspect.Parameter]:
    """The constructor's parameters after ``self``, in order."""
    return list(inspect.signature(cls.__init__).parameters.values())[1:]


def _options(cls: type) -> list[str]:
    """The parameters with a default: what a caller may leave out."""
    return [p.name for p in _parameters(cls) if p.default is not p.empty]


def _passed() -> dict[str, set[str]]:
    """Class name -> the parameters some call under the caller trees
    sets."""
    options = {
        cls.__name__: [p.name for p in _parameters(cls)] for cls in CLASSES
    }
    passed: dict[str, set[str]] = {name: set() for name in options}
    for tree in CALLER_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in python_ast.walk(python_ast.parse(path.read_text())):
                if not isinstance(node, python_ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name not in options:
                    continue
                passed[name].update(options[name][: len(node.args)])
                passed[name].update(kw.arg for kw in node.keywords if kw.arg)
    return passed


PASSED = _passed()


def test_the_scan_sees_every_constructor_once():
    names = [cls.__name__ for cls in CLASSES]
    assert len(names) == len(set(names)), "two classes share a name"
    for cls in (ChangeFeed, ShardCoordinator, ProcessShardExecutor, HippoShell):
        assert cls in CLASSES


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_option_has_a_product_caller(cls):
    unused = [
        f"{cls.__name__}({option}=)"
        for option in _options(cls)
        if option not in PASSED[cls.__name__]
        and (cls.__name__, option) not in ALLOWED
    ]
    assert unused == [], "options only tests set: " + ", ".join(unused)


def test_the_allowlist_names_real_options():
    by_name = {cls.__name__: cls for cls in CLASSES}
    for (name, option), reason in ALLOWED.items():
        assert option in _options(by_name[name]) and reason


def test_deleted_shard_options_are_refused(tmp_path):
    # Refused before any worker process (or feed directory) exists.
    for option in ("relations", "group_prefix", "request_timeout"):
        with pytest.raises(TypeError):
            ProcessShardExecutor(tmp_path / "feed", [], **{option: None})
    with pytest.raises(TypeError):
        ShardCoordinator(ChangeFeed(), [], relations=["r"])
    assert not (tmp_path / "feed").exists()


def test_foreign_keys_take_no_match_nulls():
    from repro.constraints import ForeignKeyConstraint

    with pytest.raises(TypeError):
        ForeignKeyConstraint("c", ["p"], "p", ["id"], match_nulls=True)


def test_the_shell_run_takes_no_interactive_flag():
    with pytest.raises(TypeError):
        HippoShell().run([], interactive=True)


def test_rebalance_takes_no_step_hook():
    from repro.constraints import FunctionalDependency

    coordinator = ShardCoordinator(
        ChangeFeed(), [FunctionalDependency("r", ["a"], ["b"])], workers=1
    )
    try:
        with pytest.raises(TypeError):
            coordinator.rebalance(on_step=lambda step: None)
    finally:
        coordinator.close()


def test_repair_counting_takes_no_component_limit():
    from repro.conflicts.hypergraph import ConflictHypergraph
    from repro.repairs import count_repairs_exact

    with pytest.raises(TypeError):
        count_repairs_exact(ConflictHypergraph(), limit_per_component=10)


def test_the_selection_query_takes_no_threshold():
    from repro.workloads import selection_query

    assert selection_query("r").sql == "SELECT * FROM r WHERE b0 < 500000"
    with pytest.raises(TypeError):
        selection_query("r", threshold=10)
