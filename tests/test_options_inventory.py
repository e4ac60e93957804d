"""Every option of the durable stack has a caller outside the tests.

An option that only tests set is a fork the product never takes: each
keyword option of :class:`~repro.engine.feed.ChangeFeed`,
:class:`~repro.engine.database.Database`,
:class:`~repro.conflicts.replica.ReplicaHypergraph`,
:class:`~repro.conflicts.shard.ShardCoordinator` and
:class:`~repro.conflicts.executor.ProcessShardExecutor` must be passed --
by keyword or by position -- somewhere under ``src/``, ``benchmarks/``
or ``examples/``.  The exceptions are listed with their reason.
"""

from __future__ import annotations

import ast as python_ast
import inspect
from pathlib import Path

import pytest

import repro
from repro.conflicts.executor import ProcessShardExecutor
from repro.conflicts.replica import ReplicaHypergraph
from repro.conflicts.shard import ShardCoordinator
from repro.engine.database import Database
from repro.engine.feed import ChangeFeed

CLASSES = (
    ChangeFeed,
    Database,
    ReplicaHypergraph,
    ShardCoordinator,
    ProcessShardExecutor,
)
ROOT = Path(repro.__file__).resolve().parents[2]
CALLER_TREES = ("src", "benchmarks", "examples")

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


def test_every_durable_stack_option_has_a_product_caller():
    passed = _passed()
    unused = [
        f"{cls.__name__}({option}=)"
        for cls in CLASSES
        for option in _options(cls)
        if option not in passed[cls.__name__]
        and (cls.__name__, option) not in ALLOWED
    ]
    assert unused == [], "options only tests set: " + ", ".join(unused)


def test_the_allowlist_names_real_options():
    for (name, option), reason in ALLOWED.items():
        (cls,) = [cls for cls in CLASSES if cls.__name__ == name]
        assert option in _options(cls) and reason


def test_deleted_shard_options_are_refused(tmp_path):
    # Refused before any worker process (or feed directory) exists.
    for option in ("relations", "group_prefix", "request_timeout"):
        with pytest.raises(TypeError):
            ProcessShardExecutor(tmp_path / "feed", [], **{option: None})
    with pytest.raises(TypeError):
        ShardCoordinator(ChangeFeed(), [], relations=["r"])
    assert not (tmp_path / "feed").exists()
