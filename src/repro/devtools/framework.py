"""The hippolint rule framework: registry, module model, file driver.

A :class:`Rule` inspects one parsed module and yields findings.  Rules are
registered by id (``HL002`` ...) in a module-level registry; the driver
parses each file once, asks every applicable rule for findings, and drops
those covered by suppression comments.

Rules never walk the tree themselves: :class:`SourceModule` indexes
every node of a module in one traversal the first time a rule asks
(:meth:`SourceModule.nodes`, :attr:`SourceModule.functions`, a
function's own-scope nodes), and every rule reads that index.

Paths are normalised to a *package path* -- the part under the ``repro``
package (``engine/planner.py``, ``conflicts/shard.py``) -- so rules can scope
themselves to the modules whose invariants they encode regardless of where
the tree is checked out.  Files outside the package (tests, fixtures run
through :func:`analyze_source`) get an empty package path and are only
seen by rules that opt into them.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, TypeVar

from repro.devtools.diagnostics import (
    Diagnostic,
    Suppressions,
    parse_suppressions,
)
from repro.devtools.hippoflow.cfg import SCOPES, FuncDef

#: Pseudo rule id for files that fail to parse.
PARSE_ERROR_ID = "HL000"

#: A finding as yielded by a rule: (line, col, message).
Finding = tuple[int, int, str]

_Node = TypeVar("_Node", bound=ast.AST)


class _NodeIndex:
    """Every node of one module, gathered in one depth-first traversal.

    ``walk`` lists the nodes in :func:`ast.walk` order: the visit files
    each node under its depth, and the levels concatenate to that
    breadth-first order.  ``local`` maps each def to its own-scope nodes
    in pre-order -- what :func:`~repro.devtools.hippoflow.cfg.executed_nodes`
    yields under the def's children -- and ``body`` to the slice of that
    list that is ``func.body``.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.levels: list[list[ast.AST]] = []
        self.local: dict[ast.AST, list[ast.AST]] = {}
        self.body: dict[ast.AST, slice] = {}
        self._visit(tree, 0, None)
        self.walk = [node for level in self.levels for node in level]
        self.by_types: dict[tuple[type, ...], list[ast.AST]] = {}

    def _visit(
        self, node: ast.AST, depth: int, scope: Optional[list[ast.AST]]
    ) -> None:
        if depth == len(self.levels):
            self.levels.append([])
        self.levels[depth].append(node)
        if scope is not None:
            scope.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own: list[ast.AST] = []
            self.local[node] = own
            start = end = 0
            for child in ast.iter_child_nodes(node):
                if child is node.body[0]:
                    start = len(own)
                self._visit(child, depth + 1, own)
                if child is node.body[-1]:
                    end = len(own)
            self.body[node] = slice(start, end)
            return
        if isinstance(node, SCOPES):
            scope = None
        for child in ast.iter_child_nodes(node):
            self._visit(child, depth + 1, scope)


@dataclass
class SourceModule:
    """One parsed source file plus the metadata rules scope on."""

    path: str
    source: str
    tree: ast.Module
    suppressions: Suppressions

    @cached_property
    def _index(self) -> _NodeIndex:
        return _NodeIndex(self.tree)

    def nodes(self, *types: type[_Node]) -> Sequence[_Node]:
        """Every node that is an instance of ``types``, in
        :func:`ast.walk` order."""
        index = self._index
        found = index.by_types.get(types)
        if found is None:
            found = [node for node in index.walk if isinstance(node, types)]
            index.by_types[types] = found
        return found  # type: ignore[return-value]

    @property
    def functions(self) -> Sequence[FuncDef]:
        """Every ``def`` and ``async def``, nested ones included."""
        functions = self.nodes(ast.FunctionDef, ast.AsyncFunctionDef)
        return functions  # type: ignore[return-value]

    def local_nodes(self, func: FuncDef) -> Sequence[ast.AST]:
        """The whole def's own-scope nodes in pre-order: decorators,
        defaults and annotations included; a nested def, class or lambda
        is listed but its body is not."""
        return self._index.local[func]

    def body_nodes(self, func: FuncDef) -> Sequence[ast.AST]:
        """:meth:`local_nodes` restricted to the statements of
        ``func.body`` -- the code a CFG of ``func`` executes."""
        return self._index.local[func][self._index.body[func]]

    @property
    def package_path(self) -> str:
        """The path under the ``repro`` package, or ``""`` outside it."""
        parts = Path(self.path).parts
        for index in range(len(parts) - 1, -1, -1):
            if parts[index] == "repro":
                return "/".join(parts[index + 1 :])
        return ""

    def in_package(self) -> bool:
        """Whether the module lives inside ``repro`` at all."""
        return bool(self.package_path)

    def is_module(self, *package_paths: str) -> bool:
        """Whether this module is one of the named package paths."""
        return self.package_path in package_paths

    def under(self, *prefixes: str) -> bool:
        """Whether the package path starts with any of ``prefixes``."""
        return any(self.package_path.startswith(p) for p in prefixes)


class Rule:
    """Base class for hippolint rules.

    Subclasses define ``id``, ``name``, ``summary`` and ``rationale`` class
    attributes, restrict themselves via :meth:`applies_to`, and yield
    ``(line, col, message)`` findings from :meth:`check`.
    """

    id: str = ""
    name: str = ""
    summary: str = ""
    rationale: str = ""

    def applies_to(self, module: SourceModule) -> bool:
        """Whether this rule wants to see ``module`` (default: repro only)."""
        return module.in_package()

    def check(self, module: SourceModule) -> Iterator[Finding]:
        """Yield findings for ``module``."""
        raise NotImplementedError
        yield  # pragma: no cover


_REGISTRY: dict[str, Rule] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule = rule_class()
    if not rule.id or not rule.name:
        raise ValueError(f"rule {rule_class.__name__} lacks an id or name")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule_class


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by id."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Look a rule up by id."""
    return _REGISTRY[rule_id]


def analyze_module(
    module: SourceModule, select: Optional[Iterable[str]] = None
) -> list[Diagnostic]:
    """Run every applicable rule over one parsed module."""
    selected = set(select) if select is not None else None
    diagnostics: list[Diagnostic] = []
    for rule in all_rules():
        if selected is not None and rule.id not in selected:
            continue
        if not rule.applies_to(module):
            continue
        for line, col, message in rule.check(module):
            if module.suppressions.covers(rule.id, line):
                continue
            diagnostics.append(
                Diagnostic(module.path, line, col, rule.id, rule.name, message)
            )
    diagnostics.sort(key=lambda d: (d.line, d.col, d.rule_id))
    return diagnostics


def analyze_source(
    source: str, path: str, select: Optional[Iterable[str]] = None
) -> list[Diagnostic]:
    """Analyze source text as though it lived at ``path``.

    This is how fixture tests exercise path-scoped rules: the fixture text
    is analyzed under a virtual path such as ``src/repro/engine/planner.py``.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [
            Diagnostic(
                path,
                error.lineno or 1,
                (error.offset or 1) - 1,
                PARSE_ERROR_ID,
                "parse-error",
                f"file does not parse: {error.msg}",
            )
        ]
    module = SourceModule(path, source, tree, parse_suppressions(source))
    return analyze_module(module, select)


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Walk ``paths`` yielding checkable ``.py`` files.

    Directories whose name starts with ``.`` or ``_`` are skipped, which
    keeps caches (``__pycache__``), virtualenvs and the deliberately
    violating lint fixtures (``tests/devtools/_fixtures``) out of scope.
    """
    for entry in paths:
        path = Path(entry)
        if path.is_file():
            if path.suffix == ".py":
                yield str(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                name
                for name in dirnames
                if not name.startswith((".", "_"))
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield str(Path(dirpath) / filename)


def analyze_paths(
    paths: Iterable[str], select: Optional[Iterable[str]] = None
) -> tuple[list[Diagnostic], int]:
    """Analyze every python file under ``paths``.

    Returns the diagnostics plus the number of files inspected.
    """
    diagnostics: list[Diagnostic] = []
    checked = 0
    for file_path in iter_python_files(paths):
        checked += 1
        try:
            source = Path(file_path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            diagnostics.append(
                Diagnostic(
                    file_path,
                    1,
                    0,
                    PARSE_ERROR_ID,
                    "parse-error",
                    f"cannot read file: {error}",
                )
            )
            continue
        diagnostics.extend(analyze_source(source, file_path, select))
    return diagnostics, checked
