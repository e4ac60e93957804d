"""Import-graph layering analysis for the ``repro`` package.

Two checks live here:

* **Layer contract** -- :data:`LAYERS` pins, for every top-level
  package under ``repro``, the set of sibling packages it may import
  at module level.  The contract is checked per module (rule HL016
  wires it into hippolint) so the result can be reused file-by-file.
* **Cycle detection** -- the full module-level import graph must be
  acyclic.  ``from repro.pkg import name`` resolves through package
  facades to ``repro.pkg.name`` when that is a real module, and edges
  from a module to one of its own ancestor packages are dropped (a
  package ``__init__`` re-exporting its children is not a cycle).

Only *runtime module-level* imports count: imports inside functions
and inside ``if TYPE_CHECKING:`` blocks are free of layering
constraints because they cannot create import-time dependencies.

Run standalone::

    PYTHONPATH=src python -m repro.devtools.hippoflow.layering src/repro
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union

ImportStatement = Union[ast.Import, ast.ImportFrom]

#: Allowed module-level dependencies per top-level layer.  A layer may
#: always import from itself; the root facade ``repro/__init__.py`` is
#: exempt (it exists to re-export).  ``devtools`` deliberately maps to
#: the empty set: the analyzer must never import the runtime it checks.
LAYERS: dict[str, frozenset[str]] = {
    "version": frozenset(),
    "errors": frozenset(),
    "sql": frozenset({"errors", "engine"}),
    "engine": frozenset({"errors", "sql"}),
    "ra": frozenset({"errors", "sql", "engine"}),
    "constraints": frozenset({"errors", "sql"}),
    "aggregates": frozenset({"constraints", "engine", "errors"}),
    "workloads": frozenset({"constraints", "engine", "errors"}),
    "conflicts": frozenset({"constraints", "engine", "errors", "ra", "sql"}),
    "core": frozenset(
        {"conflicts", "constraints", "engine", "errors", "ra", "sql"}
    ),
    "repairs": frozenset(
        {"conflicts", "constraints", "engine", "errors", "ra", "sql"}
    ),
    "rewriting": frozenset(
        {"constraints", "core", "engine", "errors", "ra", "sql"}
    ),
    "backends": frozenset({"engine", "errors", "ra", "sql"}),
    "cli": frozenset(
        {
            "backends",
            "conflicts",
            "constraints",
            "core",
            "engine",
            "errors",
            "ra",
            "repairs",
            "rewriting",
            "sql",
            "workloads",
        }
    ),
    "devtools": frozenset(),
}


@dataclass(frozen=True)
class ImportEdge:
    """One module-level import of a ``repro`` module."""

    module: str
    target: str
    lineno: int
    col: int


@dataclass(frozen=True)
class Violation:
    """A contract breach, renderable as ``path:line:col: message``."""

    path: str
    lineno: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.lineno}:{self.col}: {self.message}"


@dataclass
class ProjectImports:
    """The scanned import graph of a source tree."""

    modules: dict[str, Path] = field(default_factory=dict)
    import_edges: list[ImportEdge] = field(default_factory=list)


def layer_of(module: str) -> Optional[str]:
    """The top-level layer of a ``repro`` module (None for the root)."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


def module_name_for(path: Path, root: Path) -> Optional[str]:
    """Dotted module name of ``path`` relative to the tree at ``root``.

    ``root`` itself maps to the package named by its directory; returns
    None for non-Python files.
    """
    if path.suffix != ".py":
        return None
    relative = path.relative_to(root)
    parts = [root.name, *relative.with_suffix("").parts]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_type_checking(test: ast.expr) -> bool:
    return (
        isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
    ) or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def module_level_imports(
    tree: ast.Module,
) -> list[tuple[ImportStatement, int, int]]:
    """Runtime module-level import statements of ``tree``.

    Descends into ``if``/``try``/class bodies (those run at import
    time) but not into functions or ``if TYPE_CHECKING:`` branches.
    """
    found: list[tuple[ImportStatement, int, int]] = []

    def visit(statements: Iterable[ast.stmt]) -> None:
        for statement in statements:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if isinstance(statement, ast.If):
                if not _is_type_checking(statement.test):
                    visit(statement.body)
                visit(statement.orelse)
            elif isinstance(statement, (ast.Try, getattr(ast, "TryStar", ast.Try))):
                visit(statement.body)
                for handler in statement.handlers:
                    visit(handler.body)
                visit(statement.orelse)
                visit(statement.finalbody)
            elif isinstance(statement, ast.ClassDef):
                visit(statement.body)
            elif isinstance(statement, (ast.With, ast.AsyncWith)):
                visit(statement.body)
            elif isinstance(statement, (ast.Import, ast.ImportFrom)):
                found.append(
                    (statement, statement.lineno, statement.col_offset)
                )

    visit(tree.body)
    return found


def resolve_targets(
    statement: ImportStatement,
    importer: str,
    importer_is_package: bool,
    modules: Optional[dict[str, Path]] = None,
) -> list[str]:
    """The ``repro`` modules a single import statement depends on.

    With a ``modules`` map, ``from repro.pkg import name`` resolves to
    ``repro.pkg.name`` when that is a real module (facade resolution);
    without one it conservatively resolves to ``repro.pkg``.
    """
    targets: list[str] = []
    if isinstance(statement, ast.Import):
        for alias in statement.names:
            if alias.name.split(".")[0] == "repro":
                targets.append(alias.name)
        return targets
    base = statement.module or ""
    if statement.level:
        package = importer if importer_is_package else importer.rpartition(".")[0]
        for _ in range(statement.level - 1):
            package = package.rpartition(".")[0]
        base = f"{package}.{base}" if base else package
    if base.split(".")[0] != "repro":
        return []
    for alias in statement.names:
        candidate = f"{base}.{alias.name}"
        if modules is not None and candidate in modules:
            targets.append(candidate)
        else:
            targets.append(base)
    return targets


def check_module(
    module: str,
    tree: ast.Module,
    is_package: bool = False,
) -> list[tuple[int, int, str]]:
    """Layer-contract violations of one module: ``(line, col, message)``.

    Purely local -- needs no project-wide state, so hippolint can cache
    the result per file.
    """
    source_layer = layer_of(module)
    if source_layer is None:
        return []  # The root facade re-exports by design.
    allowed = LAYERS.get(source_layer)
    findings: list[tuple[int, int, str]] = []
    if allowed is None:
        findings.append(
            (
                1,
                0,
                f"layer '{source_layer}' is not in the LAYERS contract;"
                " add it to repro.devtools.hippoflow.layering",
            )
        )
        return findings
    for statement, lineno, col in module_level_imports(tree):
        for target in resolve_targets(statement, module, is_package):
            target_layer = layer_of(target)
            if target_layer is None or target_layer == source_layer:
                continue
            if target_layer not in allowed:
                findings.append(
                    (
                        lineno,
                        col,
                        f"layer '{source_layer}' must not import from"
                        f" '{target_layer}' ({target}); allowed:"
                        f" {sorted(allowed) or 'nothing'}",
                    )
                )
    return findings


def scan_tree(root: Path) -> ProjectImports:
    """Parse every module under ``root`` and collect its import edges."""
    project = ProjectImports()
    paths: dict[str, Path] = {}
    for path in sorted(root.rglob("*.py")):
        name = module_name_for(path, root)
        if name is not None:
            paths[name] = path
    project.modules = paths
    for name, path in paths.items():
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError:
            continue
        is_package = path.name == "__init__.py"
        for statement, lineno, col in module_level_imports(tree):
            for target in resolve_targets(
                statement, name, is_package, modules=paths
            ):
                project.import_edges.append(ImportEdge(name, target, lineno, col))
    return project


def find_cycles(project: ProjectImports) -> list[list[str]]:
    """Strongly connected components of size > 1 (or self-loops).

    Edges into a module's own ancestor package are dropped: a package
    facade importing its children back is re-export, not a cycle.
    """
    graph: dict[str, set[str]] = {name: set() for name in project.modules}
    for edge in project.import_edges:
        if edge.target not in graph:
            continue
        if edge.module.startswith(edge.target + "."):
            continue  # Child importing its own ancestor facade.
        if edge.module != edge.target:
            graph[edge.module].add(edge.target)

    # Tarjan's algorithm, iterative to survive deep trees.
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    def strongconnect(start: str) -> None:
        work: list[tuple[str, Iterable[str]]] = [(start, iter(sorted(graph[start])))]
        index_of[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index_of:
                    index_of[successor] = low[successor] = counter[0]
                    counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(sorted(graph[successor]))))
                    advanced = True
                    break
                if successor in on_stack:
                    low[node] = min(low[node], index_of[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))

    for name in sorted(graph):
        if name not in index_of:
            strongconnect(name)
    return sorted(sccs)


def check_tree(root: Path) -> list[Violation]:
    """All layering violations and cycles under ``root``."""
    project = scan_tree(root)
    violations: list[Violation] = []
    for name, path in sorted(project.modules.items()):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError:
            continue
        is_package = path.name == "__init__.py"
        for lineno, col, message in check_module(name, tree, is_package):
            violations.append(Violation(str(path), lineno, col, message))
    for cycle in find_cycles(project):
        head = project.modules[cycle[0]]
        violations.append(
            Violation(
                str(head),
                1,
                0,
                "import cycle between modules: " + " -> ".join(cycle),
            )
        )
    return violations


def main(argv: Optional[list[str]] = None) -> int:
    """Standalone entry point: ``layering <tree> [<tree> ...]``."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if not arguments:
        arguments = ["src/repro"]
    violations: list[Violation] = []
    for argument in arguments:
        root = Path(argument)
        if not root.is_dir():
            print(f"layering: no such tree: {root}", file=sys.stderr)
            return 2
        violations.extend(check_tree(root))
    for violation in violations:
        print(violation.render())
    if violations:
        print(
            f"layering: {len(violations)} violation(s)",
            file=sys.stderr,
        )
        return 1
    print("layering: contract holds", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
