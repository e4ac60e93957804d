"""The repo-specific hippolint rules.

Each rule encodes an invariant of the durability/concurrency protocol that
one of the hardening passes (PRs 2-5) established the hard way.  The
``rationale`` strings name the dynamic harness that checks the same
invariant at runtime; the rules here make the corresponding *structural*
property cheap to check on every change.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.devtools.framework import Finding, Rule, SourceModule, register

# --------------------------------------------------------------- AST helpers


def _dotted(node: ast.expr) -> str:
    """Best-effort dotted name of a call target (``os.replace``, ``print``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    return ""


def _terminal(node: ast.expr) -> str:
    """The final attribute/name of a call target (``replace``, ``print``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _walk_local(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested function/class bodies.

    The nested definitions themselves are yielded (so callers see that a
    closure exists) but their bodies belong to a different execution scope
    and are analyzed on their own.
    """
    yield node
    if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
    ):
        return
    for child in ast.iter_child_nodes(node):
        yield from _walk_local(child)


def _local_body(func: ast.AST) -> Iterator[ast.AST]:
    """Nodes of a function's own body, excluding nested scopes."""
    for child in ast.iter_child_nodes(func):
        yield from _walk_local(child)


def _functions(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _calls_named(nodes: Iterator[ast.AST], *names: str) -> list[ast.Call]:
    return [
        node
        for node in nodes
        if isinstance(node, ast.Call) and _terminal(node.func) in names
    ]


# -------------------------------------------------------------------- rules


@register
class FsyncBeforeRenameRule(Rule):
    """HL002: durability barrier before the rename that publishes a file.

    ``os.replace``/``os.rename`` make a file visible atomically, but the
    atomicity is worthless if the bytes being published were never
    fsync'ed; a crash can then publish a hole.  In the segment log
    (``engine/feed/segments.py``) the same ordering applies one level
    up: sealed segment data must hit disk
    (``_write_sealed``) before the manifest commit that names it
    (``_store_manifest``).
    """

    id = "HL002"
    name = "fsync-before-rename"
    summary = (
        "os.replace/os.rename must be preceded by os.fsync in the same"
        " function; segment writes must precede the manifest commit"
    )
    rationale = (
        "PR 3/4 durability work; dynamic twin: torn-write and reopen"
        " tests in tests/engine/test_feed.py"
    )

    def applies_to(self, module: SourceModule) -> bool:
        return module.under("engine/", "conflicts/")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for func in _functions(module.tree):
            renames = [
                call
                for call in _calls_named(_local_body(func), "replace", "rename")
                if _dotted(call.func) in ("os.replace", "os.rename")
            ]
            if renames:
                fsyncs = _calls_named(_local_body(func), "fsync")
                first_fsync = min(
                    (call.lineno for call in fsyncs), default=None
                )
                for call in renames:
                    if first_fsync is None or call.lineno < first_fsync:
                        yield (
                            call.lineno,
                            call.col_offset,
                            f"{_dotted(call.func)}() publishes a file whose"
                            " contents were not fsync'ed first; call"
                            " os.fsync on the handle before renaming",
                        )
            if module.is_module("engine/feed/segments.py"):
                seals = _calls_named(_local_body(func), "_write_sealed")
                commits = _calls_named(_local_body(func), "_store_manifest")
                if seals and commits:
                    first_seal = min(call.lineno for call in seals)
                    first_commit = min(call.lineno for call in commits)
                    if first_commit < first_seal:
                        yield (
                            first_commit,
                            0,
                            "_store_manifest() names segments that"
                            " _write_sealed() has not persisted yet; seal"
                            " segment data before committing the manifest",
                        )


@register
class ApplyThenCommitRule(Rule):
    """HL003: consumers apply polled records before committing offsets.

    Committing first turns a crash between commit and apply into silent
    record loss -- the exactly-once contract the replica equivalence
    harness depends on.  The rule looks for a ``poll()``/``commit()`` pair
    on the same receiver and requires evidence of application in between:
    a use of the polled records or a call whose name signals application
    (apply/detect/restore/bootstrap/seek/replay/rebuild).
    """

    id = "HL003"
    name = "apply-then-commit"
    summary = (
        "between consumer.poll() and consumer.commit() the polled records"
        " must be applied (no commit-then-apply orderings)"
    )
    rationale = (
        "PR 3 replica protocol; dynamic twin:"
        " tests/conflicts/test_replica_equivalence.py"
    )

    MARKERS = (
        "apply",
        "detect",
        "restore",
        "bootstrap",
        "seek",
        "replay",
        "rebuild",
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for func in _functions(module.tree):
            nodes = list(_local_body(func))
            polls: list[tuple[int, str, set[str]]] = []
            for node in nodes:
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and _terminal(node.value.func) == "poll"
                    and isinstance(node.value.func, ast.Attribute)
                ):
                    receiver = ast.unparse(node.value.func.value)
                    targets: set[str] = set()
                    for target in node.targets:
                        for leaf in ast.walk(target):
                            if isinstance(leaf, ast.Name):
                                targets.add(leaf.id)
                    polls.append((node.lineno, receiver, targets))
            if not polls:
                continue
            commits = [
                call
                for call in _calls_named(iter(nodes), "commit")
                if isinstance(call.func, ast.Attribute)
            ]
            for commit in commits:
                receiver = ast.unparse(commit.func.value)
                matching = [p for p in polls if p[1] == receiver]
                if not matching:
                    continue
                before = [p for p in matching if p[0] <= commit.lineno]
                if not before:
                    yield (
                        commit.lineno,
                        commit.col_offset,
                        f"{receiver}.commit() runs before {receiver}.poll();"
                        " apply records between poll and commit",
                    )
                    continue
                poll_line, _, targets = max(before, key=lambda p: p[0])
                if self._applied_between(nodes, poll_line, commit.lineno, targets):
                    continue
                yield (
                    commit.lineno,
                    commit.col_offset,
                    f"{receiver}.commit() follows poll() with no evidence the"
                    " polled records were applied in between; apply first so"
                    " a crash after commit cannot lose records",
                )

    def _applied_between(
        self,
        nodes: Sequence[ast.AST],
        poll_line: int,
        commit_line: int,
        targets: set[str],
    ) -> bool:
        for node in nodes:
            lineno = getattr(node, "lineno", None)
            if lineno is None or not (poll_line < lineno <= commit_line):
                continue
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in targets
            ):
                return True
            if isinstance(node, ast.Call):
                name = _dotted(node.func).lower()
                if any(marker in name for marker in self.MARKERS):
                    return True
        return False


@register
class HypergraphEncapsulationRule(Rule):
    """HL004: ``ConflictHypergraph`` internals stay inside their module.

    The violation store must go through ``add_edge``/``remove_edge``/
    ``relabel`` so invariants (incidence maps, edge labels, position
    index) stay in sync; poking ``_position`` or ``_incidence`` from
    outside desynchronizes them silently.
    """

    id = "HL004"
    name = "hypergraph-encapsulation"
    summary = (
        "ConflictHypergraph internals (_position/_incidence/_edges) are"
        " only touched inside conflicts/hypergraph.py; edges/edge_labels"
        " are not mutated from outside"
    )
    rationale = (
        "PR 5 shard merge audit; dynamic twin:"
        " tests/property/test_violation_store.py"
    )

    PRIVATE = ("_position", "_incidence", "_edges")
    PUBLIC = ("edges", "edge_labels")
    MUTATORS = (
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
    )

    def applies_to(self, module: SourceModule) -> bool:
        return module.in_package() and not module.is_module(
            "conflicts/hypergraph.py"
        )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                if node.attr in self.PRIVATE:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"access to ConflictHypergraph internal"
                        f" `{node.attr}` outside conflicts/hypergraph.py;"
                        " use add_edge()/remove_edge()",
                    )
                elif node.attr in self.PUBLIC and isinstance(
                    node.ctx, (ast.Store, ast.Del)
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"rebinding `{node.attr}` outside"
                        " conflicts/hypergraph.py bypasses the hypergraph"
                        " mutation API",
                    )
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.MUTATORS
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr in self.PUBLIC
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"mutating `{node.func.value.attr}.{node.func.attr}()`"
                    " outside conflicts/hypergraph.py bypasses"
                    " add_edge()/remove_edge()",
                )


@register
class NormalizedKeysRule(Rule):
    """HL005: relation keys go through the lowercase normalizers.

    Topics, vertices and repair keys are all keyed by lower-cased relation
    name; PR 4/5 fixed casing mismatches where ``Vertex("Emp", ...)`` and
    ``vertex("emp", ...)`` silently referred to different facts.  Direct
    ``Vertex(...)``/``Fact(...)`` construction outside the defining
    modules needs an audited suppression explaining why the relation is
    already lower-case.
    """

    id = "HL005"
    name = "normalized-relation-keys"
    summary = (
        "construct vertices/facts via the lowercasing helpers vertex()"
        " and fact(), not the raw Vertex()/Fact() tuples"
    )
    rationale = (
        "PR 4/5 casing audits; dynamic twin: mixed-case relation tests in"
        " tests/conflicts/test_shard.py and tests/repairs/"
    )

    RAW = ("Vertex", "Fact")
    EXEMPT = ("conflicts/hypergraph.py", "core/facts.py")

    def applies_to(self, module: SourceModule) -> bool:
        return module.in_package() and not module.is_module(*self.EXEMPT)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and _terminal(node.func) in self.RAW:
                raw = _terminal(node.func)
                helper = raw.lower()
                yield (
                    node.lineno,
                    node.col_offset,
                    f"raw {raw}(...) does not lower-case the relation; use"
                    f" {helper}(...) or suppress with a note proving the"
                    " relation is already normalized",
                )


@register
class ExceptionDisciplineRule(Rule):
    """HL006: no bare ``except`` and no swallowed feed errors.

    A bare ``except:`` catches ``KeyboardInterrupt``/``SystemExit``; and
    inside the durability core, silently dropping :class:`FeedError` (or
    all of ``Exception``) hides exactly the failures the protocol exists
    to surface.
    """

    id = "HL006"
    name = "exception-discipline"
    summary = (
        "no bare `except:`; engine/ and conflicts/ may not swallow"
        " FeedError/Exception with a pass-only handler or"
        " contextlib.suppress"
    )
    rationale = (
        "PR 3/4 failure-injection tests; dynamic twin: lost-record"
        " surfacing asserts in tests/engine/test_feed.py"
    )

    BROAD = ("FeedError", "Exception", "BaseException")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        core = module.under("engine/", "conflicts/")
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler):
                if node.type is None:
                    yield (
                        node.lineno,
                        node.col_offset,
                        "bare `except:` catches KeyboardInterrupt and"
                        " SystemExit; name the exceptions",
                    )
                elif core and self._is_broad(node.type) and self._swallows(node):
                    yield (
                        node.lineno,
                        node.col_offset,
                        "handler swallows a broad exception class in the"
                        " durability core; handle it or let it propagate",
                    )
            if (
                core
                and isinstance(node, ast.Call)
                and _terminal(node.func) == "suppress"
                and any(self._is_broad(arg) for arg in node.args)
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    "contextlib.suppress of a broad exception class hides"
                    " feed failures; suppress specific OS errors only",
                )

    def _is_broad(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Tuple):
            return any(self._is_broad(elt) for elt in node.elts)
        return _terminal(node) in self.BROAD

    def _swallows(self, handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue
            return False
        return True


@register
class StrictWireJsonRule(Rule):
    """HL007: JSON crossing the feed wire refuses NaN/Infinity.

    ``json.dumps(float("nan"))`` happily emits ``NaN``, which is not JSON
    and round-trips to a parse error on replay.  Every serialization in
    the engine must pass ``allow_nan=False`` so non-finite floats fail at
    write time (the value codec encodes them explicitly instead).
    """

    id = "HL007"
    name = "strict-wire-json"
    summary = (
        "json.dump/json.dumps in engine/ and conflicts/ must pass"
        " allow_nan=False (non-finite floats go through encode_value)"
    )
    rationale = (
        "PR 3 value codec; dynamic twin: non-finite float round-trip"
        " tests in tests/engine/test_feed.py"
    )

    def applies_to(self, module: SourceModule) -> bool:
        return module.under("engine/", "conflicts/")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if _dotted(node.func) not in ("json.dump", "json.dumps"):
                continue
            strict = any(
                keyword.arg == "allow_nan"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is False
                for keyword in node.keywords
            )
            if not strict:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{_dotted(node.func)}() without allow_nan=False can"
                    " emit NaN/Infinity, which is unparseable on replay;"
                    " non-finite floats must go through encode_value",
                )


@register
class DeterministicPlanningRule(Rule):
    """HL008: planning code is deterministic.

    Plan choice, shard assignment and rewriting must be pure functions of
    their inputs so the equivalence harnesses can compare runs;
    wall-clock time, ``random``, ``uuid`` and salted ``hash()`` all break
    that.  (``time.perf_counter`` is fine: it only *measures*.)
    """

    id = "HL008"
    name = "deterministic-planning"
    summary = (
        "no random/uuid imports, time.time()/datetime.now()/os.urandom()"
        " or builtin hash() in planner, plan, stats, shard and rewriting"
        " modules"
    )
    rationale = (
        "PR 5 sharded workers; dynamic twin: plan_assignment determinism"
        " asserts in tests/conflicts/test_shard.py"
    )

    MODULES = (
        "engine/planner.py",
        "engine/plan.py",
        "engine/stats.py",
        "conflicts/shard.py",
        "rewriting/rewrite.py",
    )
    FORBIDDEN_CALLS = (
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "date.today",
        "os.urandom",
    )

    def applies_to(self, module: SourceModule) -> bool:
        return module.is_module(*self.MODULES)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in ("random", "uuid"):
                        yield (
                            node.lineno,
                            node.col_offset,
                            f"import of `{alias.name}` in deterministic"
                            " planning code",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in ("random", "uuid"):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"import from `{node.module}` in deterministic"
                        " planning code",
                    )
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted in self.FORBIDDEN_CALLS:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"`{dotted}()` makes planning output depend on the"
                        " wall clock",
                    )
                elif dotted == "hash":
                    yield (
                        node.lineno,
                        node.col_offset,
                        "builtin hash() is salted per process; use sort_key"
                        " or an explicit stable key",
                    )


@register
class TypedDefsRule(Rule):
    """HL009: every function in ``src/repro`` is fully annotated.

    This is the locally runnable face of the ``mypy --strict`` gate:
    strict mode's first demand is complete signatures, and this rule
    enforces exactly that with no third-party toolchain.
    """

    id = "HL009"
    name = "typed-defs"
    summary = (
        "every def in src/repro annotates all parameters (except"
        " self/cls) and the return type"
    )
    rationale = (
        "mypy --strict gate (tentpole); CI runs the full checker, this"
        " rule keeps signatures complete without the toolchain"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for func in _functions(module.tree):
            missing: list[str] = []
            args = func.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if arg.annotation is None and arg.arg not in ("self", "cls"):
                    missing.append(arg.arg)
            if args.vararg is not None and args.vararg.annotation is None:
                missing.append(f"*{args.vararg.arg}")
            if args.kwarg is not None and args.kwarg.annotation is None:
                missing.append(f"**{args.kwarg.arg}")
            if func.returns is None:
                missing.append("return")
            if missing:
                yield (
                    func.lineno,
                    func.col_offset,
                    f"def {func.name}() is missing annotations for:"
                    f" {', '.join(missing)}",
                )


@register
class NoPrintRule(Rule):
    """HL010: library code never prints.

    Only the interactive shell writes to stdout; a stray ``print`` in the
    engine corrupts the shell protocol and hides in test output.
    """

    id = "HL010"
    name = "no-print"
    summary = "print() only in cli.py and devtools/"
    rationale = "shell protocol hygiene; keeps engine output machine-clean"

    def applies_to(self, module: SourceModule) -> bool:
        return (
            module.in_package()
            and not module.is_module("cli.py")
            and not module.under("devtools/")
        )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    "print() in library code; raise, log via the caller, or"
                    " return the value instead",
                )


@register
class PublicDocstringsRule(Rule):
    """HL011: contract-bearing modules document every public def.

    The feed, the planner, the shard merge view and the rewriting facade
    all carry concurrency or lifetime contracts that are invisible in
    signatures -- how long a subquery memo lives, who may mutate under
    which lock, how fresh a merged graph is.  A public def without a
    docstring in these modules is a contract nobody wrote down.
    """

    id = "HL011"
    name = "public-docstrings"
    summary = (
        "every public class/function in engine/feed/*.py, engine/planner.py,"
        " conflicts/shard.py and rewriting/__init__.py has a docstring"
    )
    rationale = (
        "docs/ARCHITECTURE.md cites these contracts; dynamic twin:"
        " tests/engine/test_statement_text.py (text == AST execution,"
        " per-statement memos) exercises what the docstrings promise"
    )

    MODULES = (
        "engine/planner.py",
        "conflicts/shard.py",
        "rewriting/__init__.py",
    )

    def applies_to(self, module: SourceModule) -> bool:
        return module.under("engine/feed/") or module.is_module(*self.MODULES)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        yield from self._walk(module.tree.body)

    def _walk(self, body: list[ast.stmt]) -> Iterator[Finding]:
        """Public defs at module/class level (nested functions are
        implementation detail and exempt, as is anything underscored)."""
        for node in body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if node.name.startswith("_"):
                continue
            kind = "class" if isinstance(node, ast.ClassDef) else "def"
            if ast.get_docstring(node) is None:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"public {kind} {node.name} has no docstring; state its"
                    " contract (concurrency, invalidation, errors)",
                )
            if isinstance(node, ast.ClassDef):
                yield from self._walk(node.body)
