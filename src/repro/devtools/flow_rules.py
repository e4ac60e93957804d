"""Flow-sensitive hippolint rules (HL013-HL016) built on hippoflow.

The lexical rules in :mod:`repro.devtools.rules` check what a line
*says*; the rules here check what a function *does* across branches,
early returns and exception edges, by running abstract domains from
:mod:`repro.devtools.hippoflow.domains` over per-function CFGs.

Each rule pre-filters lexically over the calls of a function's body,
read from the module's node index (no CFG is built for a function that
cannot possibly produce a finding).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional, TypeGuard

from repro.devtools.framework import Finding, Rule, SourceModule, register
from repro.devtools.hippoflow.cfg import build_cfg
from repro.devtools.hippoflow.dataflow import analyze, replay
from repro.devtools.hippoflow.domains import (
    AcquisitionSpec,
    LockDomain,
    ResourceDomain,
    TaintDomain,
    evaluated_nodes,
    terminal_name,
)


@register
class ResourceLeakRule(Rule):
    """HL013: acquired resources reach close() on every path.

    File handles, backend connections and feed consumers acquired in a
    function must be closed, transferred to a ``with`` block, or
    escape ownership (returned, stored, passed on) on *all* paths --
    including the exception edges the lexical rules cannot see.  The
    classic bug shape: ``writer = self._writers.pop(name)`` followed by
    a ``flush()``/``fsync()`` that raises before ``close()`` runs.
    """

    id = "HL013"
    name = "resource-leak"
    summary = (
        "acquired file handles / connections / feed consumers must be"
        " closed or escape ownership on every path, including exception"
        " edges"
    )
    rationale = (
        "PR 9 flow analysis; dynamic twin: tests/engine/test_feed_leaks.py"
        " pins the error-path cleanup this rule proves structurally"
    )

    SPEC = AcquisitionSpec(
        calls={
            "open": "file handle from open()",
            "connect": "connection from connect()",
            "consumer": "feed consumer from consumer()",
        },
        methods={
            ("_writers", "pop"): "segment writer popped from self._writers",
        },
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for func in module.functions:
            if not any(
                isinstance(node, ast.Call)
                and self.SPEC.describe(node) is not None
                for node in module.body_nodes(func)
            ):
                continue
            cfg = build_cfg(func)
            domain = ResourceDomain(self.SPEC, func)
            in_states = analyze(cfg, domain)
            for site, kind in domain.leaks(cfg, in_states):
                where = (
                    "an exception path"
                    if kind == "exception"
                    else "a fall-through path"
                )
                yield (
                    site.lineno,
                    site.col,
                    f"{site.what} may never be closed on {where} out of"
                    f" {func.name}(); close it in try/finally or hand"
                    " ownership off before anything can raise",
                )


@register
class LockStateRule(Rule):
    """HL014: manifest mutations see the lock *held*, not just nearby.

    PR 4's crash tests found torn manifests when retention merged
    segment lists outside the flock; every call in the segment log
    (``engine/feed/segments.py``) that folds or rewrites manifest state
    must run with ``self.manifest_lock()`` held.  The rule runs a
    must-held analysis over the CFG, so a lock context laundered
    through a variable still counts, and a path that reaches the
    mutation with the lock released (early return, conditional
    acquisition, exception edge past the ``with``) is caught -- as is
    the plain case of a guarded call with no ``with`` around it at all.
    """

    id = "HL014"
    name = "lock-state"
    summary = (
        "manifest-state helpers in engine/feed/segments.py must execute with"
        " self.manifest_lock()"
        " definitely held on every CFG path, not merely lexically nearby"
    )
    rationale = (
        "PR 4 writer-side checkpoints, PR 9 flow analysis; dynamic twin:"
        " tests/engine/test_feed.py crash-recovery and multi-writer tests"
    )

    GUARDED = ("_merge_disk_retention", "_sweep_orphans")

    def applies_to(self, module: SourceModule) -> bool:
        return module.is_module("engine/feed/segments.py")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for func in module.functions:
            if not any(
                isinstance(node, ast.Call)
                and self._guarded_reason(node) is not None
                for node in module.body_nodes(func)
            ):
                continue
            cfg = build_cfg(func)
            domain = LockDomain()
            in_states = analyze(cfg, domain)
            for element, state in replay(cfg, domain, in_states):
                if LockDomain.held(state):
                    continue
                if isinstance(element, ast.AST):
                    for node in evaluated_nodes(element):
                        if not isinstance(node, ast.Call):
                            continue
                        reason = self._guarded_reason(node)
                        if reason is not None:
                            yield (
                                node.lineno,
                                node.col_offset,
                                f"{reason} can execute with"
                                " self.manifest_lock() not held on some"
                                " path into this call",
                            )

    def _guarded_reason(self, call: ast.Call) -> Optional[str]:
        target = terminal_name(call.func)
        if target in self.GUARDED:
            return f"{target}() mutates manifest/segment state and"
        if target == "atomic_json" and any(
            "MANIFEST" in ast.unparse(argument) for argument in call.args
        ):
            return "the manifest write via atomic_json()"
        return None


@register
class TaintedSQLRule(Rule):
    """HL015: SQL handed to an executor is never assembled by string
    interpolation.

    The backend layer's lowering contract (``ra/to_sql.py``) renders
    every literal as a bound parameter and every identifier through the
    quoting helpers; interpolated text bypasses both.  The rule flags an
    execute call whose first argument is an f-string / ``%`` / ``+`` /
    ``.format()`` expression, and tracks taint through local variables,
    so ``query = f"..."; ...; cursor.execute(query)`` is caught even
    when the interpolation and the sink are many statements apart.
    ``ra/to_sql.py`` itself is the one sanctioned assembly point.
    """

    id = "HL015"
    name = "sql-taint"
    summary = (
        "SQL built by f-string/%/+/.format() interpolation must not reach"
        " execute/executemany/query sinks, written in the call or through"
        " variables; render through ra/to_sql.py instead"
    )
    rationale = (
        "backend pushdown lowering contract; dynamic twin: the"
        " differential oracle suite in tests/backends/"
    )

    EXECUTORS = (
        "execute",
        "executemany",
        "executescript",
        "execute_script",
        "query",
    )
    EXEMPT_MODULES = ("ra/to_sql.py",)

    def applies_to(self, module: SourceModule) -> bool:
        return module.in_package() and not module.is_module(
            *self.EXEMPT_MODULES
        )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        domain = TaintDomain()
        reported: set[ast.Call] = set()
        for func in module.functions:
            if not any(
                self._is_sink(node) for node in module.body_nodes(func)
            ):
                continue
            cfg = build_cfg(func)
            in_states = analyze(cfg, domain)
            for element, state in replay(cfg, domain, in_states):
                if not isinstance(element, ast.AST):
                    continue
                for node in evaluated_nodes(element):
                    if self._is_sink(node) and domain.taints(
                        node.args[0], state
                    ):
                        reported.add(node)
                        yield self._finding(node)
        # Sinks no function CFG evaluates (module and class bodies,
        # lambdas, unreachable code) can only be tainted by interpolation
        # written in the call itself.
        for node in module.nodes(ast.Call):
            if (
                self._is_sink(node)
                and node not in reported
                and domain.taints(node.args[0], frozenset())
            ):
                yield self._finding(node)

    def _is_sink(self, node: ast.AST) -> TypeGuard[ast.Call]:
        return (
            isinstance(node, ast.Call)
            and terminal_name(node.func) in self.EXECUTORS
            and bool(node.args)
        )

    @staticmethod
    def _finding(node: ast.Call) -> Finding:
        return (
            node.lineno,
            node.col_offset,
            "SQL built by interpolation reaches an execute sink; render"
            " through ra/to_sql.py parameterization instead",
        )


@register
class LayeringRule(Rule):
    """HL016: module-level imports respect the LAYERS contract.

    The allowed dependency set for every top-level package under
    ``repro`` is pinned in
    :data:`repro.devtools.hippoflow.layering.LAYERS`; an import that
    crosses layers the wrong way (``engine`` -> ``conflicts``, runtime
    code -> ``devtools``, ...) fails here, per file, before CI's
    whole-tree cycle check even runs.
    """

    id = "HL016"
    name = "layering"
    summary = (
        "module-level imports must respect the layer contract in"
        " repro.devtools.hippoflow.layering.LAYERS"
    )
    rationale = (
        "PR 9 import-graph analysis; whole-tree twin:"
        " `python -m repro.devtools.hippoflow.layering src/repro` in CI"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        # Imported lazily: layering doubles as a ``python -m`` CLI, and
        # a module-level import here (reached from devtools.__init__)
        # would make runpy warn about the double import on every run.
        from repro.devtools.hippoflow.layering import check_module

        package_path = module.package_path
        parts = Path(package_path).with_suffix("").parts
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        name = ".".join(("repro", *parts)) if parts else "repro"
        is_package = Path(package_path).name == "__init__.py"
        for lineno, col, message in check_module(name, module.tree, is_package):
            yield lineno, col, message
