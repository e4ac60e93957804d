"""The native backend: today's planner / plan executor behind the seam.

This is the reference implementation every other backend is measured
against (the *differential oracle*): SJUD trees, SELECT ASTs and
residual joins all reach the engine's one planner (trees and joins via
:mod:`repro.ra.compile`).  It needs no mirroring -- it reads the
attached database's storage directly.
"""

from __future__ import annotations

from repro.backends.base import Backend, BackendCapabilities
from repro.errors import BackendError, ReproError
from repro.ra.compile import compile_core, evaluate_tree
from repro.ra.sjud import SJUDCore, SJUDTree
from repro.sql import ast

_CAPABILITIES = BackendCapabilities(
    param_style="qmark", pushes_sql=False, requires_sync=False
)


class NativeBackend(Backend):
    """Execute on the in-memory engine (the reference oracle)."""

    name = "native"

    @property
    def capabilities(self) -> BackendCapabilities:
        """Plan-object execution; no mirroring."""
        return _CAPABILITIES

    def execute_tree(self, tree: SJUDTree) -> frozenset[tuple]:
        """Evaluate via :func:`repro.ra.compile.evaluate_tree`."""
        return evaluate_tree(tree, self.db)

    def execute_query(
        self, query: ast.Query
    ) -> tuple[tuple[str, ...], list[tuple]]:
        """Plan and run the SELECT on the native engine.

        Raises:
            BackendError: when the native engine rejects the query.
        """
        try:
            result = self.db.execute_statement(ast.SelectStatement(query))
        except ReproError as exc:
            raise BackendError(f"native execution failed: {exc}") from exc
        return tuple(result.columns), list(result.rows)

    def residual_join(self, core: SJUDCore) -> list[tuple[int, ...]]:
        """Compile the constraint body and read its tid rows."""
        node = compile_core(core, self.db)
        seen: set[tuple[int, ...]] = set()
        rows: list[tuple[int, ...]] = []
        for row in node.rows(()):
            tids = tuple(row)
            if tids not in seen:
                seen.add(tids)
                rows.append(tids)
        return rows
