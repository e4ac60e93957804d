"""Execution statistics.

The paper's optimizations are *about* avoiding work on the RDBMS side
(membership queries, envelope re-evaluation), so the engine counts the
operations the Hippo layer cares about.  Benchmarks report these counters
alongside wall-clock time, the way the demonstration compares approaches.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields


@dataclass
class ExecutionStats:
    """Mutable counters shared by a :class:`~repro.engine.database.Database`.

    Attributes:
        rows_scanned: rows produced by base-table scans.
        point_lookups: exact-row membership lookups (the Prover's
            "membership queries" in the paper's base system).
        statements: SQL statements executed.
        subquery_evaluations: correlated-subquery executions.
        subquery_cache_hits: correlated-subquery results served from cache.
        backend_pushdowns: statements a pushdown backend executed
            (routed SELECTs, pushed rewritten queries and residual
            joins alike).
        backend_fallbacks: pushdowns a backend declined
            (:class:`~repro.errors.BackendError`) that fell back to
            native execution -- routed SELECTs, rewritten queries,
            residual joins and raw-answer trees alike.
    """

    rows_scanned: int = 0
    point_lookups: int = 0
    statements: int = 0
    subquery_evaluations: int = 0
    subquery_cache_hits: int = 0
    backend_pushdowns: int = 0
    backend_fallbacks: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        for counter in fields(self):
            setattr(self, counter.name, 0)

    def snapshot(self) -> dict[str, int]:
        """Copy the counters into a plain dict (for reports)."""
        return asdict(self)
