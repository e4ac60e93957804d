"""Exception hierarchy for the repro (Hippo) package.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch one type to handle any library failure.  The hierarchy
mirrors the layering of the system: SQL frontend errors, engine (execution)
errors, relational-algebra errors, constraint errors, and errors from the
consistent-query-answering core.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class SQLError(ReproError):
    """Base class for errors raised by the SQL frontend."""


class LexerError(SQLError):
    """Raised when the SQL lexer encounters an unrecognised character.

    Attributes:
        position: zero-based offset of the offending character.
    """

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(SQLError):
    """Raised when the SQL parser cannot derive a statement."""


class CatalogError(ReproError):
    """Raised for unknown / duplicate tables or columns in the catalog."""


class SchemaError(ReproError):
    """Raised for schema violations (arity, typing, duplicate columns)."""


class TypeError_(ReproError):
    """Raised when an expression is applied to values of the wrong type.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class ExecutionError(ReproError):
    """Raised when a plan fails at run time (e.g. division by zero)."""


class PlanError(ReproError):
    """Raised when the planner cannot produce a plan for an AST."""


class FeedError(ReproError):
    """Raised for change-feed failures: corrupt segments or manifests,
    unretained history, or invalid consumer state."""


class FeedRetentionError(FeedError):
    """Raised when requested feed offsets are no longer retained
    (in-memory overflow, or durable retention truncation/compaction).

    Distinguished from other :class:`FeedError` cases because it is the
    one failure consumers can recover from mechanically: rebuild derived
    state from the live database (or a snapshot) instead of the log.
    """


class ExecutorError(ReproError):
    """Raised when a shard worker cannot serve a request: it is dead,
    it died or hung mid-request, or the op failed on the worker side.
    Reserved for worker failures -- bad *input* to the coordinator
    (an unknown topic, a worker index out of range) raises
    :class:`ConstraintError`.  Dead workers are respawnable: callers
    seeing this error should run a supervision pass and retry."""


class AlgebraError(ReproError):
    """Raised for malformed relational-algebra expressions."""


class UnsupportedQueryError(ReproError):
    """Raised when a query falls outside the class Hippo supports.

    Hippo (EDBT 2004) computes consistent answers to SJUD queries -- built
    from selection, cartesian product / join, union and difference -- plus
    projections that do not introduce existential quantifiers.  Queries
    outside that class (general projection, aggregation, ...) raise this
    error with a message explaining which construct is unsupported, because
    consistent query answering for them is co-NP-data-complete (Arenas et
    al., TCS 2003; Chomicki & Marcinkowski, 2005).
    """


class ConstraintError(ReproError):
    """Raised for malformed integrity constraints."""


class RewritingError(ReproError):
    """Raised when the PODS'99 query-rewriting baseline is not applicable."""


class BackendError(ReproError):
    """Raised when an execution backend cannot honour a pushdown request.

    Covers driver-level failures (connection lost, dialect rejection),
    SQL the backend cannot lower, and sync failures while mirroring
    relations.  ``MirrorBackend.pushdown`` is its one handler: it
    counts the decline and runs the native engine instead.
    """
