"""Pushdown execution backends for CQA workloads.

See :mod:`repro.backends.mirror` for the protocol.  The registry here is
the single place backends are named: ``create_backend("sqlite")`` and
friends are what the CLI's ``.backend`` and the benchmarks use to
resolve a backend name.  The name
``"native"`` resolves to ``None`` -- no backend, the in-memory engine.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.backends.duckdb import DuckDBBackend, duckdb_available
from repro.backends.mirror import MirrorBackend
from repro.backends.sqlite import SQLiteBackend
from repro.engine.database import Database
from repro.errors import BackendError

#: Registry: backend name -> constructor.
BACKENDS: dict[str, Callable[[], MirrorBackend]] = {
    "sqlite": SQLiteBackend,
    "duckdb": DuckDBBackend,
}


def available_backends() -> list[str]:
    """Executor names usable right now (duckdb only when installed)."""
    names = ["native", "sqlite"]
    if duckdb_available():
        names.append("duckdb")
    return names


def create_backend(
    name: str, db: Optional[Database] = None
) -> Optional[MirrorBackend]:
    """Construct (and optionally attach) a backend by registry name;
    ``"native"`` gives None.

    Raises:
        BackendError: on an unknown name, or a backend whose driver is
            not installed.
    """
    if name.lower() == "native":
        return None
    try:
        constructor = BACKENDS[name.lower()]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r}; known: {sorted(['native', *BACKENDS])}"
        ) from None
    backend = constructor()
    if db is not None:
        backend.attach(db)
    return backend


__all__ = [
    "BACKENDS",
    "BackendError",
    "DuckDBBackend",
    "MirrorBackend",
    "SQLiteBackend",
    "available_backends",
    "create_backend",
    "duckdb_available",
]
