"""Backend fixtures: the two mirror layouts, both on stdlib SQLite.

A mirror carries native tids either in the engine's ``rowid`` (the
SQLite backend) or in an explicit leading ``_tid`` column (the DuckDB
backend, whose ``rowid`` cannot be assigned).  :class:`ExplicitTidSQLite`
is SQLite with DuckDB's layout, so every layout-dependent path -- the
rebuild's extra column, residual joins over ``_tid``, feed deltas that
delete by ``_tid`` -- runs in tier-1 whether or not duckdb is installed.
"""

from __future__ import annotations

from typing import Callable, Optional

import pytest

from repro.backends import MirrorBackend, SQLiteBackend, create_backend
from repro.engine.database import Database


class ExplicitTidSQLite(SQLiteBackend):
    """SQLite with tids in an explicit leading ``_tid`` column."""

    name = "sqlite-explicit-tid"
    tid_column = "_tid"
    tid_is_rowid = False


#: Layout name -> backend class.
MIRROR_LAYOUTS = {"rowid": SQLiteBackend, "explicit-tid": ExplicitTidSQLite}


def _make_backend(name: str, db: Optional[Database] = None) -> MirrorBackend:
    if name == ExplicitTidSQLite.name:
        backend: MirrorBackend = ExplicitTidSQLite()
        if db is not None:
            backend.attach(db)
        return backend
    created = create_backend(name, db)
    assert created is not None, name
    return created


@pytest.fixture(scope="session")
def make_backend() -> Callable[..., MirrorBackend]:
    """``create_backend`` that also knows ``"sqlite-explicit-tid"``."""
    return _make_backend


@pytest.fixture(scope="module", params=sorted(MIRROR_LAYOUTS))
def mirror_class(request) -> type:
    """Each mirror layout's backend class in turn."""
    return MIRROR_LAYOUTS[request.param]
