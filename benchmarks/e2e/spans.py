"""Span shims: per-layer attribution recorded from outside the program.

A *layer* is a module path under ``src/repro/``.  :func:`install`
replaces, for every entry in :data:`SHIMS`, the binding the caller uses
-- a class attribute, or the name a ``from x import f`` left in the
calling module -- with a wrapper that pushes a frame on the tracer's
span stack, runs the original and, on the way out, credits

    self time = duration - time covered by child spans

to its layer for the current operation.  Calls made once per candidate
or per row (``hot`` shims) are only aggregated per operation; every
other call is also kept as a full span ``(op, id, parent, layer, start,
end)`` in memory and written out when the run ends.

The shims live here, not in ``src/``: spans inside the program are a
later change (ROADMAP, "one instrumentation spine").
"""

from __future__ import annotations

import importlib
import json
import os
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterator, Optional

_HIPPO = "repro.core.hippo"
_REWRITE = "repro.rewriting.rewrite"
_DATABASE = "repro.engine.database"
_STORAGE = "repro.engine.storage"
_FEED = "repro.engine.feed"
_MEMBERSHIP = "repro.core.membership"
_MIRROR = "repro.backends.mirror"
_SHARD = "repro.conflicts.shard"

#: layer -> (hot, bindings); a binding is (module, owner class or None,
#: attribute).  Hot layers are entered once per candidate or per row.
_TABLE: tuple[tuple[str, bool, tuple[tuple[str, Optional[str], str], ...]], ...] = (
    # SQL text -> AST -> SJUD tree -> plan
    (
        "sql.parse",
        False,
        (
            (_HIPPO, None, "parse_query"),
            (_REWRITE, None, "parse_query"),
            (_DATABASE, None, "parse_statement"),
        ),
    ),
    (
        "ra.sjud",
        False,
        ((_HIPPO, None, "from_sql_query"), (_REWRITE, None, "from_sql_query")),
    ),
    (
        "engine.planner.plan",
        False,
        (("repro.engine.planner", "Planner", "plan_query"),),
    ),
    # envelope evaluation
    (
        "core.envelope.eval",
        False,
        (("repro.core.envelope", "Enveloper", "evaluate"),),
    ),
    (
        "ra.compile.eval",
        False,
        (
            ("repro.core.envelope", None, "evaluate_core"),
            (_HIPPO, None, "evaluate_tree"),
        ),
    ),
    ("engine.columnar.rebuild", False, ((_STORAGE, None, "ColumnStore"),)),
    # per-candidate work
    (
        "core.grounding.formula",
        True,
        (("repro.core.grounding", "GroundQuery", "formula_for"),),
    ),
    (
        "core.membership",
        True,
        (
            # provenance_hints lives in core/envelope.py but is the
            # per-candidate priming of the membership resolver.
            (_HIPPO, None, "provenance_hints"),
            (_MEMBERSHIP, "ProvenanceMembership", "some_vertex"),
            (_MEMBERSHIP, "ProvenanceMembership", "all_vertices"),
            (_MEMBERSHIP, "CachedMembership", "some_vertex"),
            (_MEMBERSHIP, "CachedMembership", "all_vertices"),
        ),
    ),
    (
        "core.prover",
        True,
        (("repro.core.prover", "Prover", "is_consistent_answer"),),
    ),
    # the pipeline itself, and keeping its hypergraph current
    (
        "core.hippo",
        False,
        (
            (_HIPPO, "HippoEngine", "consistent_answers"),
            (_HIPPO, "HippoEngine", "raw_answers"),
        ),
    ),
    (
        "core.hippo.sync",
        False,
        ((_HIPPO, "HippoEngine", "_sync"), (_HIPPO, "HippoEngine", "refresh")),
    ),
    (
        "conflicts.incremental.apply",
        False,
        (("repro.conflicts.incremental", "IncrementalDetector", "apply_records"),),
    ),
    (
        "conflicts.detection.full",
        False,
        (
            (_HIPPO, None, "detect_conflicts"),
            ("repro.conflicts.replica", None, "detect_conflicts"),
        ),
    ),
    # statement execution
    ("engine.database.execute", False, ((_DATABASE, "Database", "execute"),)),
    ("engine.database.insert", False, ((_DATABASE, "Database", "_execute_insert"),)),
    ("engine.database.delete", False, ((_DATABASE, "Database", "_execute_delete"),)),
    ("engine.database.update", False, ((_DATABASE, "Database", "_execute_update"),)),
    ("engine.database.select", False, ((_DATABASE, "Database", "_execute_select"),)),
    (
        "engine.storage.mutate",
        True,
        (
            (_STORAGE, "Table", "insert"),
            (_STORAGE, "Table", "delete"),
            (_STORAGE, "Table", "update"),
        ),
    ),
    (
        "engine.feed.publish",
        True,
        (("repro.engine.changelog", "ChangeLog", "record"),),
    ),
    # durability and replication
    ("engine.feed.flush", False, ((_FEED, "ChangeFeed", "flush"),)),
    (
        "engine.feed.poll",
        False,
        ((_FEED, "ChangeFeed", "refresh"), (_FEED, "FeedConsumer", "poll")),
    ),
    ("engine.feed.commit", False, ((_FEED, "FeedConsumer", "commit"),)),
    ("engine.database.checkpoint", False, ((_DATABASE, "Database", "checkpoint"),)),
    (
        "engine.database.restore",
        False,
        ((_DATABASE, "Database", "_restore_from_feed"),),
    ),
    (
        "conflicts.replica.sync",
        False,
        (("repro.conflicts.replica", "ReplicaHypergraph", "sync"),),
    ),
    (
        # ShardWorker inherits sync from ReplicaHypergraph: the shim goes
        # on the subclass, so shard and replica time stay apart.
        "conflicts.shard.drain",
        False,
        ((_SHARD, "ShardWorker", "sync"), (_SHARD, "ShardCoordinator", "drain")),
    ),
    # rewriting and pushdown
    (
        "rewriting.rewrite",
        False,
        (
            (_REWRITE, "RewritingEngine", "consistent_answers"),
            (_REWRITE, "RewritingEngine", "rewrite"),
        ),
    ),
    ("ra.to_sql.render", False, ((_MIRROR, None, "render_query"),)),
    ("backends.mirror.sync", False, ((_MIRROR, "MirrorBackend", "sync"),)),
    (
        "backends.mirror.rebuild",
        False,
        ((_MIRROR, "MirrorBackend", "_rebuild_mirror"),),
    ),
    (
        "backends.sqlite.exec",
        False,
        (
            (_MIRROR, "MirrorBackend", "execute_query"),
            (_MIRROR, "MirrorBackend", "_run"),
        ),
    ),
)

#: (module, owner class or None, attribute, layer, hot), flattened.
SHIMS = tuple(
    (module, owner, attribute, layer, hot)
    for layer, hot, bindings in _TABLE
    for module, owner, attribute in bindings
)

LAYERS = tuple(layer for layer, _hot, _bindings in _TABLE) + (
    "workloads.generate",
)

#: layer -> what one call amounted to, from its arguments and result
#: (counts the generic shim cannot see from timing alone).
PROBES: dict[str, Callable[[tuple, object], int]] = {
    # IncrementalDetector.apply_records(records) -> DeltaStats
    "conflicts.incremental.apply": lambda args, result: result.deltas,
    # MirrorBackend._rebuild_mirror(conn, table)
    "backends.mirror.rebuild": lambda args, result: len(args[2]),
}

_MISSING = object()


class Tracer:
    """A span stack with per-operation self-time aggregation.

    One operation (:meth:`op`) is the root span; shims and
    :meth:`span` nest below it.  Finished operations are kept as
    ``{"op", "kind", "phase", "start", "end", "root_self", "layers":
    {layer: [calls, self ns, amount]}}`` and non-hot spans as tuples,
    all in memory until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.stack: list[list[int]] = []  # [layer index, child ns, span id]
        self.ops: list[dict] = []
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.fsyncs = 0
        self.phase = "setup"
        #: the machine slowdown the workload sampled for the current round
        self.slowdown = 1.0
        self._index = {layer: i for i, layer in enumerate(LAYERS)}
        self._next_span = 0
        self._op_id = -1
        self._installed: list[tuple[object, str, object]] = []
        self._real_fsync: Optional[Callable[[int], None]] = None
        self._reset()

    def _reset(self) -> None:
        self._calls = [0] * len(LAYERS)
        self._self_ns = [0] * len(LAYERS)
        self._amount = [0] * len(LAYERS)

    # ------------------------------------------------------------- spans

    def _enter(self, layer_index: int, hot: bool) -> list[int]:
        span_id = -1
        if not hot:
            span_id = self._next_span
            self._next_span += 1
        frame = [layer_index, 0, span_id]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list[int], started: int, ended: int) -> None:
        stack = self.stack
        stack.pop()
        duration = ended - started
        parent = -1
        if stack:
            above = stack[-1]
            above[1] += duration
            parent = above[2]
        index = frame[0]
        self._self_ns[index] += duration - frame[1]
        self._calls[index] += 1
        if frame[2] >= 0:
            self.spans.append(
                (self._op_id, frame[2], parent, LAYERS[index], started, ended)
            )

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """A span opened by the benchmark's own code (around the workload
        generators, which nothing in ``src/`` calls)."""
        frame = self._enter(self._index[layer], False)
        started = perf_counter_ns()
        try:
            yield
        finally:
            self._exit(frame, started, perf_counter_ns())

    @contextmanager
    def op(self, kind: str) -> Iterator[None]:
        """The root span of one operation."""
        self._op_id += 1
        self._reset()
        root = [-1, 0, -1]
        self.stack.append(root)
        started = perf_counter_ns()
        try:
            yield
        finally:
            ended = perf_counter_ns()
            self.stack.pop()
            self.ops.append(
                {
                    "op": self._op_id,
                    "kind": kind,
                    "phase": self.phase,
                    "slowdown": self.slowdown,
                    "start": started,
                    "end": ended,
                    "root_self": ended - started - root[1],
                    "layers": {
                        LAYERS[i]: [calls, self._self_ns[i], self._amount[i]]
                        for i, calls in enumerate(self._calls)
                        if calls
                    },
                }
            )

    # ------------------------------------------------------------- shims

    def _wrap(self, original: Callable, layer: str, hot: bool) -> Callable:
        index = self._index[layer]
        enter, leave = self._enter, self._exit
        probe = PROBES.get(layer)

        def shim(*args: object, **kwargs: object) -> object:
            frame = enter(index, hot)
            started = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                leave(frame, started, perf_counter_ns())

        def probed_shim(*args: object, **kwargs: object) -> object:
            result = shim(*args, **kwargs)
            self._amount[index] += probe(args, result)  # type: ignore[misc]
            return result

        chosen = shim if probe is None else probed_shim
        chosen.__span_shim__ = True  # type: ignore[attr-defined]
        return chosen

    def install(self) -> None:
        """Patch every binding in :data:`SHIMS`, and ``os.fsync``."""
        if self._installed:
            raise RuntimeError("span shims are already installed")
        for module_name, owner_name, attribute, layer, hot in SHIMS:
            owner = _owner(module_name, owner_name)
            original = getattr(owner, attribute)
            # A subclass that only inherits the attribute gets an entry of
            # its own; uninstall deletes it again instead of freezing the
            # inherited function onto the subclass.
            own = vars(owner).get(attribute, _MISSING)
            setattr(owner, attribute, self._wrap(original, layer, hot))
            self._installed.append((owner, attribute, own))
        real_fsync = self._real_fsync = os.fsync

        def counting_fsync(fd: int) -> None:
            self.fsyncs += 1
            real_fsync(fd)

        counting_fsync.__span_shim__ = True  # type: ignore[attr-defined]
        os.fsync = counting_fsync

    def uninstall(self) -> None:
        """Restore every patched binding; idempotent."""
        while self._installed:
            owner, attribute, own = self._installed.pop()
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
        if self._real_fsync is not None:
            os.fsync = self._real_fsync
            self._real_fsync = None

    # ------------------------------------------------------------ output

    def dump(self, path: str) -> None:
        """Write operations and spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.ops:
                handle.write(json.dumps({"type": "op", **record}) + "\n")
            for op, span_id, parent, layer, start, end in self.spans:
                span = {
                    "type": "span",
                    "op": op,
                    "id": span_id,
                    "parent": parent,
                    "layer": layer,
                    "start": start,
                    "end": end,
                }
                handle.write(json.dumps(span) + "\n")


def _owner(module_name: str, owner_name: Optional[str]) -> object:
    module = importlib.import_module(module_name)
    return module if owner_name is None else getattr(module, owner_name)


def shims_present() -> list[str]:
    """Bindings that currently hold a shim (empty when none is installed)."""
    found = [
        f"{module_name}:{owner_name or ''}.{attribute}"
        for module_name, owner_name, attribute, _layer, _hot in SHIMS
        if hasattr(getattr(_owner(module_name, owner_name), attribute), "__span_shim__")
    ]
    if hasattr(os.fsync, "__span_shim__"):
        found.append("os.fsync")
    return found
