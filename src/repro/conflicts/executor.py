"""One OS process per shard worker: the pipe transport.

:class:`~repro.conflicts.shard.ShardCoordinator` owns the whole shard
protocol -- plan, handoff, rebalance, status, supervision -- and reaches
its workers through a
:class:`~repro.conflicts.shard.WorkerTransport`.  This module is the
out-of-process implementation of that seam: :class:`PipeTransport` runs
each :class:`~repro.conflicts.shard.ShardWorker` in its own
``multiprocessing`` process (spawn-safe: workers attach to the durable
feed *by directory path* and rebuild everything from disk) and carries
the coordinator's requests over a small control-message protocol:

* **Heartbeats** -- each worker periodically sends a beat over its
  pipe; the parent drains them opportunistically while waiting for
  replies.  A live process silent past the timeout counts as hung.
* **Requests** -- the ops of :func:`~repro.conflicts.shard.serve`,
  matched to replies by request id.  ``reshape`` carries the pickled
  :class:`~repro.conflicts.shard.ShardSpec` /
  :class:`~repro.conflicts.shard.ShardPlan`, so ownership grants ride
  the same channel.

**Ownership.**  The transport persists the coordinator's topic ->
worker assignment in ``shards.json`` inside the feed directory (atomic
write, fsync before rename).  The persisted map -- not the constructor
arguments -- is authoritative on re-attach, and writing it is the
*commit point* of the handoff protocol (see
:meth:`~repro.conflicts.shard.ShardCoordinator.handoff`).  A worker's
own durable half is its consumer-group registration: resubscribing pins
the adopted topic at the handoff cut, so retention floors follow
ownership automatically.

**Respawn.**  A worker process attaches through
:func:`~repro.conflicts.shard.attach_worker`, the routine the
in-process transport uses too: it recovers like every other feed
participant (:func:`~repro.engine.database.recover_database`: its group
snapshot plus the retained suffix, cost proportional to what it missed)
under the subscription its group actually has on disk (a crash
mid-handoff leaves the registration ahead of or behind the plan; a
registered topic its own snapshot cannot restore is dropped from it),
then reshapes to the plan's spec, adopting each new topic from the
newest other group's snapshot that covers it.  A worker lets a topic go
only once such a snapshot exists, so processes that start concurrently
-- a re-created executor mid-handoff -- never strand one.  Every crash
point of the handoff protocol therefore converges to the planned state
after one :meth:`~repro.conflicts.shard.ShardCoordinator.supervise`
pass.

**Fault injection.**  ``fault_hooks`` hands a worker process a callable
bound to its crash-phase seam
(:meth:`~repro.conflicts.replica.ReplicaHypergraph._mark`: ``apply``
after records hit the database but before the offset commit,
``checkpoint`` just before the snapshot store, ``release`` / ``adopt``
inside the handoff) -- ``tests/chaos/`` uses it to SIGKILL a worker at
a named phase.  Parent-side kill points (before/after the ownership
commit) use :meth:`~repro.conflicts.shard.ShardCoordinator.kill` from a
handoff ``on_step`` callback instead.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional

from repro.conflicts.shard import (
    FaultHook,
    Ownership,
    ShardCoordinator,
    ShardPlan,
    ShardSpec,
    ShardWorker,
    attach_worker,
    serve,
)
from repro.engine.feed import ChangeFeed, atomic_json
from repro.errors import ExecutorError

#: The ownership manifest inside the feed directory.
OWNERSHIP_FILE = "shards.json"
#: Worker heartbeat cadence, seconds.
HEARTBEAT_INTERVAL = 0.25
#: Parent-side deadline per control request, seconds (covers bootstrap:
#: the first request blocks until the worker finishes attaching).
REQUEST_TIMEOUT = 60.0
#: Records per bounded worker sync between control-channel polls.
SYNC_LIMIT = 512


def load_ownership(directory: str | os.PathLike) -> Optional[Ownership]:
    """The persisted ownership manifest under ``directory``, or None
    when no process executor ever ran there.  A manifest written before
    the group prefix was recorded loads with the default ``"shard"``.

    Raises:
        ExecutorError: when the manifest is corrupt.
    """
    path = Path(directory) / OWNERSHIP_FILE
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        return Ownership(
            workers=int(data["workers"]),
            owner={str(k): int(v) for k, v in data["owner"].items()},
            epoch=int(data.get("epoch", 0)),
            group_prefix=str(data.get("group_prefix", "shard")),
        )
    except (ValueError, KeyError) as exc:
        raise ExecutorError(f"corrupt ownership manifest {path}") from exc


def store_ownership(directory: str | os.PathLike, ownership: Ownership) -> None:
    """Atomically persist the ownership manifest (fsync before rename:
    the grant must never be half-visible to a re-attaching executor)."""
    atomic_json(
        Path(directory) / OWNERSHIP_FILE,
        {
            "workers": ownership.workers,
            "owner": dict(sorted(ownership.owner.items())),
            "epoch": ownership.epoch,
            "group_prefix": ownership.group_prefix,
        },
    )


# --------------------------------------------------------------- worker side


def _handle(worker: ShardWorker, conn: Connection, message: dict) -> bool:
    """Serve one control message; returns False after ``stop``."""
    reply: dict[str, Any] = {"kind": "reply", "id": message.pop("id")}
    op = message.pop("op")
    try:
        conn.send({**reply, "ok": True, "value": serve(worker, op, **message)})
    except Exception as exc:
        conn.send({**reply, "ok": False, "error": f"{type(exc).__name__}: {exc}"})
    return op != "stop"


def _serve_loop(worker: ShardWorker, conn: Connection) -> None:
    """The worker loop: control messages, bounded syncs, heartbeats."""
    last_beat = 0.0
    while True:
        while conn.poll(0):
            if not _handle(worker, conn, conn.recv()):
                return
        sync = worker.sync(SYNC_LIMIT)
        now = time.monotonic()
        if sync.records or now - last_beat >= HEARTBEAT_INTERVAL:
            conn.send({"kind": "heartbeat"})
            last_beat = now
        if not sync.records and sync.lag == 0:
            # Idle: block on the control channel instead of spinning.
            conn.poll(HEARTBEAT_INTERVAL)


def _worker_main(
    directory: str,
    spec: ShardSpec,
    plan: ShardPlan,
    group: str,
    conn: Connection,
    fault: Optional[FaultHook],
    respawn: bool,
) -> None:
    """Entry point of one shard worker process (spawn-safe: everything
    it needs arrives as arguments; state rebuilds from the feed
    directory)."""
    feed = ChangeFeed(directory)
    try:
        worker = attach_worker(feed, spec, plan, group, respawn, fault=fault)
        conn.send({"kind": "heartbeat"})
        _serve_loop(worker, conn)
    except (EOFError, BrokenPipeError):
        return  # the parent went away; nothing to report to
    except Exception as exc:
        with contextlib.suppress(OSError, ValueError):
            conn.send(
                {"kind": "fatal", "error": f"{type(exc).__name__}: {exc}"}
            )
        raise SystemExit(1) from exc
    finally:
        feed.close()


# --------------------------------------------------------------- parent side


@dataclass
class _WorkerHandle:
    process: BaseProcess
    conn: Connection
    last_beat: float = field(default_factory=time.monotonic)


class PipeTransport:
    """Each worker in its own OS process, reached over a pipe.

    The :class:`~repro.conflicts.shard.WorkerTransport` whose workers
    attach to the durable feed directory with their own reader
    instances; it persists the ownership map in ``shards.json`` and
    owns (and closes) the coordinator-side feed handle.
    """

    #: No worker object lives in this process.
    workers: tuple[ShardWorker, ...] = ()

    def __init__(
        self,
        directory: str | os.PathLike,
        mp_context: str,
        heartbeat_timeout: float,
        fault_hooks: Mapping[int, FaultHook],
    ) -> None:
        self.directory = Path(directory)
        self.heartbeat_timeout = heartbeat_timeout
        self._fault_hooks = dict(fault_hooks)
        self._ctx = multiprocessing.get_context(mp_context)
        self._next_request = 0
        self._handles: dict[int, _WorkerHandle] = {}
        self.feed = ChangeFeed(self.directory)

    def ownership(self) -> Optional[Ownership]:
        return load_ownership(self.directory)

    def grant(self, ownership: Ownership) -> None:
        store_ownership(self.directory, ownership)

    def start(
        self, spec: ShardSpec, plan: ShardPlan, group: str, respawn: bool = False
    ) -> None:
        previous = self._handles.get(spec.index)
        if previous is not None:
            previous.conn.close()
        parent_conn, child_conn = self._ctx.Pipe()
        # Fault hooks arm the first spawn only: respawns come up clean,
        # so a kill schedule terminates.
        fault = None if respawn else self._fault_hooks.get(spec.index)
        process = self._ctx.Process(
            target=_worker_main,
            args=(str(self.directory), spec, plan, group, child_conn, fault, respawn),
            name=group,
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._handles[spec.index] = _WorkerHandle(process, parent_conn)

    def request(self, index: int, op: str, **payload: Any) -> Any:
        """Send one control request and wait for its reply, draining
        heartbeats (and stale replies of timed-out requests) on the
        way.  The first request to a worker blocks until it finished
        attaching, so the deadline also covers bootstrap.

        Raises:
            ExecutorError: when the worker is dead, dies mid-request,
                reports a failure, or the deadline passes.
        """
        handle = self._handles[index]
        ident = self._next_request
        self._next_request += 1
        try:
            handle.conn.send({"id": ident, "op": op, **payload})
        except (BrokenPipeError, OSError) as exc:
            raise ExecutorError(
                f"worker {index} is dead (cannot send {op!r})"
            ) from exc
        deadline = time.monotonic() + REQUEST_TIMEOUT
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ExecutorError(f"worker {index} timed out on {op!r}")
            try:
                ready = handle.conn.poll(min(remaining, 0.1))
                message = handle.conn.recv() if ready else None
            except (EOFError, OSError) as exc:
                raise ExecutorError(
                    f"worker {index} died during {op!r}"
                    f" (exit {handle.process.exitcode})"
                ) from exc
            if message is None:
                if not handle.process.is_alive():
                    raise ExecutorError(
                        f"worker {index} died during {op!r}"
                        f" (exit {handle.process.exitcode})"
                    )
                continue
            kind = message.get("kind")
            if kind == "heartbeat":
                handle.last_beat = time.monotonic()
                continue
            if kind == "fatal":
                raise ExecutorError(
                    f"worker {index} failed: {message.get('error')}"
                )
            if kind == "reply" and message.get("id") == ident:
                if not message.get("ok"):
                    raise ExecutorError(
                        f"worker {index} {op!r} failed: {message.get('error')}"
                    )
                return message.get("value")
            # A stale reply for an earlier timed-out request: drop it.

    def _drain_heartbeats(self, handle: _WorkerHandle) -> bool:
        """Non-blocking heartbeat drain (the supervisor's read path).
        Returns False when the pipe hit EOF -- the worker is gone even
        if the kernel has not reaped the process yet."""
        while True:
            try:
                if not handle.conn.poll(0):
                    return True
                message = handle.conn.recv()
            except (EOFError, OSError):
                return False
            if message.get("kind") == "heartbeat":
                handle.last_beat = time.monotonic()

    def _hung(self, handle: _WorkerHandle) -> bool:
        return time.monotonic() - handle.last_beat > self.heartbeat_timeout

    def alive(self, index: int) -> bool:
        handle = self._handles[index]
        return (
            self._drain_heartbeats(handle)
            and handle.process.is_alive()
            and not self._hung(handle)
        )

    def kill(self, index: int) -> str:
        handle = self._handles[index]
        if not handle.process.is_alive():
            return f"exit:{handle.process.exitcode}"
        hung = self._hung(handle)
        handle.process.kill()
        handle.process.join(5)
        return "heartbeat-timeout" if hung else f"exit:{handle.process.exitcode}"

    def stop(self) -> None:
        """Ask every live worker to stop (each checkpoints and
        detaches), killing those that refuse within the request
        timeout, then close the parent's feed handle."""
        for index in sorted(self._handles):
            handle = self._handles[index]
            if handle.process.is_alive():
                try:
                    self.request(index, "stop")
                except ExecutorError:
                    handle.process.kill()
            handle.process.join(5)
            handle.conn.close()
        self._handles.clear()
        self.feed.close()


class ProcessShardExecutor(ShardCoordinator):
    """The :class:`~repro.conflicts.shard.ShardCoordinator` over a
    :class:`PipeTransport`: one OS process per shard worker, with the
    coordinator's supervision, live topic handoff and lag-driven
    rebalancing.  Only the constructor differs -- every protocol method
    is the coordinator's.

    Args:
        directory: the durable feed directory; workers attach to it by
            path with their own reader instances.
        constraints: the full constraint set.
        workers: worker-process count.  Ignored when ``shards.json``
            already exists in the directory -- the persisted ownership
            (its worker count and group prefix included) is
            authoritative on re-attach; a fresh directory's groups are
            ``shard-<index>``.
        assignment: initial relation -> worker pinning (see
            :func:`~repro.conflicts.shard.plan_assignment`); ignored on
            re-attach for the same reason.
        mp_context: ``"spawn"`` (default; the production shape) or
            ``"fork"`` (cheap starts for respawn-heavy test schedules).
        heartbeat_timeout: a live process silent this long is declared
            hung, SIGKILLed and respawned by ``supervise()``.
        fault_hooks: ``{worker index: hook(phase, topic)}``, each a
            picklable callable bound to that worker's crash-phase seam
            at first spawn only (respawns come up clean).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        constraints: Iterable[object],
        workers: int = 2,
        assignment: Optional[Dict[str, int]] = None,
        mp_context: str = "spawn",
        heartbeat_timeout: float = 10.0,
        fault_hooks: Optional[Mapping[int, FaultHook]] = None,
    ) -> None:
        self._open(
            PipeTransport(
                directory,
                mp_context,
                heartbeat_timeout,
                fault_hooks or {},
            ),
            constraints,
            workers,
            assignment,
            "shard",
        )
