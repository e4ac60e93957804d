"""The group store: who consumes a feed, and from where.

:class:`GroupStore` keeps one feed instance's registrations in memory;
:class:`DurableGroupStore` adds the directory and is the *only* code
that touches ``consumers/*.json`` and ``snapshots/*``::

    <dir>/consumers/<group>.json          {"group", "committed", ["topics"]}
    <dir>/snapshots/<group>.json          the same plus "payload"
    <dir>/snapshots/<group>.offsets.json  sidecar: the snapshot's offsets
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from typing import Callable, ContextManager, Iterable, Mapping, Optional

from repro.engine.feed.records import (
    TRANSFER_PREFIX,
    Contribution,
    GroupRecovery,
)
from repro.engine.feed.segments import atomic_json, check_component
from repro.errors import FeedError


class GroupStore:
    """Consumer-group registrations of one feed instance, in memory:
    group -> ``committed`` offsets and -> ``subscriptions`` (None = all
    topics); ``ephemeral`` names the anonymous groups."""

    def __init__(self) -> None:
        self.committed: dict[str, dict[str, int]] = {}
        self.subscriptions: dict[str, Optional[frozenset[str]]] = {}
        self.ephemeral: set[str] = set()
        self._transfers: dict[str, tuple[int, dict]] = {}
        self._next_anonymous = 0

    def anonymous_name(self) -> str:
        """A fresh auto-generated group name (``cursor-<n>``)."""
        name = f"cursor-{self._next_anonymous}"
        self._next_anonymous += 1
        return name

    def detach(self, group: str) -> None:
        """Drop a group's in-memory registration (durable state stays)."""
        self.committed.pop(group, None)
        self.subscriptions.pop(group, None)
        self.ephemeral.discard(group)

    def drop(self, group: str) -> None:
        """Deregister a group everywhere this store keeps it."""
        self.detach(group)

    def load_committed(self, group: str) -> Optional[dict[str, int]]:
        """Committed offsets a previous process left for ``group``."""
        return None

    def register(self, group: str) -> None:
        """A named group appeared or changed its subscription."""

    def persist(self, group: str) -> None:
        """Make the committed offsets outlive the process (here: no-op)."""

    def local_contributions(self) -> list[Contribution]:
        """One (committed, subscription) pair per group attached to this
        instance, ephemeral cursors included."""
        return [
            (committed, self.subscriptions.get(group))
            for group, committed in self.committed.items()
        ]

    def registered_floors(self) -> dict[str, GroupRecovery]:
        """Every registered group's recovery state."""
        return {
            group: GroupRecovery(
                group=group,
                committed=dict(committed),
                topics=self.subscriptions.get(group),
            )
            for group, committed in self.committed.items()
        }

    def store_snapshot(
        self,
        group: str,
        committed: Mapping[str, int],
        payload: dict,
        topics: Optional[Iterable[str]] = None,
    ) -> None:
        """Refused: there are no durable offsets to bind a payload to."""
        raise FeedError("snapshots need a durable feed")

    def load_snapshot(self, group: str) -> Optional[tuple[dict[str, int], dict]]:
        """None: no snapshot can have been stored."""
        return None

    def store_transfer(self, topic: str, cut: int, payload: dict) -> None:
        """Keep a shard-handoff transfer packet for ``topic``."""
        self._transfers[topic] = (cut, dict(payload))

    def load_transfer(self, topic: str) -> Optional[tuple[int, dict]]:
        """The pending packet for ``topic`` as ``(cut, payload)``."""
        entry = self._transfers.get(topic)
        return None if entry is None else (entry[0], dict(entry[1]))

    def clear_transfer(self, topic: str) -> None:
        """Forget ``topic``'s packet (a no-op when none exists)."""
        self._transfers.pop(topic, None)

    def transfers(self) -> dict[str, int]:
        """Pending transfer packets: topic -> handoff cut."""
        return {name: cut for name, (cut, _) in self._transfers.items()}


def _read_offsets(
    path: Path,
) -> tuple[dict[str, int], Optional[frozenset[str]]]:
    """One parse for a registration / sidecar file: its committed
    offsets plus its ``topics`` subscription (None = all)."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        offsets = {str(k): int(v) for k, v in data["committed"].items()}
    except (ValueError, KeyError) as exc:
        raise FeedError(f"corrupt consumer state {path}") from exc
    topics = data.get("topics")
    if topics is None:
        return offsets, None
    return offsets, frozenset(str(t) for t in topics)


class DurableGroupStore(GroupStore):
    """Group registrations persisted under a feed directory.

    Named groups survive restarts (``consumers/``); a group may store a
    *snapshot* -- an opaque payload bound to committed offsets, its
    recovery point once retention reclaimed the prefix it would
    otherwise replay (``snapshots/``).  Transfer packets are snapshots
    of reserved ``__transfer__.<topic>`` pseudo-groups, so the ordinary
    floor scan pins their topic for as long as they exist.  ``lock`` is
    the segment log's manifest lock.
    """

    def __init__(
        self, directory: Path, lock: Callable[[], ContextManager[None]]
    ) -> None:
        super().__init__()
        self._consumers = directory / "consumers"
        self._snapshots = directory / "snapshots"
        self._lock = lock

    def _consumer_path(self, group: str) -> Path:
        check_component("group", group)
        return self._consumers / f"{group}.json"

    def _snapshot_paths(self, group: str) -> tuple[Path, Path]:
        """(payload file, offsets sidecar) of a group's snapshot."""
        check_component("group", group)
        return (
            self._snapshots / f"{group}.json",
            self._snapshots / f"{group}.offsets.json",
        )

    def load_committed(self, group: str) -> Optional[dict[str, int]]:
        """``consumers/<group>.json``'s offsets, or None without one."""
        path = self._consumer_path(group)
        if not path.exists():
            return None
        return _read_offsets(path)[0]

    def register(self, group: str) -> None:
        """Persist the registration, serialized with reclaim's
        consumers/ scan (which runs under the same lock): a concurrent
        reclaim either sees this group's floor or completes before it
        attaches -- never in between."""
        with self._lock():
            self.persist(group)

    def persist(self, group: str) -> None:
        """Write ``consumers/<group>.json``: committed offsets, and the
        subscription when there is one."""
        path = self._consumer_path(group)
        self._consumers.mkdir(parents=True, exist_ok=True)
        payload: dict[str, object] = {
            "group": group,
            "committed": dict(self.committed[group]),
        }
        subscription = self.subscriptions.get(group)
        if subscription is not None:
            # Persist the subscription so a *foreign* process's
            # retention scan knows this group only pins these topics.
            payload["topics"] = sorted(subscription)
        atomic_json(path, payload)

    def drop(self, group: str) -> None:
        """Deregister a group in memory *and* delete its committed
        offsets and snapshot from disk."""
        self.detach(group)
        for path in (self._consumer_path(group), *self._snapshot_paths(group)):
            with contextlib.suppress(OSError):
                path.unlink()

    def registered_floors(self) -> dict[str, GroupRecovery]:
        """Every registered group's recovery state, on-disk groups of
        other processes included."""
        by_group: dict[str, GroupRecovery] = {}
        if self._consumers.exists():
            for path in sorted(self._consumers.glob("*.json")):
                offsets, topics = _read_offsets(path)
                by_group[path.stem] = GroupRecovery(
                    group=path.stem, committed=offsets, topics=topics
                )
        if self._snapshots.exists():
            for path in sorted(self._snapshots.glob("*.offsets.json")):
                group = path.name[: -len(".offsets.json")]
                offsets, topics = _read_offsets(path)
                entry = by_group.get(group)
                if entry is None:
                    entry = GroupRecovery(
                        group=group, committed={}, topics=topics
                    )
                    by_group[group] = entry
                elif topics is not None and entry.topics is None:
                    # The registration is the live subscription truth (a
                    # resubscribe rewrites it immediately; the sidecar
                    # only updates at checkpoint time).  A topic
                    # subscribed but not yet covered by the snapshot
                    # pins at 0 -- conservative until the group's next
                    # checkpoint.
                    entry.topics = topics
                # The snapshot is the group's recovery point: it
                # overrides the (>=) committed offsets.
                entry.snapshot = offsets
        for group, recovery in super().registered_floors().items():
            by_group.setdefault(group, recovery)
        return by_group

    def store_snapshot(
        self,
        group: str,
        committed: Mapping[str, int],
        payload: dict,
        topics: Optional[Iterable[str]] = None,
    ) -> None:
        """Persist ``payload`` bound to the ``committed`` offsets it
        captures.  ``topics`` overrides the subscription recorded in the
        sidecar (which otherwise comes from the group's live
        registration) -- what a pseudo-group with no live consumer, like
        a transfer packet, needs so its floor pins only the topics it
        actually covers."""
        payload_path, offsets_path = self._snapshot_paths(group)
        self._snapshots.mkdir(parents=True, exist_ok=True)
        subscription = (
            frozenset(str(t).lower() for t in topics)
            if topics is not None
            else self.subscriptions.get(group)
        )
        extra: dict[str, object] = (
            {} if subscription is None else {"topics": sorted(subscription)}
        )
        atomic_json(
            payload_path,
            {
                "group": group,
                "committed": dict(committed),
                "payload": payload,
                **extra,
            },
        )
        # A small offsets sidecar, written *after* the payload it
        # describes (a crash in between leaves the older -- lower, so
        # safe -- floor on disk): retention's floor scan reads this
        # instead of json-parsing every group's full snapshot payload.
        atomic_json(
            offsets_path,
            {"group": group, "committed": dict(committed), **extra},
        )

    def load_snapshot(self, group: str) -> Optional[tuple[dict[str, int], dict]]:
        """The group's snapshot as ``(committed offsets, payload)``, or
        None when it never stored one (FeedError when corrupt)."""
        path = self._snapshot_paths(group)[0]
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            committed = {
                str(k): int(v) for k, v in data["committed"].items()
            }
            return committed, data["payload"]
        except (ValueError, KeyError) as exc:
            raise FeedError(f"corrupt snapshot {path}") from exc

    def store_transfer(self, topic: str, cut: int, payload: dict) -> None:
        """Store the packet as the snapshot of ``__transfer__.<topic>``,
        sidecar subscribed to ``topic`` alone: the floor scan then keeps
        the suffix past ``cut`` readable while the packet exists."""
        self.store_snapshot(
            f"{TRANSFER_PREFIX}{topic}", {topic: cut}, payload, topics=(topic,)
        )

    def load_transfer(self, topic: str) -> Optional[tuple[int, dict]]:
        """The pending packet for ``topic`` as ``(cut, payload)``."""
        snapshot = self.load_snapshot(f"{TRANSFER_PREFIX}{topic}")
        if snapshot is None:
            return None
        committed, payload = snapshot
        return committed.get(topic, 0), payload

    def clear_transfer(self, topic: str) -> None:
        """Delete ``topic``'s packet, releasing its retention pin."""
        for path in self._snapshot_paths(f"{TRANSFER_PREFIX}{topic}"):
            with contextlib.suppress(OSError):
                path.unlink()

    def transfers(self) -> dict[str, int]:
        """Pending packets: topic -> handoff cut (on-disk packets of
        other processes included)."""
        pending = {}
        for group, recovery in self.registered_floors().items():
            if group.startswith(TRANSFER_PREFIX):
                name = group[len(TRANSFER_PREFIX) :]
                pending[name] = recovery.floor.get(name, 0)
        return pending
