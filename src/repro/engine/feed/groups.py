"""The group store: who consumes a feed, and from where.

:class:`GroupStore` keeps one feed instance's registrations in memory,
plus the latest snapshot of each attached named group (forgotten when
the group detaches); :class:`DurableGroupStore` adds the directory and
is the *only* code that touches ``consumers/*.json`` and
``snapshots/*``::

    <dir>/consumers/<group>.json          {"group", "committed", ["topics"]}
    <dir>/snapshots/<group>.json          the same plus "payload"
    <dir>/snapshots/<group>.offsets.json  sidecar: the snapshot's offsets
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from typing import Callable, ContextManager, Mapping, Optional

from repro.engine.feed.records import Contribution, GroupRecovery
from repro.engine.feed.segments import atomic_json, check_component
from repro.errors import FeedError


class GroupStore:
    """Consumer-group registrations of one feed instance, in memory:
    group -> ``committed`` offsets and -> ``subscriptions`` (None = all
    topics); ``ephemeral`` names the anonymous groups.  An attached
    named group's latest snapshot lives here until it detaches: it is a
    shard handoff's donor, never a retention floor (memory retention
    follows the committed offsets alone)."""

    def __init__(self) -> None:
        self.committed: dict[str, dict[str, int]] = {}
        self.subscriptions: dict[str, Optional[frozenset[str]]] = {}
        self.ephemeral: set[str] = set()
        self._snapshots: dict[str, tuple[dict[str, int], dict]] = {}
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
        self._snapshots.pop(group, None)

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
                snapshot=(
                    dict(self._snapshots[group][0])
                    if group in self._snapshots
                    else None
                ),
                topics=self.subscriptions.get(group),
            )
            for group, committed in self.committed.items()
        }

    def store_snapshot(
        self, group: str, committed: Mapping[str, int], payload: dict
    ) -> None:
        """Keep ``payload`` as ``group``'s snapshot, bound to the
        ``committed`` offsets it captures.

        Raises:
            FeedError: for an ephemeral group, or one not attached here.
        """
        if group in self.ephemeral or group not in self.committed:
            raise FeedError(
                f"snapshots need an attached named group, not {group!r}"
            )
        self._snapshots[group] = (dict(committed), payload)

    def load_snapshot(self, group: str) -> Optional[tuple[dict[str, int], dict]]:
        """The group's snapshot as ``(committed offsets, payload)``, or
        None when it stored none since it attached."""
        entry = self._snapshots.get(group)
        return None if entry is None else (dict(entry[0]), entry[1])


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
    otherwise replay (``snapshots/``).  ``lock`` is the segment log's
    manifest lock.
    """

    def __init__(
        self, directory: Path, lock: Callable[[], ContextManager[None]]
    ) -> None:
        super().__init__()
        self._consumers = directory / "consumers"
        self._snapshot_dir = directory / "snapshots"
        self._lock = lock

    def _consumer_path(self, group: str) -> Path:
        check_component("group", group)
        return self._consumers / f"{group}.json"

    def _snapshot_paths(self, group: str) -> tuple[Path, Path]:
        """(payload file, offsets sidecar) of a group's snapshot."""
        check_component("group", group)
        return (
            self._snapshot_dir / f"{group}.json",
            self._snapshot_dir / f"{group}.offsets.json",
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
        if self._snapshot_dir.exists():
            for path in sorted(self._snapshot_dir.glob("*.offsets.json")):
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
        self, group: str, committed: Mapping[str, int], payload: dict
    ) -> None:
        """Persist ``payload`` bound to the ``committed`` offsets it
        captures; the sidecar records the group's live subscription."""
        payload_path, offsets_path = self._snapshot_paths(group)
        self._snapshot_dir.mkdir(parents=True, exist_ok=True)
        subscription = self.subscriptions.get(group)
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
