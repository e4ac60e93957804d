"""Sharded per-topic conflict-hypergraph maintenance.

The durable feed partitions the change stream per relation (one topic
each); replicas proved the conflict hypergraph can be rebuilt *away*
from the writer.  This module combines the two into the codebase's
first horizontal scale-out primitive: the hypergraph is maintained by a
set of **shard workers**, each a consumer group over a *subset* of the
topics, and the shards provably add up to the monolith.

The decomposition leans on a locality fact the CQA literature leans on
too (e.g. Koutris & Wijsen's first-order / logspace results for
primary-key CQA): most conflicts are confined to one relation, and a
denial constraint can only ever produce an edge among the relations its
body mentions.  So:

* :func:`plan_assignment` computes a **constraint-aware topic
  assignment**: relations co-referenced by a denial / FK constraint are
  placed on the same worker (the co-reference graph's components are
  the atomic placement units, balanced greedily across workers).  When
  an explicit assignment *does* split a constraint's relations across
  workers, the constraint is flagged **cross-shard** and assigned to a
  designated *owner* -- the worker owning its anchor relation (an FK's
  referencing side; a denial's first atom) -- which additionally
  subscribes to the foreign topics, so the cross-relation residue is
  routed explicitly instead of assumed away.

* :class:`ShardWorker` is a
  :class:`~repro.conflicts.replica.ReplicaHypergraph` over its topic
  subset: it maintains a partial database (rows only for subscribed
  relations) and a partial hypergraph via the existing
  :class:`~repro.conflicts.incremental.IncrementalDetector` machinery,
  and checkpoints its shard through :mod:`repro.engine.snapshot`
  exactly the way the writer checkpoints the whole database -- its
  retention floor pins only its subscribed topics.  A topic changes
  hands through those checkpoints too (see :meth:`ShardWorker.reshape`).

* :func:`merge_graphs` unions the shard graphs back into one view by
  adding every worker's edges to a fresh
  :class:`~repro.conflicts.hypergraph.ViolationStore` under the global
  derivation order -- the rule that made each shard graph minimal and
  labelled it also dedups and subsumes across shard boundaries.

* :class:`ShardCoordinator` is the *one* orchestrator: it owns the
  plan and the ownership map, drives the four-step topic handoff,
  rebalances, supervises, merges the shard graphs, assembles a full
  database from the workers' owned slices, and hands
  :class:`~repro.core.hippo.HippoEngine` the merged view so consistent
  query answering runs off the shards transparently.  It reaches its
  workers only through a :class:`WorkerTransport` -- requests against
  the op table :func:`serve` -- so the same state machine runs over
  in-process workers (:class:`LocalTransport`, here) and one OS process
  per worker (:class:`~repro.conflicts.executor.PipeTransport`).  Both
  start, respawn and re-adopt their workers through one routine,
  :func:`attach_worker`.

The maintained invariant -- pinned by
``tests/property/test_shard_equivalence.py`` -- is that at every
aligned committed cut the merged view equals the monolithic replica's
graph (and therefore full re-detection), including after killing a
worker and restarting it from its shard checkpoint, with every
cross-shard edge produced exactly once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Protocol,
    Sequence,
)

from repro.conflicts.detection import derivation_order
from repro.conflicts.hypergraph import ConflictHypergraph, ViolationStore
from repro.conflicts.replica import ReplicaHypergraph, ReplicaSync
from repro.constraints.denial import to_denial_constraints
from repro.constraints.foreign_key import ForeignKeyConstraint
from repro.engine.database import Database
from repro.engine.feed import SCHEMA_TOPIC, ChangeFeed, GroupRecovery
from repro.engine.snapshot import restore_database, snapshot_database
from repro.errors import ConstraintError, ExecutorError, FeedError
from repro.ra.sjud import UnionFind

if TYPE_CHECKING:
    from repro.core.hippo import HippoEngine


def constraint_relations(constraint: object) -> tuple[str, ...]:
    """The (lower-cased) relations a constraint's evaluation touches.

    The first entry is the constraint's *anchor*: the relation whose
    owning worker evaluates the constraint when its relations span
    shards (an FK's referencing side -- where the dangling singletons
    live; a denial's first atom).
    """
    if isinstance(constraint, ForeignKeyConstraint):
        return (constraint.referencing.lower(), constraint.referenced.lower())
    ordered: dict[str, None] = {}
    for denial in to_denial_constraints([constraint]):
        for atom in denial.atoms:
            ordered.setdefault(atom.relation.lower())
    return tuple(ordered)


@dataclass(frozen=True)
class ShardSpec:
    """One worker's slice of the plan.

    Attributes:
        index: worker number (0-based).
        owned: topics this worker owns (rows it is authoritative for).
        foreign: topics of *other* workers it additionally subscribes
            to, because it owns a cross-shard constraint that reads
            them.
        subscribed: the full subscription handed to the consumer group
            (owned + foreign + the ``_schema`` topic).
        constraints: the constraints this worker evaluates (original
            objects, original relative order).
        cross_shard: display labels of its cross-shard constraints.
    """

    index: int
    owned: tuple[str, ...]
    foreign: tuple[str, ...]
    subscribed: tuple[str, ...]
    constraints: tuple[object, ...]
    cross_shard: tuple[str, ...]


@dataclass
class ShardPlan:
    """A complete constraint-aware topic assignment.

    Attributes:
        shards: one :class:`ShardSpec` per worker.
        topic_owner: relation (topic) name -> owning worker index.
        constraint_names: global label order (see
            :func:`~repro.conflicts.detection.derivation_order`).
        referenced: all FK-referenced relations, passed to every worker
            so the restricted-class check stays global.
    """

    shards: tuple[ShardSpec, ...]
    topic_owner: Dict[str, int]
    constraint_names: tuple[str, ...]
    referenced: frozenset[str]

    @property
    def cross_shard(self) -> tuple[str, ...]:
        """Labels of every cross-shard constraint, worker order."""
        labels: list[str] = []
        for spec in self.shards:
            labels.extend(spec.cross_shard)
        return tuple(labels)


@dataclass(frozen=True)
class TopicResume:
    """How one :meth:`ShardWorker.reshape` acquired one new topic.

    Attributes:
        topic: the adopted topic.
        cut: the offset the worker resumed the topic from (its donor's
            snapshot cut, else 0).
        end: the topic's feed end at adoption time -- ``end - cut`` is
            the retained suffix the worker will replay through ordinary
            syncs (the "no full re-bootstrap" bound).
        mode: ``"snapshot"`` (restored from a donor's snapshot) or
            ``"replay"`` (no donor; the topic replays from offset 0).
        baseline: the worker's ``applied_records`` count for the topic
            at adoption -- subtract it later to measure exactly how
            many records the resume replayed.
    """

    topic: str
    cut: int
    end: int
    mode: str
    baseline: int


@dataclass(frozen=True)
class ShardReshape:
    """What one :meth:`ShardWorker.reshape` transition did."""

    added: tuple[TopicResume, ...]
    dropped: tuple[str, ...]


@dataclass(frozen=True)
class ShardStatus:
    """One worker's row in :meth:`ShardCoordinator.status`.

    A dead worker (its process exited, its consumer was abandoned, or
    the request failed) is reported with ``alive=False`` and its lag
    computed from the group's *registered* offsets against the feed
    end -- lagging, never silently absent."""

    index: int
    group: str
    alive: bool
    ready: bool
    lag: int
    edges: int
    owned: tuple[str, ...]
    committed: dict[str, int]
    subscribed: tuple[str, ...] = ()
    pid: Optional[int] = None
    restore_mode: str = "replay"
    applied_records: dict[str, int] = field(default_factory=dict)
    respawns: int = 0


@dataclass(frozen=True)
class WorkerEvent:
    """One supervision action: why a worker was restarted."""

    index: int
    reason: str
    respawns: int


@dataclass(frozen=True)
class HandoffReport:
    """What one :meth:`ShardCoordinator.handoff` did: the new plan plus
    each reshaped worker's :class:`ShardReshape` (the adopting entries
    carry the resume cuts for the no-re-bootstrap assertion)."""

    plan: ShardPlan
    reshapes: Dict[int, ShardReshape]


@dataclass(frozen=True)
class Ownership:
    """The topic -> worker assignment a transport may persist
    (``shards.json``).  ``group_prefix`` names the worker groups
    (``{prefix}-{index}``) so an operator view can match them exactly."""

    workers: int
    owner: dict[str, int]
    epoch: int
    group_prefix: str = "shard"


@dataclass(frozen=True)
class RebalanceMove:
    """One ownership move proposed by :func:`choose_move`."""

    topic: str
    source: int
    target: int
    skew_before: int
    skew_after: int


def choose_move(
    plan: ShardPlan,
    committed_by_worker: Sequence[Mapping[str, int]],
    ends: Mapping[str, int],
    threshold: int = 0,
    edges: Optional[Sequence[int]] = None,
) -> Optional[RebalanceMove]:
    """Deterministically pick one topic move that reduces load skew.

    A worker's load is its pending records across *owned* topics (feed
    end minus committed offset), plus its hypergraph edge count when
    ``edges`` is given -- the two skew signals the rebalance trigger
    watches.  When the heaviest and lightest workers differ by more
    than ``threshold``, the candidate moves are the heavy worker's
    owned topics; the move minimizing the resulting skew wins (ties
    break on topic name), and None is returned when the skew is within
    threshold or no single move strictly improves it.  Pure and
    deterministic.  The CLI's dry-run advisor (``.rebalance``) calls it
    without ``edges`` -- edge counts live in the workers' memory, not on
    disk -- so its advice weighs lag only, and can differ from the move
    a live :meth:`ShardCoordinator.rebalance` makes with both signals.
    """
    workers = len(plan.shards)
    if workers < 2:
        return None
    lags: list[dict[str, int]] = []
    for spec in plan.shards:
        committed = (
            committed_by_worker[spec.index]
            if spec.index < len(committed_by_worker)
            else {}
        )
        lags.append(
            {
                name: max(int(ends.get(name, 0)) - int(committed.get(name, 0)), 0)
                for name in spec.owned
            }
        )
    loads = [
        (edges[index] if edges is not None and index < len(edges) else 0)
        + sum(lags[index].values())
        for index in range(workers)
    ]
    heavy = max(range(workers), key=lambda i: (loads[i], -i))
    light = min(range(workers), key=lambda i: (loads[i], i))
    skew = loads[heavy] - loads[light]
    if heavy == light or skew <= threshold:
        return None
    best: Optional[RebalanceMove] = None
    for name in sorted(lags[heavy]):
        weight = lags[heavy][name]
        if weight <= 0:
            continue  # moving a drained topic moves no load
        moved = list(loads)
        moved[heavy] -= weight
        moved[light] += weight
        new_skew = max(moved) - min(moved)
        if new_skew < skew and (best is None or new_skew < best.skew_after):
            best = RebalanceMove(
                topic=name,
                source=heavy,
                target=light,
                skew_before=skew,
                skew_after=new_skew,
            )
    return best


def plan_assignment(
    constraints: Iterable[object],
    workers: int = 2,
    relations: Iterable[str] = (),
    assignment: Optional[Dict[str, int]] = None,
) -> ShardPlan:
    """Compute a constraint-aware topic assignment over ``workers``.

    Relations co-referenced by a constraint are kept on one worker: the
    co-reference graph's connected components are placed whole, largest
    first, each onto the currently least-loaded worker.  ``relations``
    adds topics no constraint mentions (they still need an owner);
    ``assignment`` pins relations to workers explicitly -- the operator
    override, and the way tests force a constraint across shards.  A
    pinned relation drags the unpinned remainder of its component to
    its worker; a constraint whose relations still land on different
    workers is flagged cross-shard and owned by its anchor's worker,
    which subscribes to the foreign topics.

    Raises:
        ConstraintError: on ``workers < 1``, a pinned worker index out
            of range, two spellings of one relation pinned to different
            workers, or a cyclic FK reference graph (validated
            globally here -- no single worker may see all of a
            cross-shard cycle).
    """
    if workers < 1:
        raise ConstraintError("a shard plan needs at least one worker")
    constraint_list = list(constraints)
    fks = [c for c in constraint_list if isinstance(c, ForeignKeyConstraint)]
    names = derivation_order(constraint_list)  # global acyclicity check, up front
    per_constraint = [constraint_relations(c) for c in constraint_list]

    known: dict[str, None] = {}
    for rels in per_constraint:
        for relation in rels:
            known.setdefault(relation)
    for relation in relations:
        known.setdefault(str(relation).lower())
    pinned: dict[str, int] = {}
    spelled: dict[str, str] = {}
    for relation, worker in (assignment or {}).items():
        if not 0 <= worker < workers:
            raise ConstraintError(
                f"assignment pins {relation!r} to worker {worker},"
                f" but the plan has {workers} workers"
            )
        key = str(relation).lower()
        if pinned.get(key, worker) != worker:
            raise ConstraintError(
                f"assignment pins {spelled[key]!r} to worker {pinned[key]}"
                f" and {relation!r} to worker {worker}: one relation,"
                " two workers"
            )
        known.setdefault(key)
        pinned[key] = worker
        spelled.setdefault(key, relation)

    # Union-find over co-referenced relations: components place whole.
    classes: UnionFind[str] = UnionFind()
    for rels in per_constraint:
        for other in rels[1:]:
            classes.union(rels[0], other)
    components: dict[str, list[str]] = {}
    for relation in sorted(known):
        components.setdefault(classes.find(relation), []).append(relation)

    owner: dict[str, int] = dict(pinned)
    loads = [0] * workers
    for worker in pinned.values():
        loads[worker] += 1
    for component in sorted(
        components.values(), key=lambda c: (-len(c), c[0])
    ):
        unassigned = [r for r in component if r not in owner]
        if not unassigned:
            continue
        pinned_in = [r for r in component if r in owner]
        if pinned_in:
            # A pinned member anchors the component's remainder.
            worker = owner[pinned_in[0]]
        else:
            worker = min(range(workers), key=lambda i: (loads[i], i))
        for relation in unassigned:
            owner[relation] = worker
            loads[worker] += 1

    shard_constraints: list[list[object]] = [[] for _ in range(workers)]
    shard_cross: list[list[str]] = [[] for _ in range(workers)]
    shard_foreign: list[dict[str, None]] = [{} for _ in range(workers)]
    for constraint, rels in zip(constraint_list, per_constraint):
        worker = owner[rels[0]]
        shard_constraints[worker].append(constraint)
        if len({owner[r] for r in rels}) > 1:
            shard_cross[worker].append(str(constraint))
            for relation in rels:
                if owner[relation] != worker:
                    shard_foreign[worker].setdefault(relation)
    owned: list[list[str]] = [[] for _ in range(workers)]
    for relation in sorted(owner):
        owned[owner[relation]].append(relation)
    shards = tuple(
        ShardSpec(
            index=index,
            owned=tuple(owned[index]),
            foreign=tuple(shard_foreign[index]),
            subscribed=tuple(
                dict.fromkeys(
                    [*owned[index], *shard_foreign[index], SCHEMA_TOPIC]
                )
            ),
            constraints=tuple(shard_constraints[index]),
            cross_shard=tuple(shard_cross[index]),
        )
        for index in range(workers)
    )
    return ShardPlan(
        shards=shards,
        topic_owner=owner,
        constraint_names=names,
        referenced=frozenset(fk.referenced.lower() for fk in fks),
    )


def plan_feed(
    constraints: Iterable[object],
    feed: ChangeFeed,
    workers: int,
    assignment: Optional[Dict[str, int]] = None,
) -> ShardPlan:
    """:func:`plan_assignment` over every relation topic of ``feed``,
    ``assignment`` (a persisted ownership's owners) pinned -- the plan a
    coordinator opens with and the CLI's operator views show."""
    relations = [t.name for t in feed.topics() if t.name != SCHEMA_TOPIC]
    return plan_assignment(
        constraints, workers, relations=relations, assignment=assignment
    )


def merge_graphs(
    graphs: Iterable[ConflictHypergraph], constraint_names: Sequence[str]
) -> ConflictHypergraph:
    """Union shard graphs into one minimal hypergraph.

    Every worker's edges go into one fresh
    :class:`~repro.conflicts.hypergraph.ViolationStore` ordered by
    ``constraint_names`` (the global derivation order), so a violation
    two workers derived keeps the monolith's label and a cross-shard
    superset is subsumed exactly as full detection would.
    """
    store = ViolationStore(constraint_names)
    for graph in graphs:
        for edge, label in zip(graph.edges, graph.edge_labels):
            store.add(edge, label)
    return store.graph


def _donors(
    points: Mapping[str, GroupRecovery],
    starts: Mapping[str, int],
    topic: str,
    exclude: str,
) -> list[str]:
    """The groups other than ``exclude`` that can give ``topic`` back --
    subscribed, with a still-retained snapshot cut for it -- newest cut
    first.  Reads recovery points only, never a snapshot payload."""
    cuts = {
        group: point.snapshot[topic]
        for group, point in points.items()
        if group != exclude
        and point.snapshot is not None
        and topic in point.snapshot
        and (point.topics is None or topic in point.topics)
        and point.snapshot[topic] >= starts.get(topic, 0)
    }
    return sorted(cuts, key=lambda group: (-cuts[group], group))


class ShardWorker(ReplicaHypergraph):
    """One consumer group maintaining one shard of the hypergraph.

    A :class:`~repro.conflicts.replica.ReplicaHypergraph` over the
    spec's topic subset and constraint slice: the worker's database
    carries rows only for its subscribed relations, its graph only the
    edges its constraints derive, and its checkpoints
    (:meth:`~repro.conflicts.replica.ReplicaHypergraph.checkpoint`)
    are partial snapshots bound to the shard's committed cut -- the
    worker restarts from them exactly like the writer restarts from
    its own checkpoint, and its retention floor pins only its topics.
    """

    def __init__(
        self,
        feed: ChangeFeed,
        spec: ShardSpec,
        plan: ShardPlan,
        group: Optional[str] = None,
        snapshots: bool = True,
    ) -> None:
        self.spec = spec
        super().__init__(
            feed,
            spec.constraints,
            group=group if group is not None else f"shard-{spec.index}",
            snapshots=snapshots,
            topics=spec.subscribed,
            extra_referenced=plan.referenced,
        )

    # ------------------------------------------------------------- handoff

    def reshape(self, spec: ShardSpec, plan: ShardPlan) -> ShardReshape:
        """Transition this worker to a new plan slice, in place.

        The *adopting* half of the handoff protocol: each new topic is
        restored from its newest *donor* -- another group whose snapshot
        covers it, e.g. the releaser's -- at that snapshot's cut, so
        only the retained suffix replays (no full re-bootstrap); with no
        donor it replays from offset 0.  The worker first catches up on
        what it subscribes, so the restored catalog never runs ahead of
        its ``_schema`` position.  A topic leaving the slice is let go
        (rows and retention hold released) only when its history starts
        at offset 0 or a donor exists; until then the worker keeps it
        and :meth:`ShardCoordinator.reconcile` retries.  Detection is
        rebuilt for the new constraint slice, and a checkpoint binds the
        result -- always after an adoption (making this worker the next
        donor), otherwise with ``snapshots``.

        Raises:
            FeedError: when a new topic has no donor and part of its
                history was reclaimed.
        """
        target = frozenset(
            {str(t).lower() for t in spec.subscribed} | {SCHEMA_TOPIC}
        )
        old_topics = self.topics if self.topics is not None else target
        added = sorted(target - old_topics)
        self.feed.refresh()
        starts = {t.name: t.start for t in self.feed.topics()}
        points = self.feed.recovery_points()
        kept = {
            name
            for name in old_topics - target
            if starts.get(name, 0) > 0
            and not _donors(points, starts, name, self.group)
        }
        dropped = sorted(old_topics - target - kept)
        restores: dict[str, tuple[dict[str, int], dict]] = {}
        for name in added:
            for donor in _donors(points, starts, name, self.group):
                # The donor may have checkpointed again since the scan:
                # the cut is the loaded snapshot's own.
                snapshot = self.feed.load_snapshot(donor)
                if snapshot is not None and name in snapshot[0]:
                    restores[name] = snapshot
                    break
            else:
                if starts.get(name, 0) > 0:
                    raise FeedError(
                        f"cannot adopt topic {name!r}: no other group's"
                        " snapshot covers it and its history below"
                        f" offset {starts[name]} was reclaimed"
                    )
        if added:
            # Catch up before restoring: a snapshot carries its group's
            # whole catalog, and an adopter behind on ``_schema`` would
            # replay CREATE TABLE records for tables the restore already
            # brought -- and die on each retry.
            while self.lag:
                self.sync()
        ends = self.feed.end_offsets()
        positions: dict[str, int] = {}
        resumes: list[TopicResume] = []
        for name in added:
            cut, mode = 0, "replay"
            if name in restores:
                committed, payload = restores[name]
                restore_database(self.db, payload, tables=[name], merge=True)
                cut, mode = committed[name], "snapshot"
            positions[name] = cut
            resumes.append(
                TopicResume(
                    topic=name,
                    cut=cut,
                    end=ends.get(name, 0),
                    mode=mode,
                    baseline=self.applied_records.get(name, 0),
                )
            )
        with self.db.changes.feed.suspended():
            for name in dropped:
                self._release_rows(name)
        # The resubscription is the worker's durable half of the grant:
        # from here its registration pins the new topics at their cuts
        # and no longer pins the dropped ones.
        self.topics = target | kept
        self._consumer.resubscribe(self.topics, positions)
        self.spec = spec
        self.constraints = list(spec.constraints)
        self.extra_referenced = plan.referenced
        self._mark("adopt", added[0] if added else None)
        # The constraint slice changed: rebuild detection over the new
        # partial database (cheap -- in-memory, no feed replay); it
        # stays deferred until any missing DDL replicates.
        self._plan_detection()
        self._advance()
        if added or self._snapshots:
            self.checkpoint()
        return ShardReshape(added=tuple(resumes), dropped=tuple(dropped))

    def _release_rows(self, topic: str) -> None:
        """Drop every row of a released topic's table (the schema stays
        -- it replicates via ``_schema`` for everyone)."""
        if not self.db.catalog.has_table(topic):
            return
        table = self.db.table(topic)
        for tid in list(table.tids()):
            table.delete(tid)


#: A worker's crash-phase hook: ``hook(phase, topic)``.
FaultHook = Callable[[str, Optional[str]], None]


def attach_worker(
    feed: ChangeFeed,
    spec: ShardSpec,
    plan: ShardPlan,
    group: str,
    respawn: bool = False,
    snapshots: bool = True,
    fault: Optional[FaultHook] = None,
) -> ShardWorker:
    """Attach (or re-attach) the shard worker for ``spec`` under
    ``group`` -- the one routine every transport starts, respawns and
    re-adopts workers with.

    The worker boots under the subscription its group actually has
    *registered* -- a crash mid-handoff leaves the registration ahead
    of or behind the plan -- and then reshapes to the target spec,
    adopting new topics from their donors (:meth:`ShardWorker.reshape`).
    A registered topic the group can neither replay nor restore from its
    own snapshot (it died between resubscribing and its first
    checkpoint) is first dropped from the registration, to be adopted
    again.  A respawn that needed no reshape still checkpoints (with
    ``snapshots``), re-establishing its floor.  ``fault`` is bound to
    the worker's crash-phase seam
    (:meth:`~repro.conflicts.replica.ReplicaHypergraph._mark`).

    Raises:
        FeedError: when the group's ``_schema`` history is
            unrecoverable, or a topic to adopt has neither a donor nor
            its history from offset 0.
    """
    target = frozenset(spec.subscribed)
    feed.refresh()
    point = feed.recovery_points().get(group)
    boot_topics = target
    if point is not None and point.topics is not None:
        starts = {t.name: t.start for t in feed.topics()}
        covered = point.snapshot or {}
        boot_topics = frozenset(
            name
            for name in point.topics
            if covered.get(name, 0) >= starts.get(name, 0)
        ) | {SCHEMA_TOPIC}
        if boot_topics != point.topics:
            feed.update_subscription(group, boot_topics)

    worker = ShardWorker(
        feed,
        replace(spec, subscribed=tuple(sorted(boot_topics))),
        plan,
        group=group,
        snapshots=snapshots,
    )
    if fault is not None:
        # Rebind this instance's (no-op) crash-phase seam to the hook.
        worker._mark = fault  # type: ignore[method-assign]
    if frozenset(worker.topics or ()) != target:
        worker.reshape(spec, plan)
        return worker
    worker.spec = spec
    if respawn and worker._snapshots:
        # The fresh checkpoint covers topics a crashed handoff left
        # this worker, so their releasers may let go.
        worker.checkpoint()
    return worker


def _status_payload(worker: ShardWorker) -> dict[str, Any]:
    """The worker-side fields of a :class:`ShardStatus` row."""
    return {
        "group": worker.group,
        "pid": os.getpid(),
        "ready": worker.ready,
        "lag": worker.lag,
        "edges": len(worker.graph.edges) if worker.ready else 0,
        "committed": worker.committed,
        "owned": worker.spec.owned,
        "subscribed": tuple(sorted(worker.topics or ())),
        "restore_mode": worker.restore_mode,
        "applied_records": dict(worker.applied_records),
    }


def serve(worker: ShardWorker, op: str, **payload: Any) -> Any:
    """The worker op table: what a coordinator can ask of one worker.

    Every transport dispatches here -- the local one by calling it, the
    pipe one from the worker process's control loop -- so both shapes
    run the same operations against the same :class:`ShardWorker`
    methods (looked up on the instance: the per-layer tracer shims
    ``ShardWorker.sync``).

    Raises:
        ExecutorError: for an op outside the table.
    """
    if op == "status":
        return _status_payload(worker)
    if op == "sync":
        return worker.sync(payload.get("limit"))
    if op == "drain":
        records = 0
        while worker.lag:
            records += worker.sync().records
        return records
    if op == "checkpoint":
        worker.checkpoint()
        return worker.committed
    if op == "release":
        # A handoff's releasing half: an ordinary checkpoint, pinned for
        # as long as this worker subscribes the topic.
        worker.checkpoint()
        worker._mark("release", str(payload["topic"]))
        return None
    if op == "reshape":
        return worker.reshape(payload["spec"], payload["plan"])
    if op == "graph":
        return worker.graph if worker.ready else None
    if op == "slice":
        # The rows this worker is authoritative for (foreign
        # subscriptions are read-only copies).
        return snapshot_database(worker.db, tables=worker.spec.owned)
    if op == "stop":
        worker.close()
        return None
    raise ExecutorError(f"unknown control op {op!r}")


class WorkerTransport(Protocol):
    """How a :class:`ShardCoordinator` reaches its workers.

    The coordinator never touches a worker directly: it starts one per
    plan slice, sends it ops from the :func:`serve` table, asks whether
    it is alive, kills it, and stops them all.  A transport also holds
    the coordinator-side feed handle and says whether (and where) the
    ownership map is persisted.
    """

    @property
    def feed(self) -> ChangeFeed:
        """The coordinator-side handle on the sharded feed."""

    @property
    def workers(self) -> Sequence[ShardWorker]:
        """The in-process worker objects, by index (empty when the
        workers live in other processes)."""

    def ownership(self) -> Optional[Ownership]:
        """The persisted ownership map, or None when this transport
        keeps none (then the constructor arguments seed the plan)."""

    def grant(self, ownership: Ownership) -> None:
        """Commit ``ownership`` -- the handoff's step 2.  Must be
        atomic and durable where the transport persists it at all."""

    def start(
        self, spec: ShardSpec, plan: ShardPlan, group: str, respawn: bool = False
    ) -> None:
        """Start (or, after a death, re-attach) worker ``spec.index``
        from its group's durable state."""

    def request(self, index: int, op: str, **payload: Any) -> Any:
        """Run one :func:`serve` op on a worker and return its value.

        Raises:
            ExecutorError: when the worker is dead, dies or hangs
                mid-request, or (out of process) the op failed.
        """

    def alive(self, index: int) -> bool:
        """Whether the worker is running and responsive."""

    def kill(self, index: int) -> str:
        """Kill the worker *without* deregistering its group -- the
        registration (offsets, subscription, retention floor) survives
        as after a crash.  Idempotent; returns why the worker is down
        (the supervision event's reason)."""

    def stop(self) -> None:
        """Stop every worker cleanly (each checkpoints and detaches)
        and release what the transport itself opened."""


class LocalTransport:
    """Workers as :class:`ShardWorker` objects in this process, all
    attached to the caller's feed instance (never closed here -- the
    caller owns it).  Persists no ownership map: the in-process shape
    leaves nothing on disk beyond the workers' own registrations."""

    def __init__(self, feed: ChangeFeed, snapshots: bool = True) -> None:
        self.feed = feed
        self.workers: list[ShardWorker] = []
        self._snapshots = snapshots

    def ownership(self) -> Optional[Ownership]:
        """None: nothing is persisted, the constructor seeds the plan."""
        return None

    def grant(self, ownership: Ownership) -> None:
        """A no-op: the coordinator's in-memory plan swap is the commit."""

    def start(
        self, spec: ShardSpec, plan: ShardPlan, group: str, respawn: bool = False
    ) -> None:
        """Attach the worker in this process (:func:`attach_worker`)."""
        worker = attach_worker(
            self.feed, spec, plan, group, respawn, snapshots=self._snapshots
        )
        if spec.index < len(self.workers):
            self.workers[spec.index] = worker
        else:
            self.workers.append(worker)

    def request(self, index: int, op: str, **payload: Any) -> Any:
        """Run the op synchronously; worker-side errors propagate as
        raised.

        Raises:
            ExecutorError: when the worker was killed.
        """
        if not self.alive(index):
            raise ExecutorError(f"worker {index} is dead (cannot serve {op!r})")
        return serve(self.workers[index], op, **payload)

    def alive(self, index: int) -> bool:
        """Whether the worker's consumer is still attached."""
        return not self.workers[index]._consumer.closed

    def kill(self, index: int) -> str:
        """Abandon the worker's consumer -- abandoned, not closed: the
        registration survives exactly as if a process had been killed,
        so a failed re-attach still shows the group lagging instead of
        vanishing.  (In-memory feeds have no registration to resume
        from; there the consumer deregisters and a restart replays from
        the beginning.)"""
        consumer = self.workers[index]._consumer
        if self.feed.durable:
            consumer.abandon()
        else:
            consumer.close()
        return "abandoned"

    def stop(self) -> None:
        """Close every worker; the caller's feed stays open."""
        for worker in self.workers:
            serve(worker, "stop")


class ShardCoordinator:
    """Plans the assignment, runs the workers, merges the shards.

    Args:
        feed: the feed to shard over -- typically a *reader*
            :class:`~repro.engine.feed.ChangeFeed` instance on the
            writer's directory (the coordinator never closes it; the
            caller owns it).  All workers attach to this instance under
            their own consumer groups.
        constraints: the full constraint set (split across workers by
            the plan).
        workers: number of shard workers.
        assignment: explicit relation -> worker pinning (see
            :func:`plan_assignment`).
        group_prefix: consumer groups are named ``{prefix}-{index}``.
        snapshots: forwarded to every worker.

    This constructor runs the workers in-process (a
    :class:`LocalTransport`);
    :class:`~repro.conflicts.executor.ProcessShardExecutor` builds the
    same coordinator over one OS process per worker.  Either way it
    returns once every worker bootstrapped and was reconciled with the
    plan (finishing a handoff a crashed previous run left in flight).
    """

    def __init__(
        self,
        feed: ChangeFeed,
        constraints: Iterable[object],
        workers: int = 2,
        assignment: Optional[Dict[str, int]] = None,
        group_prefix: str = "shard",
        snapshots: bool = True,
    ) -> None:
        self._open(
            LocalTransport(feed, snapshots),
            constraints,
            workers,
            assignment,
            group_prefix,
        )

    def _open(
        self,
        transport: WorkerTransport,
        constraints: Iterable[object],
        workers: int,
        assignment: Optional[Dict[str, int]],
        group_prefix: str,
    ) -> None:
        self.transport = transport
        self.feed = transport.feed
        self.constraints = list(constraints)
        self._closed = False
        try:
            self.feed.refresh()
            # A persisted map -- not the constructor arguments -- is
            # authoritative on re-attach; topics discovered since are
            # assigned around it.
            persisted = transport.ownership()
            seed = persisted or Ownership(
                workers, dict(assignment or {}), 0, group_prefix
            )
            self.group_prefix, self.epoch = seed.group_prefix, seed.epoch
            self.plan = plan_feed(
                self.constraints, self.feed, seed.workers, seed.owner
            )
            self._respawns = [0] * seed.workers
            if persisted is None or persisted.owner != self.plan.topic_owner:
                transport.grant(self._ownership(self.plan, self.epoch))
            for spec in self.plan.shards:
                transport.start(spec, self.plan, self._group(spec.index))
            # Waits for every worker, then retries what a releaser could
            # not let go while its adopter was still starting.
            self.reconcile()
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Stop every worker (checkpointing durable shards).  A feed the
        caller passed in stays open -- the caller owns it."""
        if not self._closed:
            self._closed = True
            self.transport.stop()

    def _group(self, index: int) -> str:
        return f"{self.group_prefix}-{index}"

    def _ownership(self, plan: ShardPlan, epoch: int) -> Ownership:
        return Ownership(
            workers=len(plan.shards),
            owner=dict(plan.topic_owner),
            epoch=epoch,
            group_prefix=self.group_prefix,
        )

    def _each(self, op: str, **payload: Any) -> list[Any]:
        """One request per worker, in index order; the values."""
        return [
            self.transport.request(spec.index, op, **payload)
            for spec in self.plan.shards
        ]

    # ------------------------------------------------------------- running

    @property
    def workers(self) -> Sequence[ShardWorker]:
        """The in-process worker objects (see
        :attr:`WorkerTransport.workers`)."""
        return self.transport.workers

    @property
    def lag(self) -> int:
        """Feed records pending across all shards (dead workers
        included, from their registered offsets)."""
        return sum(row.lag for row in self.status())

    @property
    def graph(self) -> ConflictHypergraph:
        """The merged shard view, rebuilt from the shard graphs *now*.

        Never cached: each access re-merges (see :func:`merge_graphs`),
        so worker syncs, retractions and cross-boundary resurrections
        are always reflected; workers whose detection is still deferred
        (constraint tables not replicated yet) contribute nothing.
        Callers wanting a stable view across several reads should bind
        the property once.
        """
        return merge_graphs(
            (graph for graph in self._each("graph") if graph is not None),
            self.plan.constraint_names,
        )

    def sync(self, limit: Optional[int] = None) -> list[ReplicaSync]:
        """One bounded sync per worker (round-robin fairness)."""
        return self._each("sync", limit=limit)

    def drain(self) -> int:
        """Sync every worker until its lag is zero; returns records
        consumed.  After a drain the shards sit at an *aligned* cut --
        the precondition for comparing the merged view against a
        monolith (the writer must be quiescent and flushed).

        Raises:
            ExecutorError: when a worker is dead or hangs -- run
                :meth:`supervise` and retry.
        """
        return sum(self._each("drain"))

    def checkpoint(self) -> None:
        """Checkpoint every worker's shard at its committed cut."""
        self._each("checkpoint")

    def status(self) -> list[ShardStatus]:
        """Live per-worker status, dead workers included.

        A worker that died somewhere between applying records,
        committing and checkpointing must show up *lagging* (its
        group's registered offsets against the feed end), never
        silently absent or caught-up-at-zero: an operator reading this
        view decides what to restart from it.
        """
        rows: list[ShardStatus] = []
        for spec in self.plan.shards:
            index = spec.index
            try:
                live = self.transport.request(index, "status")
            except ExecutorError:
                rows.append(self._dead_status(spec))
                continue
            rows.append(
                ShardStatus(
                    index=index,
                    alive=True,
                    respawns=self._respawns[index],
                    **live,
                )
            )
        return rows

    def _dead_status(self, spec: ShardSpec) -> ShardStatus:
        """Status for a dead worker from its group's *registered*
        state (what it subscribed and committed before it died)."""
        group = self._group(spec.index)
        self.feed.refresh()
        point = self.feed.recovery_points().get(group) or GroupRecovery(
            group, {}, topics=frozenset(spec.subscribed)
        )
        return ShardStatus(
            index=spec.index,
            group=group,
            alive=False,
            ready=False,
            lag=point.lag(self.feed.end_offsets()),
            edges=0,
            owned=spec.owned,
            committed=dict(point.committed),
            subscribed=tuple(sorted(point.topics or ())),
            respawns=self._respawns[spec.index],
        )

    # ------------------------------------------------------------- handoff

    def handoff(
        self,
        topic: str,
        to: int,
        on_step: Optional[Callable[[str], None]] = None,
    ) -> HandoffReport:
        """Move ``topic``'s ownership to worker ``to``, live.

        The four-step protocol (each step leaves a recoverable state;
        ``on_step`` is called after each with its name -- the chaos
        suite's hook for killing the pipeline mid-handoff):

        1. ``released`` -- the owning worker checkpoints: its group
           snapshot holds the topic at its committed cut, pinned for as
           long as it subscribes the topic (it keeps serving).
        2. ``granted``  -- the coordinator commits the new ownership:
           the plan swap, which the transport persists where it keeps
           an ownership manifest.  The commit point.
        3. ``adopted``  -- workers gaining topics resubscribe: restore
           the newest snapshot covering each topic, pin their floors at
           its cut, re-detect, checkpoint.
        4. ``pruned``   -- workers losing topics resubscribe away (each
           topic once someone else can give it back, see
           :meth:`ShardWorker.reshape`), then drifted workers reconcile.

        Constraints follow their anchor relations: the new plan is
        recomputed with the full ownership map pinned, so cross-shard
        flags, foreign subscriptions and each worker's constraint slice
        all move consistently.  A worker death at any step converges
        after :meth:`supervise`: the registrations carry each worker's
        durable half, and restarted workers reconcile against the
        committed plan.

        Raises:
            ConstraintError: for an unknown topic or worker index.
            ExecutorError: when a worker died mid-protocol (supervise
                and re-check; the handoff itself needs no retry once
                ``granted`` was reached).
        """
        name = str(topic).lower()
        count = len(self.plan.shards)
        if name not in self.plan.topic_owner:
            raise ConstraintError(f"unknown topic {name!r}")
        if not 0 <= to < count:
            raise ConstraintError(
                f"worker {to} out of range (plan has {count} workers)"
            )
        reshapes: Dict[int, ShardReshape] = {}
        if self.plan.topic_owner[name] != to:
            assignment = dict(self.plan.topic_owner)
            assignment[name] = to
            new_plan = plan_assignment(
                self.constraints, count, assignment=assignment
            )
            reshapes = self._transition(new_plan, on_step or (lambda step: None))
        return HandoffReport(plan=self.plan, reshapes=reshapes)

    def rebalance(self, threshold: int = 0) -> Optional[RebalanceMove]:
        """Trigger at most one ownership move when per-worker load skew
        (pending records over owned topics, plus hypergraph edge
        counts, from live status) exceeds ``threshold``.  Returns the
        move made, or None when the shards are balanced (see
        :func:`choose_move`)."""
        rows = self.status()
        self.feed.refresh()
        move = choose_move(
            self.plan,
            [row.committed for row in rows],
            self.feed.end_offsets(),
            threshold=threshold,
            edges=[row.edges for row in rows],
        )
        if move is not None:
            self.handoff(move.topic, move.target)
        return move

    def _transition(
        self, new_plan: ShardPlan, on_step: Callable[[str], None]
    ) -> Dict[int, ShardReshape]:
        """Drive every worker from the current plan to ``new_plan``
        through the handoff protocol (see :meth:`handoff`)."""
        old_plan = self.plan
        old_subs = [frozenset(spec.subscribed) for spec in old_plan.shards]
        new_subs = [frozenset(spec.subscribed) for spec in new_plan.shards]
        needed: set[str] = set()
        for old, new in zip(old_subs, new_subs):
            needed |= new - old
        needed.discard(SCHEMA_TOPIC)
        # 1) Release: the worker currently serving each topic someone
        #    must acquire checkpoints it -- its snapshot is the donor.
        for name in sorted(needed):
            releaser = old_plan.topic_owner.get(name)
            if releaser is not None and name in old_subs[releaser]:
                self.transport.request(releaser, "release", topic=name)
        on_step("released")
        # 2) Grant: the ownership commit.
        self.transport.grant(self._ownership(new_plan, self.epoch + 1))
        self.epoch += 1
        self.plan = new_plan
        on_step("granted")
        # 3) Adopt before 4) prune: an adopter's checkpoint makes it a
        #    donor, so the releasers can let go.
        adopters = [
            spec.index
            for spec in new_plan.shards
            if new_subs[spec.index] - old_subs[spec.index]
        ]
        reshapes: Dict[int, ShardReshape] = {}
        for index in adopters:
            reshapes[index] = self._reshape(index)
        on_step("adopted")
        for spec in new_plan.shards:
            if spec.index not in adopters and spec != old_plan.shards[spec.index]:
                reshapes[spec.index] = self._reshape(spec.index)
        self.reconcile()
        on_step("pruned")
        return reshapes

    def _reshape(self, index: int) -> ShardReshape:
        """Move one worker onto its slice of the current plan."""
        return self.transport.request(
            index, "reshape", spec=self.plan.shards[index], plan=self.plan
        )

    # ---------------------------------------------------------- supervisor

    def kill(self, index: int) -> None:
        """Kill one worker as a crash would (the chaos suite's
        coordinator-side kill switch).  Its group registration
        survives, so it shows up lagging in :meth:`status` until
        :meth:`supervise` or :meth:`restart` brings it back."""
        self.transport.kill(index)

    def restart(self, index: int) -> WorkerEvent:
        """Kill one worker and re-attach it from its durable state: the
        group's snapshot / committed cut, then forward through the
        retained suffix -- cost proportional to what it missed.  The
        kill leaves the registration in place, so if the re-attach
        itself fails the group still shows up lagging in
        :meth:`status` and the ``.feed`` view instead of vanishing."""
        reason = self.transport.kill(index)
        self._respawns[index] += 1
        self.transport.start(
            self.plan.shards[index], self.plan, self._group(index), respawn=True
        )
        return WorkerEvent(index, reason, self._respawns[index])

    def supervise(self) -> list[WorkerEvent]:
        """One supervision pass: restart every worker that is dead or
        hung, then reconcile survivors whose subscriptions drifted from
        the plan (a handoff that died mid-protocol).  Returns the
        actions taken."""
        events: list[WorkerEvent] = []
        for spec in self.plan.shards:
            if not self.transport.alive(spec.index):
                events.append(self.restart(spec.index))
        if events:
            self.reconcile()
        return events

    def reconcile(self) -> list[int]:
        """Reshape live workers whose subscription drifted from the
        plan: the survivors of a handoff that died mid-protocol, and
        releasers still holding a topic nobody else could give back
        yet.  Returns the reshaped worker indexes."""
        reshaped: list[int] = []
        for row in self.status():
            target = tuple(sorted(self.plan.shards[row.index].subscribed))
            # A dead worker is left to the next supervise pass.
            if row.alive and row.subscribed != target:
                self._reshape(row.index)
                reshaped.append(row.index)
        return reshaped

    # ------------------------------------------------------------ querying

    def database(self) -> Database:
        """Assemble one full database from the workers' owned slices.

        Each worker is authoritative for the rows of its *owned* topics
        (foreign subscriptions are read-only copies), so restoring each
        owned slice into one target -- schemas merged, rows disjoint,
        tids preserved -- reproduces the primary at the aligned cut.
        Call after :meth:`drain`.
        """
        db = Database()
        for owned_slice in self._each("slice"):
            restore_database(db, owned_slice, merge=True)
        return db

    def engine(self, **kwargs: object) -> HippoEngine:
        """A :class:`~repro.core.hippo.HippoEngine` answering from the
        shards: the assembled database plus the merged hypergraph
        (handed over as precomputed detection, so the engine never
        re-detects).  Consistent-query answering then runs the paper's
        pipeline transparently over shard state."""
        from repro.core.hippo import HippoEngine

        return HippoEngine(
            self.database(), self.constraints, hypergraph=self.graph, **kwargs
        )
