"""Conflict detection (full and incremental) and the conflict hypergraph."""

from repro.conflicts.detection import DetectionReport, detect_conflicts, violations_of
from repro.conflicts.executor import (
    ProcessShardExecutor,
    load_ownership,
    store_ownership,
)
from repro.conflicts.hypergraph import (
    ConflictHypergraph,
    Vertex,
    minimal_edges,
    vertex,
)
from repro.conflicts.incremental import DeltaStats, IncrementalDetector
from repro.conflicts.replica import ReplicaHypergraph, ReplicaSync
from repro.conflicts.shard import (
    HandoffReport,
    Ownership,
    RebalanceMove,
    ShardCoordinator,
    ShardPlan,
    ShardReshape,
    ShardSpec,
    ShardStatus,
    ShardWorker,
    TopicResume,
    WorkerEvent,
    choose_move,
    merge_graphs,
    plan_assignment,
)

__all__ = [
    "DetectionReport",
    "detect_conflicts",
    "violations_of",
    "ProcessShardExecutor",
    "load_ownership",
    "store_ownership",
    "ConflictHypergraph",
    "Vertex",
    "minimal_edges",
    "vertex",
    "DeltaStats",
    "IncrementalDetector",
    "ReplicaHypergraph",
    "ReplicaSync",
    "HandoffReport",
    "Ownership",
    "RebalanceMove",
    "ShardCoordinator",
    "ShardPlan",
    "ShardReshape",
    "ShardSpec",
    "ShardStatus",
    "ShardWorker",
    "TopicResume",
    "WorkerEvent",
    "choose_move",
    "merge_graphs",
    "plan_assignment",
]
