"""FIG-1 infrastructure: per-stage costs of the Hippo pipeline.

Times Conflict Detection (runs once, before any query -- its cost is
amortized over the query stream) and hypergraph primitives, so the
experiment index can report where the time goes.
"""

from __future__ import annotations

import pytest

from repro import Database, HippoEngine
from repro.conflicts import detect_conflicts
from repro.workloads import generate_key_conflict_table

from benchmarks.common import scaled

N_TUPLES = scaled(4000, 300)
CONFLICTS = 0.05


@pytest.fixture(scope="module")
def populated():
    db = Database()
    table = generate_key_conflict_table(db, "r", N_TUPLES, CONFLICTS, seed=23)
    return db, table


@pytest.mark.benchmark(group="pipeline-stages")
def test_stage_conflict_detection(benchmark, populated):
    db, table = populated
    report = benchmark(lambda: detect_conflicts(db, [table.fd]))
    benchmark.extra_info["edges"] = len(report.hypergraph)


@pytest.mark.benchmark(group="pipeline-stages")
def test_stage_engine_construction(benchmark, populated):
    db, table = populated
    engine = benchmark(lambda: HippoEngine(db, [table.fd]))
    assert len(engine.hypergraph) > 0


@pytest.mark.benchmark(group="pipeline-stages")
def test_stage_independence_checks(benchmark, populated):
    db, table = populated
    hypergraph = detect_conflicts(db, [table.fd]).hypergraph
    vertices = list(hypergraph.conflicting_vertices())[:64]

    def run():
        for index in range(len(vertices) - 1):
            hypergraph.is_independent(vertices[index : index + 2])

    benchmark(run)
