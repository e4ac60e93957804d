"""The harness's own arithmetic.  Not part of tier-1:

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import ledger
import spans
from dmlgen import DmlGenerator

HERE = Path(__file__).resolve().parent


# ------------------------------------------------------------- percentiles


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert ledger.percentile(samples, 95) == 95
    assert ledger.percentile(samples, 50) == 50
    assert ledger.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        ledger.percentile([], 95)


@pytest.mark.parametrize(
    "count, expected",
    [
        (200, 95.0),  # exactly ten samples beyond
        (1000, 95.0),
        (199, 100.0 * 189 / 199),  # one short: the highest p with ten beyond
        (60, 100.0 * 50 / 60),
        (20, 50.0),  # ten beyond the median, none to spare
        (5, 50.0),
    ],
)
def test_picker_keeps_ten_samples_beyond(count, expected):
    p = ledger.pick_percentile(count)
    assert p == pytest.approx(expected)
    if count > 2 * ledger.TAIL_SUPPORT:
        assert count - math.ceil(count * p / 100.0) >= ledger.TAIL_SUPPORT


def test_tail_reports_the_percentile_it_used():
    assert ledger.tail(list(range(400)))[0] == 95.0
    p, value = ledger.tail(list(range(40)))
    assert p == 75.0 and value == 29


# ------------------------------------------------------------------ blocks


def test_block_median_is_per_block_throughput():
    blocks = [(10, 1.0), (10, 2.0), (10, 0.5), (10, 1.0), (10, 4.0)]
    assert ledger.block_median(blocks) == 10.0
    # an empty block (no time spent) is skipped, not divided by
    assert ledger.block_median([(0, 0.0), (6, 2.0)]) == 3.0


def test_class_median_mean_weighs_every_class_once():
    by_class = {"fast": [1.0, 1.0, 1.0, 1.0, 50.0], "slow": [9.0, 11.0, 10.0]}
    assert ledger.class_median_mean(by_class) == 5.5


# ------------------------------------------------------------------- spans


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "perf_counter_ns", clock)
    tracer = spans.Tracer()
    tracer.phase = "measure"
    with tracer.op("query:x"):
        clock.now = 5  # 5 ns in the root before any layer
        with tracer.span("core.hippo"):
            clock.now = 15
            with tracer.span("core.prover"):
                clock.now = 45
                with tracer.span("core.membership"):
                    clock.now = 55
                clock.now = 60
            clock.now = 70
            with tracer.span("core.prover"):
                clock.now = 90
            clock.now = 105
        clock.now = 110
    (op,) = tracer.ops
    assert op["end"] - op["start"] == 110
    assert op["root_self"] == 10  # 5 before + 5 after the hippo span
    assert op["layers"] == {
        "core.hippo": [1, 100 - 45 - 20, 0],
        "core.prover": [2, (45 - 10) + 20, 0],
        "core.membership": [1, 10, 0],
    }
    total = op["root_self"] + sum(ns for _n, ns, _a in op["layers"].values())
    assert total == 110  # self times partition the operation
    # full spans carry their parent: membership -> prover -> hippo -> root
    parents = {span[1]: span[2] for span in tracer.spans}
    by_layer = {span[3]: span[1] for span in tracer.spans}
    assert parents[by_layer["core.membership"]] in parents
    assert parents[by_layer["core.hippo"]] == -1


def test_operations_do_not_leak_into_each_other(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "perf_counter_ns", clock)
    tracer = spans.Tracer()
    for length in (10, 30):
        with tracer.op("batch"):
            with tracer.span("engine.feed.flush"):
                clock.now += length
    assert [op["layers"]["engine.feed.flush"][1] for op in tracer.ops] == [10, 30]
    assert not tracer.stack


# ------------------------------------------------------------------- shims


def test_shims_install_and_uninstall_round_trip():
    from repro.conflicts.replica import ReplicaHypergraph
    from repro.conflicts.shard import ShardWorker
    from repro.engine.database import Database

    assert spans.shims_present() == []
    originals = (Database.execute, ReplicaHypergraph.sync)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert len(spans.shims_present()) == len(spans.SHIMS) + 1  # + os.fsync
        assert Database.execute is not originals[0]
        # the subclass gets its own shim, so shard time stays apart
        assert "sync" in vars(ShardWorker)
        assert ShardWorker.sync is not ReplicaHypergraph.sync
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert spans.shims_present() == []
    assert (Database.execute, ReplicaHypergraph.sync) == originals
    assert "sync" not in vars(ShardWorker)
    tracer.uninstall()  # idempotent


def test_shimmed_calls_are_attributed_and_probed():
    from repro import Database

    tracer = spans.Tracer()
    tracer.install()
    try:
        db = Database()
        with tracer.op("setup"):
            db.execute("CREATE TABLE t (a INTEGER, b0 INTEGER)")
            db.execute("INSERT INTO t VALUES (1, 2)")
    finally:
        tracer.uninstall()
    layers = tracer.ops[0]["layers"]
    assert layers["engine.database.execute"][0] == 2
    assert layers["engine.database.insert"][0] == 1
    assert layers["engine.storage.mutate"][0] == 1
    assert layers["sql.parse"][0] == 2
    assert db.execute("SELECT * FROM t").rows == [(1, 2)]


# ----------------------------------------------------------------- compare

# Metrics of the test's own, so the ledger's bounds can move freely.
OP_MS = ledger.Metric("op_ms", "ms", "lower", 0.10, None, "a latency")
RATE = ledger.Metric("ops_per_s", "1/s", "higher", 0.10, None, "a throughput")


def test_worsening_follows_the_metric_direction():
    assert ledger.worsening(OP_MS, 100.0, 112.0) == pytest.approx(0.12)
    assert ledger.worsening(OP_MS, 100.0, 90.0) == pytest.approx(-0.10)
    assert ledger.worsening(RATE, 100.0, 88.0) == pytest.approx(0.12)


def test_judge_tells_regression_from_noise():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert ledger.judge(OP_MS, steady, [v * 1.05 for v in steady]) == "ok"
    assert ledger.judge(OP_MS, steady, [v * 1.20 for v in steady]) == "regressed"
    assert ledger.judge(OP_MS, steady, [v * 0.50 for v in steady]) == "ok"
    noisy = [80.0, 100.0, 125.0, 90.0, 140.0]
    assert ledger.judge(OP_MS, steady, noisy) == "unresolved"
    assert ledger.judge(RATE, steady, [v * 0.80 for v in steady]) == "regressed"


def test_exact_metrics_fail_on_any_worsening():
    exact = ledger.METRICS["log_bytes_per_stmt"]
    assert ledger.judge(exact, [137.0, 137.0], [137.0, 137.0]) == "ok"
    assert ledger.judge(exact, [137.0, 137.0], [137.5, 137.5]) == "regressed"
    assert ledger.judge(exact, [137.0, 137.0], [120.0, 120.0]) == "ok"


def _result_set(op_ms, fingerprint=None):
    run = {"metrics": {m.name: 1.0 for m in ledger.END_TO_END}}
    run["metrics"]["op_ms"] = op_ms
    return {
        "fingerprint": fingerprint or {"cpu": "x", "nproc": 2, "python": "3.11.7"},
        "seed": 11,
        "sizes": {"mixed_rw": {"n": 3000}},
        "workloads": {"mixed_rw": [run, run]},
    }


def test_compare_walks_only_applicable_pairs_and_refuses_other_machines():
    rows, refusal = ledger.compare(_result_set(10.0), _result_set(14.0))
    assert refusal is None
    verdicts = {(w, m): v for w, m, v, _old, _new in rows}
    assert verdicts[("mixed_rw", "op_ms")] == "regressed"
    assert verdicts[("mixed_rw", "dml_ms")] == "ok"
    assert ("mixed_rw", "recovery_s") not in verdicts  # not its metric
    other = {"cpu": "y", "nproc": 2, "python": "3.11.7"}
    rows, refusal = ledger.compare(_result_set(10.0), _result_set(10.0, other))
    assert rows == [] and "fingerprint" in refusal


def test_spread_uses_quartiles_when_it_can():
    assert ledger.spread([10.0]) == 0.0
    assert ledger.spread([9.0, 11.0]) == pytest.approx(0.2)
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert ledger.spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


# ---------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_matches_the_ledger():
    with open(HERE.parents[1] / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    assert set(declared) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in declared["workloads"]] == list(ledger.WORKLOADS)
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in ledger.DRIVER_METRICS
    ]
    assert declared["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in ledger.PER_LAYER
    ]
    assert any(m["name"] == "setup_s" for m in declared["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


# ----------------------------------------------------------- DML generator


def test_dml_stream_is_single_row_and_stationary():
    from repro import Database
    from repro.workloads import generate_key_conflict_table

    db = Database()
    generate_key_conflict_table(db, "r", 400, 0.05, seed=3)
    rows = [(row[0], row[1]) for row in db.table("r").rows()]
    dml = DmlGenerator(3, {"r": (rows, 1_000_000)})
    start_rate = dml.conflict_rate()
    texts = set()
    for _ in range(1500):
        kind, sql = dml.next()
        assert db.execute(sql).rowcount == 1, sql
        texts.add(sql)
    assert len(texts) == 1500  # every text new to the statement cache
    assert len(db.table("r")) == 400 == dml.row_count()
    assert abs(dml.conflict_rate() - start_rate) <= 2 * 2 / 400
    first, second = (DmlGenerator(3, {"r": (rows, 1_000_000)}) for _ in range(2))
    assert [first.next() for _ in range(50)] == [second.next() for _ in range(50)]
