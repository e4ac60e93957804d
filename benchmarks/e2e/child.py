"""One workload, measured in one fresh process.

``run.py`` starts this file once per workload with ``PYTHONHASHSEED=0``
and reads the single JSON object it prints.  Untraced, the process does

    oracle gate -> set-up x3 (median is setup_s; the last one is kept)
    -> gc.collect() -> five timed blocks, a block gate after each
    -> cross-path gate -> (dml_replicated) recovery cycles

Traced (``--trace 1``), it installs the span shims *first*, so set-up is
attributed too, keeps them through the blocks, then removes them -- the
removal is asserted -- and runs a short untraced reference phase on the
same state; ``trace.overhead_ratio`` compares the two.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Optional

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
# The program under test is the checkout this file sits in, never an
# installed copy.
sys.path.insert(0, str(HERE.parents[1] / "src"))

from ledger import (  # noqa: E402
    METRICS,
    PER_LAYER,
    block_median,
    class_median_mean,
    tail,
)
from scenarios import (  # noqa: E402
    SIZES,
    SMOKE_SIZES,
    WORKLOAD_CLASSES,
    Recorder,
    machine_slowdown,
)
from spans import Tracer, shims_present  # noqa: E402

BLOCKS = 5
SETUPS = 3
#: Traced runs spend this share of ``--seconds`` under the shims and the
#: rest on the untraced reference phase.
TRACED_SHARE = 0.7
#: Shim-measured envelope / prover time must agree with the program's own
#: ``AnswerSet.stats`` timers this closely.
TIMER_AGREEMENT = 0.15
UNATTRIBUTED_LIMIT = 0.10


def measure(workload, seconds: float, blocks: int, min_rounds: int, index: int) -> int:
    """Run ``blocks`` equal blocks of rounds starting at round ``index``;
    returns the next round index.  A block lasts ``seconds / blocks`` and
    at least its share of ``min_rounds``, whichever is longer."""
    per_block = seconds / blocks
    least = math.ceil(min_rounds / blocks)
    for _ in range(blocks):
        workload.rec.new_block()
        deadline = perf_counter() + per_block
        done = 0
        while done < least or perf_counter() < deadline:
            workload.round(index)
            index += 1
            done += 1
        workload.block_gate()
    return index


def end_to_end(
    name: str, rec, setups: list[float], extra: dict, full: bool
) -> dict[str, tuple[float, int]]:
    """The end-to-end metrics of one measured phase: name -> (value,
    how many samples it summarises).

    ``full`` marks an untraced run at the pinned sizes: the only kind
    whose sample must be large enough for a p95."""
    pooled = [s for samples in rec.ops.values() for s in samples]
    p, p95 = tail(pooled)
    if full:
        rec.check(p == 95.0, f"only {len(pooled)} samples: p{p:.0f}, not p95")
    ops, blocks = len(pooled), len(rec.blocks)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "op_ms": (class_median_mean(rec.ops) * 1e3, ops),
        "op_p95_ms": (p95 * 1e3, ops),
        "ops_per_s": (block_median((b.ops, b.op_seconds) for b in rec.blocks), blocks),
        "peak_rss_mb": (rss, 1),
    }
    if rec.raw:
        raw = sum(len(samples) for samples in rec.raw.values())
        ratio = class_median_mean(rec.ops) / class_median_mean(rec.raw)
        values["overhead_x"] = (ratio, raw)
    if METRICS["dml_ms"].applies(name):
        values["dml_ms"] = (statistics.median(rec.dml) * 1e3, len(rec.dml))
        values["dml_p95_ms"] = (tail(rec.dml)[1] * 1e3, len(rec.dml))
    if rec.fresh:
        values["fresh_ms"] = (statistics.median(rec.fresh) * 1e3, len(rec.fresh))
        values["fresh_p95_ms"] = (tail(rec.fresh)[1] * 1e3, len(rec.fresh))
        rate = block_median(
            (b.statements, b.statement_seconds) for b in rec.blocks
        )
        values["dml_per_s"] = (rate, blocks)
    values.update(extra)
    values["fail_ratio"] = (len(rec.failures) / max(1, rec.attempted), rec.attempted)
    return values


def per_layer(tracer, rec, stats: Counter, gauges: dict, overhead: float) -> dict:
    """Every per-layer metric, from the spans and the program's counters.

    Also runs the shim-integrity checks that need both sources.
    """
    primary = [
        op
        for op in tracer.ops
        if op["phase"] == "measure"
        and op["kind"].split(":")[0] in ("query", "round", "batch")
    ]
    count = max(1, len(primary))
    wall = sum((op["end"] - op["start"]) / op["slowdown"] for op in primary) or 1
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    amount: Counter = Counter()
    for op in primary:
        for layer, (n, ns, total) in op["layers"].items():
            calls[layer] += n
            self_ns[layer] += ns / op["slowdown"]
            amount[layer] += total

    def ms(*layers: str) -> float:
        return sum(self_ns[layer] for layer in layers) / count / 1e6

    def of_kind(kind: str, phase: str) -> list[dict]:
        return [
            op for op in tracer.ops if op["phase"] == phase and op["kind"] == kind
        ]

    def phase_ms(ops: list[dict], layer: str) -> float:
        total = sum(
            op["layers"].get(layer, (0, 0, 0))[1] / op["slowdown"] for op in ops
        )
        return total / max(1, len(ops)) / 1e6

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    totals = rec.totals
    setup_ops = of_kind("setup", "setup")
    recovery_ops = of_kind("recovery", "measure")
    lookups = stats["plan_cache_hits"] + stats["plan_cache_misses"]
    values = {
        "sql.parse_ms": ms("sql.parse"),
        "ra.sjud_ms": ms("ra.sjud"),
        "engine.planner.plan_ms": ms("engine.planner.plan"),
        "engine.planner.cache_hit_ratio": ratio(stats["plan_cache_hits"], lookups),
        "ra.compile.eval_ms": ms("ra.compile.eval"),
        "core.envelope.eval_ms": ms("core.envelope.eval"),
        "core.envelope.candidates": totals["candidates"] / count,
        "engine.storage.rows_scanned_per_result": ratio(
            stats["rows_scanned"] - totals["dml_rows_scanned"], totals["answers"]
        ),
        "engine.columnar.rebuilds": calls["engine.columnar.rebuild"] / count,
        "engine.columnar.rebuild_ms": ms("engine.columnar.rebuild"),
        "core.envelope.core_hit_ratio": ratio(totals["certain"], totals["candidates"]),
        "core.grounding.formula_ms": ms("core.grounding.formula"),
        "core.membership.ms": ms("core.membership"),
        "core.membership.db_queries": totals["membership_db_queries"] / count,
        "core.membership.free_ratio": ratio(
            totals["membership_free"], totals["membership_checks"]
        ),
        "core.prover.ms": ms("core.prover"),
        "core.prover.checked": totals["prover_checked"] / count,
        "core.prover.accept_ratio": ratio(
            totals["prover_consistent"], totals["prover_checked"]
        ),
        "core.prover.independence_checks": totals["independence_checks"] / count,
        "core.prover.witness_combinations": totals["witness_combinations"] / count,
        "core.hippo.self_ms": ms("core.hippo"),
        "core.hippo.sync_ms": ms("core.hippo.sync"),
        "conflicts.incremental.apply_ms": ms("conflicts.incremental.apply"),
        "conflicts.incremental.deltas": totals["deltas"] / count,
        "conflicts.incremental.edges_added": totals["edges_added"] / count,
        "conflicts.incremental.edges_retracted": totals["edges_retracted"] / count,
        "conflicts.incremental.us_per_delta": ratio(
            self_ns["conflicts.incremental.apply"] / 1e3,
            amount["conflicts.incremental.apply"],
        ),
        "engine.database.execute_ms": ms("engine.database.execute"),
        "engine.database.insert_ms": ms("engine.database.insert"),
        "engine.database.delete_ms": ms("engine.database.delete"),
        "engine.database.update_ms": ms("engine.database.update"),
        "engine.storage.rows_scanned_per_dml": ratio(
            totals["dml_rows_scanned"], totals["dml_statements"]
        ),
        "engine.storage.mutate_ms": ms("engine.storage.mutate"),
        "engine.feed.publish_ms": ms("engine.feed.publish"),
        "engine.feed.flush_ms": ms("engine.feed.flush"),
        "engine.feed.poll_ms": ms("engine.feed.poll"),
        "engine.feed.commit_ms": ms("engine.feed.commit"),
        "engine.feed.fsyncs": totals["fsyncs"] / count,
        "conflicts.replica.sync_ms": ms("conflicts.replica.sync"),
        "conflicts.replica.records": totals["replica_records"] / count,
        "conflicts.replica.lag_max": totals["replica_lag_max"],
        "conflicts.shard.drain_ms": ms("conflicts.shard.drain"),
        "conflicts.shard.records": totals["shard_records"] / count,
        "engine.feed.records": totals["feed_records"] / count,
        "engine.feed.bytes_per_record": ratio(
            totals["window_segment_bytes"], totals["window_records"]
        ),
        "engine.feed.segments_sealed": totals["segments_sealed"],
        "engine.feed.dir_bytes": totals["dir_bytes"],
        "engine.database.checkpoint_ms": ms("engine.database.checkpoint"),
        "engine.database.checkpoints": calls["engine.database.checkpoint"] / count,
        "engine.database.restore_ms": phase_ms(recovery_ops, "engine.database.restore"),
        "engine.database.restore_records": ratio(
            totals["restore_records"], len(recovery_ops)
        ),
        "conflicts.detection.full_ms": phase_ms(setup_ops, "conflicts.detection.full"),
        "conflicts.detection.full_runs": calls["conflicts.detection.full"],
        "conflicts.hypergraph.edges": gauges.get("edges", 0),
        "conflicts.hypergraph.vertices": gauges.get("vertices", 0),
        "workloads.generate_ms": phase_ms(setup_ops, "workloads.generate"),
        "rewriting.rewrite_ms": ms("rewriting.rewrite"),
        "engine.database.select_ms": ms("engine.database.select"),
        "engine.stats.subquery_evaluations": stats["subquery_evaluations"] / count,
        "engine.stats.subquery_cache_hits": stats["subquery_cache_hits"] / count,
        "ra.to_sql.render_ms": ms("ra.to_sql.render"),
        "backends.mirror.sync_ms": ms(
            "backends.mirror.sync", "backends.mirror.rebuild"
        ),
        "backends.mirror.tables_rebuilt": calls["backends.mirror.rebuild"] / count,
        "backends.mirror.rows_copied": amount["backends.mirror.rebuild"] / count,
        "backends.sqlite.exec_ms": ms("backends.sqlite.exec"),
        "backends.pushdowns": stats["backend_pushdowns"] / count,
        "backends.fallbacks": stats["backend_fallbacks"]
        + totals["pushdown_fallbacks"],
        "trace.unattributed_ratio": sum(
            op["root_self"] / op["slowdown"] for op in primary
        )
        / wall,
        "trace.overhead_ratio": overhead,
    }
    assert set(values) == {name for name, _unit, _better in PER_LAYER}

    # Shim integrity: the spans and the program's own timers must tell
    # the same story, nothing may go unattributed, and no measured
    # operation may have fallen back to full detection.
    rec.check(
        values["trace.unattributed_ratio"] <= UNATTRIBUTED_LIMIT,
        f"unattributed {values['trace.unattributed_ratio']:.3f} of operation time",
    )
    rec.check(
        values["conflicts.detection.full_runs"] == 0,
        "full detection ran inside a measured operation",
    )
    if totals["envelope_ns"]:
        measured = {op["op"]: op["slowdown"] for op in primary}
        envelope = sum(
            (end - start) / measured[op_id]
            for op_id, _id, _parent, layer, start, end in tracer.spans
            if layer == "core.envelope.eval" and op_id in measured
        )
        agree = abs(envelope / totals["envelope_ns"] - 1.0)
        rec.check(
            agree <= TIMER_AGREEMENT,
            f"envelope spans differ from stats by {agree:.2f}",
        )
        loop = sum(
            self_ns[layer]
            for layer in ("core.grounding.formula", "core.membership", "core.prover")
        )
        # prover_seconds also times the candidate loop's own iteration
        # and the shims' entry and exit, which no span can see; the
        # spans may fall short of it, never exceed it.
        rec.check(
            loop <= totals["prover_ns"] * (1.0 + TIMER_AGREEMENT),
            f"prover spans exceed stats: {loop} vs {totals['prover_ns']}",
        )
    return values


def run(args: argparse.Namespace) -> dict:
    size = (SMOKE_SIZES if args.smoke else SIZES)[args.workload]
    blocks = 2 if args.smoke else BLOCKS
    cls = WORKLOAD_CLASSES[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    tracer: Optional[Tracer] = Tracer() if args.trace else None
    rec = Recorder()
    workload = None
    try:
        # Before anything is timed: every query text against the oracle.
        gate = cls(args.seed, size, None, workdir)
        gate.rec = rec
        gate.oracle_gate()

        if tracer is not None:
            tracer.install()
        setups: list[float] = []
        for attempt in range(1 if args.smoke or tracer is not None else SETUPS):
            if workload is not None:
                workload.close()
                workload = None
                gc.collect()
            directory = os.path.join(workdir, f"setup-{attempt}")
            os.makedirs(directory)
            workload = cls(args.seed, size, tracer, directory)
            workload.rec = Recorder()  # the warm-up round's samples are dropped
            workload.rec.new_block()
            before = machine_slowdown()
            started = perf_counter()
            with workload.trace.op("setup"):
                workload.build()
            workload.round(-1)
            seconds = perf_counter() - started
            setups.append(seconds / ((before + machine_slowdown()) / 2))
            rec.attempted += workload.rec.attempted
            rec.failures.extend(workload.rec.failures)
        assert workload is not None
        gauges = workload.gauges()
        gc.collect()

        workload.rec = rec
        workload.begin_measure()
        if tracer is not None:
            tracer.phase = "measure"
            fsyncs = tracer.fsyncs
            index = measure(
                workload, args.seconds * TRACED_SHARE, blocks, size["window"], 0
            )
            rec.totals["fsyncs"] = tracer.fsyncs - fsyncs
        else:
            index = measure(workload, args.seconds, blocks, size["min_rounds"], 0)
        stats = workload.stats_delta()
        reference_ms = 0.0
        if tracer is not None:
            tracer.uninstall()
            rec.check(not shims_present(), f"shims left behind: {shims_present()}")
            workload.rec = reference = Recorder()
            tracer.phase = "reference"
            measure(workload, args.seconds * (1 - TRACED_SHARE), 2, 2, index)
            workload.rec = rec
            rec.attempted += reference.attempted
            rec.failures.extend(reference.failures)
            reference_ms = class_median_mean(reference.ops) * 1e3
            tracer.phase = "measure"
            tracer.install()  # the recovery cycles are attributed too
        workload.final_gate()
        extra = workload.after_measure()
        full = tracer is None and not args.smoke
        metrics = end_to_end(args.workload, rec, setups, extra, full)
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": int(tracer is not None),
            "metrics": {name: value for name, (value, _n) in metrics.items()},
            "samples": {name: n for name, (_value, n) in metrics.items()},
            "slowdown": [
                min(rec.slowdowns),
                statistics.median(rec.slowdowns),
                max(rec.slowdowns),
            ],
            "digest": workload.digest.hexdigest(),
            "counters": workload.window_counters or {},
        }
        if tracer is not None:
            traced_ms = metrics["op_ms"][0]
            overhead = traced_ms / reference_ms - 1.0 if reference_ms else 0.0
            result["layers"] = per_layer(tracer, rec, stats, gauges, overhead)
            if args.out:
                tracer.dump(args.out)
        result["attempted"] = rec.attempted
        result["failed"] = len(rec.failures)
        result["failures"] = rec.failures[:5]
        result["correct"] = not rec.failures
        return result
    finally:
        if tracer is not None:
            tracer.uninstall()
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="write the traced run's spans here (JSONL)")
    args = parser.parse_args(argv)
    print(json.dumps(run(args), allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
