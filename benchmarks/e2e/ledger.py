"""The ledger's vocabulary: metric definitions, statistics, comparison.

Everything here is pure (no ``repro`` import, no I/O beyond reading the
machine fingerprint), so ``test_harness.py`` can pin the arithmetic
without building a database.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

WORKLOADS = (
    "cqa_lowconf",
    "cqa_highconf",
    "rewrite_native",
    "rewrite_pushdown",
    "dml_replicated",
    "mixed_rw",
)

#: How many samples must lie beyond a reported percentile.
TAIL_SUPPORT = 10


@dataclass(frozen=True)
class Metric:
    """One end-to-end metric.

    ``bound`` is the share of the baseline's median by which the metric
    may get worse before a change counts as a regression; 0.0 means
    "exact: any move in the worse direction fails".  ``workloads`` is
    None when every workload reports the metric -- those are the ones
    ``BENCHMARK.json`` lists, because the driver wants each of its
    end-to-end metrics from every workload.
    """

    name: str
    unit: str
    better: str
    bound: float
    workloads: Optional[tuple[str, ...]]
    meaning: str

    def applies(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


_CQA = ("cqa_lowconf", "cqa_highconf")
_DML = ("dml_replicated", "mixed_rw")
_REPL = ("dml_replicated",)

END_TO_END = (
    Metric(
        "setup_s",
        "s",
        "lower",
        0.25,
        None,
        "generate + load + index + engine construction (full detection)"
        " + replica/shard bootstrap + first mirror sync; median of the"
        " run's set-ups",
    ),
    Metric(
        "op_ms",
        "ms",
        "lower",
        0.25,
        None,
        "latency of the workload's operation: mean over its classes of"
        " the per-class median (query: SQL text -> AnswerSet; mixed_rw:"
        " one round of 4 DML + 1 query; dml_replicated: one batch of 8"
        " statements -> flushed -> every consumer at lag 0)",
    ),
    Metric(
        "op_p95_ms",
        "ms",
        "lower",
        0.25,
        None,
        "95th percentile of the same latencies, pooled over classes"
        " (>= 200 samples, so >= 10 lie beyond it)",
    ),
    Metric(
        "ops_per_s",
        "1/s",
        "higher",
        0.25,
        None,
        "operations / summed operation time, median over the blocks",
    ),
    Metric(
        "peak_rss_mb",
        "MB",
        "lower",
        0.10,
        None,
        "ru_maxrss of the workload's child process",
    ),
    Metric(
        "overhead_x",
        "x",
        "lower",
        0.25,
        _CQA,
        "op_ms / the same statistic for raw_answers (the paper's headline)",
    ),
    Metric(
        "dml_ms",
        "ms",
        "lower",
        0.25,
        _DML,
        "median Database.execute of one DML statement, publish included",
    ),
    Metric(
        "dml_p95_ms",
        "ms",
        "lower",
        0.25,
        _DML,
        "95th percentile of the same (checkpoint stalls land here)",
    ),
    Metric(
        "fresh_ms",
        "ms",
        "lower",
        0.25,
        _REPL,
        "median of: last statement of a batch returned -> flush ->"
        " engine, replica and both shards at lag 0",
    ),
    Metric(
        "fresh_p95_ms",
        "ms",
        "lower",
        0.25,
        _REPL,
        "95th percentile of the same",
    ),
    Metric(
        "dml_per_s",
        "1/s",
        "higher",
        0.25,
        _REPL,
        "statements / (execute + catch-up), median over the blocks",
    ),
    Metric(
        "recovery_s",
        "s",
        "lower",
        0.25,
        _REPL,
        "median of 5 cold reopen + replica re-attach-to-lag-0 cycles",
    ),
    Metric(
        "log_bytes_per_stmt",
        "B",
        "lower",
        0.0,
        _REPL,
        "segment bytes appended per statement over the digest window"
        " (repeats exactly for a seed)",
    ),
    Metric(
        "fail_ratio",
        "ratio",
        "lower",
        0.0,
        None,
        "operations raising, falling back or failing a check / attempted"
        " (the driver reads it as failed/attempted, not as a metric: it"
        " is 0 on a healthy run and the driver refuses metrics that are 0)",
    ),
)

#: The metrics the driver bounds: reported by every workload, never 0.
DRIVER_METRICS = tuple(
    m for m in END_TO_END if m.workloads is None and m.name != "fail_ratio"
)

METRICS = {metric.name: metric for metric in END_TO_END}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


def pick_percentile(count: int, wanted: float = 95.0) -> float:
    """The percentile to report for ``count`` samples.

    ``wanted`` when at least :data:`TAIL_SUPPORT` samples lie beyond it;
    otherwise the highest percentile that still has that many beyond
    (never below the median) -- a p95 over 60 samples is three points,
    not a tail.
    """
    if count * (1.0 - wanted / 100.0) >= TAIL_SUPPORT:
        return wanted
    if count <= 2 * TAIL_SUPPORT:
        return 50.0
    return max(50.0, 100.0 * (count - TAIL_SUPPORT) / count)


def tail(samples: Sequence[float], wanted: float = 95.0) -> tuple[float, float]:
    """``(percentile used, its value)`` under :func:`pick_percentile`."""
    p = pick_percentile(len(samples), wanted)
    return p, percentile(samples, p)


def class_median_mean(by_class: dict[str, Sequence[float]]) -> float:
    """Mean over classes of the per-class median.

    Classes differ by an order of magnitude (a selection vs. a join), so
    a pooled median would report whichever class sits in the middle;
    this weighs every class once.
    """
    return statistics.fmean(
        statistics.median(samples) for samples in by_class.values()
    )


def block_median(blocks: Iterable[tuple[int, float]]) -> float:
    """Median over blocks of ``operations / summed seconds``."""
    return statistics.median(
        operations / seconds for operations, seconds in blocks if seconds > 0
    )


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    distance with four or more values, the range with fewer."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if middle == 0:
        return 0.0 if max(values) == min(values) else math.inf
    if len(values) >= 4:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(middle)
    return (max(values) - min(values)) / abs(middle)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def worsening(metric: Metric, base: float, new: float) -> float:
    """By what share of ``base`` the metric got worse (negative: better)."""
    delta = new - base if metric.better == "lower" else base - new
    if base == 0:
        return 0.0 if delta == 0 else math.copysign(math.inf, delta)
    return delta / abs(base)


def judge(metric: Metric, base: Sequence[float], new: Sequence[float]) -> str:
    """``"ok"``, ``"regressed"`` or ``"unresolved"`` for one
    (metric, workload) pair of two sets of runs.

    Unresolved means either set's own spread is wider than the bound, so
    a difference of that size cannot be told from noise; it is reported
    as such, never as "unchanged".
    """
    if max(spread(base), spread(new)) > metric.bound:
        return "unresolved"
    moved = worsening(metric, statistics.median(base), statistics.median(new))
    return "regressed" if moved > metric.bound else "ok"


def compare(
    base: dict, new: dict
) -> tuple[list[tuple[str, str, str, float, float]], Optional[str]]:
    """Judge every (workload, metric) pair two result sets share.

    Returns ``(rows, refusal)``: rows are ``(workload, metric, verdict,
    base median, new median)``; ``refusal`` names the reason when the
    sets must not be compared at all (different machines or inputs).
    """
    for key in ("fingerprint", "seed", "sizes"):
        if base.get(key) != new.get(key):
            return [], f"{key} differs: {base.get(key)!r} vs {new.get(key)!r}"
    rows = []
    for workload in WORKLOADS:
        base_runs = base["workloads"].get(workload, [])
        new_runs = new["workloads"].get(workload, [])
        if not base_runs or not new_runs:
            continue
        for metric in END_TO_END:
            if not metric.applies(workload):
                continue
            old = [run["metrics"][metric.name] for run in base_runs]
            cur = [run["metrics"][metric.name] for run in new_runs]
            rows.append(
                (
                    workload,
                    metric.name,
                    judge(metric, old, cur),
                    statistics.median(old),
                    statistics.median(cur),
                )
            )
    return rows, None


def fingerprint() -> dict[str, object]:
    """What two result sets must share to be comparable."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": ".".join(str(part) for part in sys.version_info[:3]),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics (from the traced run; no bounds)
# ---------------------------------------------------------------------------

#: (name, unit, better).  ``*_ms`` is the layer's self time per operation
#: (duration minus child spans, mean over the measured operations), so
#: the ``_ms`` rows of one workload add up to its traced operation time
#: less ``trace.unattributed_ratio``.  ``1/op`` counts are per measured
#: operation; ``count`` and ``B`` are totals or gauges.
PER_LAYER = (
    # parse / plan: moves op_ms on rewrite_native, dml_ms on dml_replicated
    ("sql.parse_ms", "ms", "lower"),
    ("ra.sjud_ms", "ms", "lower"),
    ("engine.planner.plan_ms", "ms", "lower"),
    ("engine.planner.cache_hit_ratio", "ratio", "higher"),
    # envelope evaluation: moves op_ms / overhead_x on cqa_lowconf,
    # op_p95_ms on mixed_rw
    ("ra.compile.eval_ms", "ms", "lower"),
    ("core.envelope.eval_ms", "ms", "lower"),
    ("core.envelope.candidates", "1/op", "lower"),
    ("engine.storage.rows_scanned_per_result", "ratio", "lower"),
    ("engine.columnar.rebuilds", "1/op", "lower"),
    ("engine.columnar.rebuild_ms", "ms", "lower"),
    # per-candidate work: moves op_ms / overhead_x on cqa_highconf
    ("core.envelope.core_hit_ratio", "ratio", "higher"),
    ("core.grounding.formula_ms", "ms", "lower"),
    ("core.membership.ms", "ms", "lower"),
    ("core.membership.db_queries", "1/op", "lower"),
    ("core.membership.free_ratio", "ratio", "higher"),
    ("core.prover.ms", "ms", "lower"),
    ("core.prover.checked", "1/op", "lower"),
    ("core.prover.accept_ratio", "ratio", "higher"),
    ("core.prover.independence_checks", "1/op", "lower"),
    ("core.prover.witness_combinations", "1/op", "lower"),
    # pipeline assembly and hypergraph maintenance: moves op_ms on
    # mixed_rw, fresh_ms on dml_replicated
    ("core.hippo.self_ms", "ms", "lower"),
    ("core.hippo.sync_ms", "ms", "lower"),
    ("conflicts.incremental.apply_ms", "ms", "lower"),
    ("conflicts.incremental.deltas", "1/op", "lower"),
    ("conflicts.incremental.edges_added", "1/op", "lower"),
    ("conflicts.incremental.edges_retracted", "1/op", "lower"),
    ("conflicts.incremental.us_per_delta", "us", "lower"),
    # statement execution: moves dml_ms / dml_per_s
    ("engine.database.execute_ms", "ms", "lower"),
    ("engine.database.insert_ms", "ms", "lower"),
    ("engine.database.delete_ms", "ms", "lower"),
    ("engine.database.update_ms", "ms", "lower"),
    ("engine.storage.rows_scanned_per_dml", "ratio", "lower"),
    ("engine.storage.mutate_ms", "ms", "lower"),
    ("engine.feed.publish_ms", "ms", "lower"),
    # acknowledgement and replication: moves fresh_ms / fresh_p95_ms
    ("engine.feed.flush_ms", "ms", "lower"),
    ("engine.feed.poll_ms", "ms", "lower"),
    ("engine.feed.commit_ms", "ms", "lower"),
    ("engine.feed.fsyncs", "1/op", "lower"),
    ("conflicts.replica.sync_ms", "ms", "lower"),
    ("conflicts.replica.records", "1/op", "lower"),
    ("conflicts.replica.lag_max", "count", "lower"),
    ("conflicts.shard.drain_ms", "ms", "lower"),
    ("conflicts.shard.records", "1/op", "lower"),
    # log volume, checkpoints, recovery: moves log_bytes_per_stmt,
    # recovery_s, dml_p95_ms
    ("engine.feed.records", "1/op", "lower"),
    ("engine.feed.bytes_per_record", "B", "lower"),
    ("engine.feed.segments_sealed", "count", "lower"),
    ("engine.feed.dir_bytes", "B", "lower"),
    ("engine.database.checkpoint_ms", "ms", "lower"),
    ("engine.database.checkpoints", "1/op", "lower"),
    ("engine.database.restore_ms", "ms", "lower"),
    ("engine.database.restore_records", "1/op", "lower"),
    # set-up: moves setup_s, recovery_s
    ("conflicts.detection.full_ms", "ms", "lower"),
    ("conflicts.detection.full_runs", "count", "lower"),
    ("conflicts.hypergraph.edges", "count", "lower"),
    ("conflicts.hypergraph.vertices", "count", "lower"),
    ("workloads.generate_ms", "ms", "lower"),
    # rewriting, native: moves op_ms on rewrite_native
    ("rewriting.rewrite_ms", "ms", "lower"),
    ("engine.database.select_ms", "ms", "lower"),
    ("engine.stats.subquery_evaluations", "1/op", "lower"),
    ("engine.stats.subquery_cache_hits", "1/op", "higher"),
    # rewriting, pushed down: moves op_ms / op_p95_ms on rewrite_pushdown
    ("ra.to_sql.render_ms", "ms", "lower"),
    ("backends.mirror.sync_ms", "ms", "lower"),
    ("backends.mirror.tables_rebuilt", "1/op", "lower"),
    ("backends.mirror.rows_copied", "1/op", "lower"),
    ("backends.sqlite.exec_ms", "ms", "lower"),
    ("backends.pushdowns", "1/op", "higher"),
    ("backends.fallbacks", "count", "lower"),
    # the trace itself
    ("trace.unattributed_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

PER_LAYER_UNITS = {name: unit for name, unit, _better in PER_LAYER}
