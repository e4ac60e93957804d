"""The six workloads: inputs from a seed, operations, correctness gates.

Every workload is a closed loop with one client: the next operation
starts when the previous one returned.  A workload builds its inputs in
:meth:`Workload.build` (timed as set-up), runs *rounds* of operations
(:meth:`Workload.round`) and checks what came out: against repair
enumeration on a tiny instance before timing, across answering paths at
full size afterwards, and -- on the write path -- against full
re-detection at the end of every block.

Only ``repro``'s public API and the standard library are used; nothing
comes from ``benchmarks/common.py``.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, ContextManager, Optional

from repro import Database
from repro.backends import create_backend
from repro.conflicts import ReplicaHypergraph, ShardCoordinator, detect_conflicts
from repro.core import AnswerSet, HippoEngine
from repro.engine.feed import ChangeFeed
from repro.repairs import ground_truth_consistent_answers
from repro.rewriting import RewritingEngine
from repro.workloads import (
    CITY_CERTAIN_QUERY,
    GOLD_QUERY,
    build_integration_scenario,
    difference_query,
    full_scan_query,
    generate_join_pair,
    generate_key_conflict_table,
    generate_union_pair,
    join_query,
    selection_query,
    union_query,
)

from dmlgen import DmlGenerator

#: The generators' default ``b0`` domain.
VALUE_DOMAIN = 1_000_000

#: Pinned sizes.  ``n`` is tuples per relation; ``min_rounds`` makes the
#: pooled sample at least 200 operations whatever the machine's speed
#: (so a p95 has ten samples beyond it); ``window`` is how many leading
#: rounds feed the answer digest and the exact counters.  Changing any of
#: these changes what every recorded number means: do it only in a change
#: that is about the benchmark.
SIZES = {
    "cqa_lowconf": {"n": 4000, "conflicts": 0.05, "min_rounds": 40, "window": 8},
    "cqa_highconf": {
        "n": 3000,
        "conflicts": 0.5,
        "customers": 3000,
        "disputed": 0.4,
        "min_rounds": 40,
        "window": 8,
    },
    "rewrite_native": {"n": 2000, "conflicts": 0.05, "min_rounds": 67, "window": 12},
    "rewrite_pushdown": {"n": 2000, "conflicts": 0.05, "min_rounds": 67, "window": 12},
    "dml_replicated": {"n": 3000, "conflicts": 0.05, "min_rounds": 200, "window": 24},
    "mixed_rw": {"n": 3000, "conflicts": 0.05, "min_rounds": 200, "window": 24},
}

#: ``--smoke``: every gate and the output schema at N ~ 300, no numbers.
SMOKE_SIZES = {
    name: {
        **size,
        "n": 300,
        **({"customers": 300} if "customers" in size else {}),
        "min_rounds": 2,
        "window": 2,
    }
    for name, size in SIZES.items()
}

#: Tuples per relation of the oracle instance (<= 24 tuples in total).
TINY = 5

BATCH_STATEMENTS = 8  # dml_replicated: statements per acknowledged batch
BURST_STATEMENTS = 2  # rewrite_*: statements before each query
ROUND_STATEMENTS = 4  # mixed_rw: statements before each query
RAW_EVERY = 4  # cqa_*: raw_answers on every 4th round
RECOVERY_CYCLES = 5
CHECKPOINT_RECORDS = 512


#: What :func:`kernel` takes on the machine the baseline was recorded on,
#: at its full speed.  Only scales the normalised times back into
#: milliseconds a reader can relate to; every comparison is a ratio.
KERNEL_NOMINAL_SECONDS = 0.0020


def kernel() -> int:
    """A fixed piece of pure-Python work that calls nothing in ``repro``."""
    total = 0
    table: dict[int, tuple[int, int]] = {}
    for i in range(20000):
        table[i & 1023] = (i, total)
        total += i * i
    return total


def machine_slowdown() -> float:
    """How much slower than nominal the machine runs right now.

    The sandbox this ledger runs in changes speed by a quarter for
    seconds at a time (other tenants of the host), which moves a run's
    median latency by more than any bound worth setting.  Every round
    therefore first times :func:`kernel`, and every latency of the round
    is divided by the slowdown it shows.  Over 24 back-to-back 12-second
    windows that narrowed the interquartile spread of ``cqa_lowconf``'s
    ``op_ms`` from 15-22% of its median to 2.5-3.5%.
    A change to ``repro`` cannot move the kernel, so a real speed-up or
    regression passes through in full.
    """
    started = perf_counter()
    kernel()
    return (perf_counter() - started) / KERNEL_NOMINAL_SECONDS


class NullTrace:
    """What a workload talks to when no span shims are installed."""

    phase = ""
    slowdown = 1.0

    def op(self, kind: str) -> ContextManager:
        return nullcontext()

    def span(self, layer: str) -> ContextManager:
        return nullcontext()


@dataclass
class Block:
    """One block's operation and statement counts, with the (normalised)
    seconds they took: throughput is reported as the median over blocks."""

    ops: int = 0
    op_seconds: float = 0.0
    statements: int = 0
    statement_seconds: float = 0.0  # execute + catch-up


class Recorder:
    """Samples and counts of one measured phase."""

    def __init__(self) -> None:
        self.ops: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.dml: list[float] = []
        self.fresh: list[float] = []
        self.blocks: list[Block] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.totals: Counter = Counter()
        #: the current round's machine slowdown, and every round's
        self.slowdown = 1.0
        self.slowdowns: list[float] = []

    def new_block(self) -> None:
        self.blocks.append(Block())

    def op_done(self, klass: str, seconds: float) -> None:
        self.ops[klass].append(seconds)
        self.blocks[-1].ops += 1
        self.blocks[-1].op_seconds += seconds

    def check(self, ok: bool, what: str) -> bool:
        """Count one correctness check; a failed one fails the run."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def _timed(rec: Recorder, what: str, fn: Callable, *args: object):
    """Run one operation; returns ``(result or None, seconds)``, the
    seconds normalised by the round's machine slowdown.

    An operation that raises is a failed operation, not a crashed
    benchmark: the run goes on and reports it.
    """
    rec.attempted += 1
    result = None
    started = perf_counter()
    try:
        result = fn(*args)
    except Exception:
        rec.failures.append(f"{what} raised:\n{traceback.format_exc()}")
    return result, (perf_counter() - started) / rec.slowdown


def run_dml(rec: Recorder, db: Database, dml: DmlGenerator) -> float:
    """Execute the stream's next statement; returns its seconds.

    The statement must change exactly one row: that is what keeps the
    generator's picture of the table, and so the data, on course.
    """
    kind, statement = dml.next()
    scanned = db.stats.rows_scanned
    result, seconds = _timed(rec, kind, db.execute, statement)
    rec.dml.append(seconds)
    rec.totals["dml_statements"] += 1
    rec.totals["dml_rows_scanned"] += db.stats.rows_scanned - scanned
    if result is not None:
        rec.check(result.rowcount == 1, f"{statement}: changed {result.rowcount} rows")
    return seconds


class Workload:
    """Base class: the measuring loop's view of a workload."""

    name = ""

    def __init__(
        self, seed: int, size: dict, trace: Optional[object], workdir: str
    ) -> None:
        self.seed = seed
        self.size = size
        self.trace = trace if trace is not None else NullTrace()
        self.workdir = workdir
        self.rec = Recorder()
        self.digest = hashlib.blake2b(digest_size=16)
        self.window_counters: Optional[dict[str, int]] = None
        self._stats_base: Counter = Counter()

    # -- the subclass API ---------------------------------------------------

    def build(self) -> None:
        """Create every input and every engine (timed as set-up)."""
        raise NotImplementedError

    def round(self, index: int) -> None:
        """Run round ``index`` of the deterministic operation stream."""
        raise NotImplementedError

    def oracle_gate(self) -> None:
        """Every query text against repair enumeration on a tiny instance."""

    def block_gate(self) -> None:
        """Checks at the end of every block (outside timed operations)."""

    def final_gate(self) -> None:
        """Cross-path checks at full size, after the measured phase."""

    def after_measure(self) -> dict[str, tuple[float, int]]:
        """Extra end-to-end metrics measured after the loop, as
        ``name -> (value, samples)``."""
        return {}

    def gauges(self) -> dict[str, float]:
        """State read once after set-up (hypergraph size and the like)."""
        return {}

    def close(self) -> None:
        """Release files, connections and consumer groups."""

    def databases(self) -> list[Database]:
        """The writer databases whose ``stats`` the ledger reads."""
        return []

    # -- shared helpers -----------------------------------------------------

    def begin_round(self) -> Recorder:
        """Sample the machine's speed for the round about to run."""
        rec = self.rec
        rec.slowdown = self.trace.slowdown = machine_slowdown()
        rec.slowdowns.append(rec.slowdown)
        return rec

    def in_window(self, index: int) -> bool:
        return 0 <= index < self.size["window"]

    def note_answers(self, index: int, klass: str, answers: AnswerSet) -> None:
        """Fold one consistent answer set into counters and the digest."""
        totals = self.rec.totals
        stats = answers.stats
        totals["answers"] += len(answers.rows)
        if "candidates" in stats:
            prover = stats["prover"]
            membership = stats["membership"]
            totals["candidates"] += stats["candidates"]
            totals["certain"] += stats["certain"]
            totals["prover_checked"] += prover.candidates_checked
            totals["prover_consistent"] += prover.consistent
            totals["independence_checks"] += prover.independence_checks
            totals["witness_combinations"] += prover.witness_combinations
            totals["membership_checks"] += membership.checks
            totals["membership_db_queries"] += membership.db_queries
            totals["membership_free"] += membership.free_answers
            scale = 1e9 / self.rec.slowdown
            totals["envelope_ns"] += int(stats["envelope_seconds"] * scale)
            totals["prover_ns"] += int(stats["prover_seconds"] * scale)
        if self.in_window(index):
            self.digest.update(repr((index, klass, answers.rows)).encode())

    def stats_snapshot(self) -> Counter:
        total: Counter = Counter()
        for db in self.databases():
            total.update(db.stats.snapshot())
        return total

    def end_round(self, index: int) -> None:
        """Freeze the exact counters when the window's last round ends."""
        if index + 1 == self.size["window"] and self.window_counters is None:
            frozen = Counter(self.rec.totals)
            for key in ("envelope_ns", "prover_ns"):
                frozen.pop(key, None)  # times, not counts
            frozen.update(self.stats_delta())
            self.window_counters = dict(sorted(frozen.items()))

    def begin_measure(self) -> None:
        self._stats_base = self.stats_snapshot()

    def stats_delta(self) -> Counter:
        """``Database.stats`` counters since :meth:`begin_measure`."""
        return self.stats_snapshot() - self._stats_base


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _index_keys(db: Database, tables: tuple[str, ...]) -> None:
    # A primary-key deployment has an index on every key column.
    for table in tables:
        db.execute(f"CREATE INDEX idx_{table}_a ON {table} (a)")


def build_lowconf_data(
    db: Database, n: int, conflicts: float, seed: int, trace: object
) -> list[object]:
    """``ul``/``ur`` (union pair) and ``jl``/``jr`` (join pair), key FDs."""
    with trace.span("workloads.generate"):
        # The join column's domain shrinks with n so that tiny instances
        # still join.
        ul, ur = generate_union_pair(db, "ul", "ur", n, conflicts, seed=seed)
        jl, jr = generate_join_pair(
            db, "jl", "jr", n, conflicts, seed=seed + 10, join_domain=max(n, 6)
        )
    _index_keys(db, ("ul", "ur", "jl", "jr"))
    return [ul.fd, ur.fd, jl.fd, jr.fd]


def _pairs(db: Database, table: str) -> list[tuple[int, int]]:
    return [(row[0], row[1]) for row in db.table(table).rows()]


LOWCONF_QUERIES = (
    ("selection", selection_query("ul").sql),
    ("scan", full_scan_query("ul").sql),
    ("join", join_query("jl", "jr").sql),
    ("union", union_query("ul", "ur").sql),
    ("difference", difference_query("ul", "ur").sql),
)
UNION_PAIR_QUERIES = tuple(
    q for q in LOWCONF_QUERIES if q[0] in ("selection", "scan", "union", "difference")
)
REWRITABLE = ("selection", "scan", "join", "difference", "gold")


def check_paths_agree(
    rec: Recorder,
    label: str,
    db: Database,
    constraints: list[object],
    queries: tuple[tuple[str, str], ...],
    engine: Optional[HippoEngine] = None,
) -> None:
    """prover == rewriting-native == rewriting-pushdown where rewriting
    applies, and consistent is a subset of raw, on the current state."""
    hippo = engine if engine is not None else HippoEngine(db, constraints)
    rewriting = RewritingEngine(db, constraints)
    backend = create_backend("sqlite", db)
    try:
        for klass, sql in queries:
            consistent = hippo.consistent_answers(sql).as_set()
            raw = hippo.raw_answers(sql).as_set()
            rec.check(consistent <= raw, f"{label}/{klass}: consistent not in raw")
            if klass not in REWRITABLE:
                continue
            native = rewriting.consistent_answers(sql).as_set()
            pushed_before = db.stats.backend_pushdowns
            pushed = rewriting.consistent_answers(sql, backend=backend).as_set()
            rec.check(
                db.stats.backend_pushdowns > pushed_before,
                f"{label}/{klass}: pushdown fell back to the native engine",
            )
            rec.check(consistent == native, f"{label}/{klass}: prover != rewriting")
            rec.check(native == pushed, f"{label}/{klass}: native != pushdown")
    finally:
        backend.close()
        if engine is None:
            hippo.detach()


def check_against_oracle(
    rec: Recorder,
    label: str,
    db: Database,
    constraints: list[object],
    queries: tuple[tuple[str, str], ...],
) -> None:
    """Every path against the definition: intersect Q over all repairs."""
    hippo = HippoEngine(db, constraints)
    try:
        for klass, sql in queries:
            tree, _order = hippo.parse(sql)
            truth = ground_truth_consistent_answers(db, hippo.hypergraph, tree)
            got = hippo.consistent_answers(sql).as_set()
            rec.check(got == truth, f"{label}/{klass}: prover != repair enumeration")
        check_paths_agree(rec, label, db, constraints, queries, engine=hippo)
    finally:
        hippo.detach()


# ---------------------------------------------------------------------------
# cqa_lowconf / cqa_highconf
# ---------------------------------------------------------------------------


class CqaWorkload(Workload):
    """Read-only consistent answers through the Hippo pipeline."""

    def __init__(self, *args: object) -> None:
        super().__init__(*args)
        #: (class, engine, SQL text), one consistent query each per round
        self.plan: list[tuple[str, HippoEngine, str]] = []
        #: (database, constraints, queries) groups, for the gates
        self.groups: list[tuple[Database, list[object], tuple]] = []

    def databases(self) -> list[Database]:
        return [db for db, _constraints, _queries in self.groups]

    def _add_group(
        self, db: Database, constraints: list[object], queries: tuple
    ) -> None:
        engine = HippoEngine(db, constraints)
        self.groups.append((db, constraints, queries))
        self.plan.extend((klass, engine, sql) for klass, sql in queries)

    def round(self, index: int) -> None:
        rec = self.begin_round()
        for klass, engine, sql in self.plan:
            with self.trace.op(f"query:{klass}"):
                answers, seconds = _timed(rec, klass, engine.consistent_answers, sql)
            rec.op_done(klass, seconds)
            if answers is not None:
                self.note_answers(index, klass, answers)
        if index % RAW_EVERY == 0:
            for klass, engine, sql in self.plan:
                with self.trace.op(f"raw:{klass}"):
                    _raw, seconds = _timed(rec, klass, engine.raw_answers, sql)
                rec.raw[klass].append(seconds)
        self.end_round(index)

    def final_gate(self) -> None:
        for db, constraints, queries in self.groups:
            check_paths_agree(self.rec, self.name, db, constraints, queries)

    def gauges(self) -> dict[str, float]:
        graphs = [engine.hypergraph for _k, engine, _s in self.plan]
        unique = {id(g): g for g in graphs}.values()
        return {
            "edges": sum(len(g) for g in unique),
            "vertices": sum(g.vertex_count for g in unique),
        }

    def close(self) -> None:
        for _klass, engine, _sql in self.plan:
            engine.detach()


class CqaLowconf(CqaWorkload):
    name = "cqa_lowconf"

    def build(self) -> None:
        db = Database()
        constraints = build_lowconf_data(
            db, self.size["n"], self.size["conflicts"], self.seed, self.trace
        )
        self._add_group(db, constraints, LOWCONF_QUERIES)

    def oracle_gate(self) -> None:
        db = Database()
        constraints = build_lowconf_data(db, TINY, 0.4, self.seed, NullTrace())
        check_against_oracle(self.rec, "tiny", db, constraints, LOWCONF_QUERIES)


HIGHCONF_UNION_QUERIES = tuple(
    q for q in LOWCONF_QUERIES if q[0] in ("scan", "union", "difference")
)
INTEGRATION_QUERIES = (("city", CITY_CERTAIN_QUERY), ("gold", GOLD_QUERY))


def build_highconf_data(
    n: int, conflicts: float, customers: int, disputed: float, seed: int, trace: object
) -> list[tuple[Database, list[object], tuple]]:
    db = Database()
    with trace.span("workloads.generate"):
        ul, ur = generate_union_pair(db, "ul", "ur", n, conflicts, seed=seed)
        scenario = build_integration_scenario(customers, disputed, seed=seed)
    _index_keys(db, ("ul", "ur"))
    scenario.db.execute("CREATE INDEX idx_customer_id ON customer (id)")
    return [
        (db, [ul.fd, ur.fd], HIGHCONF_UNION_QUERIES),
        (scenario.db, [scenario.fd], INTEGRATION_QUERIES),
    ]


class CqaHighconf(CqaWorkload):
    name = "cqa_highconf"

    def build(self) -> None:
        size = self.size
        for group in build_highconf_data(
            size["n"],
            size["conflicts"],
            size["customers"],
            size["disputed"],
            self.seed,
            self.trace,
        ):
            self._add_group(*group)

    def oracle_gate(self) -> None:
        # 6 + 6 + 1 copied + ~16 customer tuples would pass 24: the two
        # databases are separate instances, each below the limit.
        for db, constraints, queries in build_highconf_data(
            6, 0.5, 12, 0.4, self.seed, NullTrace()
        ):
            check_against_oracle(self.rec, "tiny", db, constraints, queries)


# ---------------------------------------------------------------------------
# rewrite_native / rewrite_pushdown
# ---------------------------------------------------------------------------

REWRITE_QUERIES = tuple(
    q for q in LOWCONF_QUERIES if q[0] in ("selection", "join", "difference")
)


def lowconf_dml(db: Database, n: int, seed: int) -> DmlGenerator:
    return DmlGenerator(
        seed,
        {
            "ul": (_pairs(db, "ul"), VALUE_DOMAIN),
            "ur": (_pairs(db, "ur"), VALUE_DOMAIN),
            "jl": (_pairs(db, "jl"), max(n, 6)),  # stays joinable with jr.a
            "jr": (_pairs(db, "jr"), VALUE_DOMAIN),
        },
    )


class RewriteWorkload(Workload):
    """The PODS'99 rewriting under DML: native engine or SQLite pushdown.

    Both variants run the identical operation stream, so their answer
    digests must be equal.
    """

    pushdown = False

    def build(self) -> None:
        self.db = Database()
        self.constraints = build_lowconf_data(
            self.db, self.size["n"], self.size["conflicts"], self.seed, self.trace
        )
        self.engine = RewritingEngine(self.db, self.constraints)
        self.backend = None
        if self.pushdown:
            self.backend = create_backend("sqlite", self.db)
            self.backend.sync()  # the first mirror build is set-up
        self.dml = lowconf_dml(self.db, self.size["n"], self.seed)

    def databases(self) -> list[Database]:
        return [self.db]

    def _query(self, sql: str) -> AnswerSet:
        return self.engine.consistent_answers(sql, backend=self.backend)

    def round(self, index: int) -> None:
        rec = self.begin_round()
        for klass, sql in REWRITE_QUERIES:
            with self.trace.op("burst"):
                for _ in range(BURST_STATEMENTS):
                    run_dml(rec, self.db, self.dml)
            pushed_before = self.db.stats.backend_pushdowns
            with self.trace.op(f"query:{klass}"):
                answers, seconds = _timed(rec, klass, self._query, sql)
            rec.op_done(klass, seconds)
            if self.pushdown:
                # RewritingEngine swallows a backend refusal and answers
                # natively; here that is a failed operation.
                pushed = self.db.stats.backend_pushdowns == pushed_before + 1
                rec.totals["pushdown_fallbacks"] += not pushed
                rec.check(pushed, f"{klass}: pushdown fell back to the native engine")
            if answers is not None:
                self.note_answers(index, klass, answers)
        self.end_round(index)

    def oracle_gate(self) -> None:
        db = Database()
        constraints = build_lowconf_data(db, TINY, 0.4, self.seed, NullTrace())
        check_against_oracle(self.rec, "tiny", db, constraints, REWRITE_QUERIES)

    def final_gate(self) -> None:
        check_paths_agree(
            self.rec, self.name, self.db, self.constraints, REWRITE_QUERIES
        )

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()


class RewriteNative(RewriteWorkload):
    name = "rewrite_native"


class RewritePushdown(RewriteWorkload):
    name = "rewrite_pushdown"
    pushdown = True


# ---------------------------------------------------------------------------
# dml_replicated
# ---------------------------------------------------------------------------


def _tables_of(db: Database) -> dict[str, dict[int, tuple]]:
    return {
        name.lower(): db.table(name).snapshot() for name in db.catalog.table_names()
    }


def _dir_bytes(directory: str, suffix: str = "") -> int:
    total = 0
    for root, _dirs, files in os.walk(directory):
        for name in files:
            if name.endswith(suffix):
                total += os.path.getsize(os.path.join(root, name))
    return total


class DmlReplicated(Workload):
    """Durable writer -> feed -> engine, replica and two shard workers.

    Durability settings (kept at their defaults, and the same on both
    sides of any comparison): ``fsync="rotate"`` with 4096-record
    segments, so appends are buffered and one ``feed.flush()`` per batch
    (flush + fsync of every active segment) is the acknowledgement
    point; the writer checkpoints every 512 records.
    """

    name = "dml_replicated"

    def build(self) -> None:
        self.directory = os.path.join(self.workdir, "feed")
        n, conflicts = self.size["n"], self.size["conflicts"]
        self.db = Database(
            durable=self.directory, checkpoint_records=CHECKPOINT_RECORDS
        )
        with self.trace.span("workloads.generate"):
            ra = generate_key_conflict_table(
                self.db, "ra", n, conflicts, seed=self.seed
            )
            rb = generate_key_conflict_table(
                self.db, "rb", n, conflicts, seed=self.seed + 1
            )
        _index_keys(self.db, ("ra", "rb"))
        self.constraints = [ra.fd, rb.fd]
        self.feed = self.db.changes.feed
        self.feed.flush()
        self.engine = HippoEngine(self.db, self.constraints, group="bench-engine")
        self.replica_feed = ChangeFeed(self.directory)
        self.replica = ReplicaHypergraph(
            self.replica_feed, self.constraints, group="bench-replica"
        )
        self.shard_feed = ChangeFeed(self.directory)
        self.shards = ShardCoordinator(
            self.shard_feed, self.constraints, workers=2, group_prefix="bench-shard"
        )
        self._catch_up()
        self.dml = DmlGenerator(
            self.seed,
            {
                "ra": (_pairs(self.db, "ra"), VALUE_DOMAIN),
                "rb": (_pairs(self.db, "rb"), VALUE_DOMAIN),
            },
        )

    def databases(self) -> list[Database]:
        return [self.db]

    def _catch_up(self) -> None:
        """Flush (the acknowledgement point), then bring the engine, the
        replica and both shard workers to lag 0."""
        totals = self.rec.totals
        self.feed.flush()
        self.engine.refresh()
        lag = self.replica.lag
        totals["replica_lag_max"] = max(totals["replica_lag_max"], lag)
        while lag:
            sync = self.replica.sync()
            totals["replica_records"] += sync.records
            totals["replica_full_syncs"] += sync.mode != "incremental"
            lag = sync.lag
        totals["shard_records"] += self.shards.drain()
        report = self.engine.detection
        if report.mode == "incremental":
            totals["deltas"] += report.deltas
            totals["edges_added"] += report.edges_added
            totals["edges_retracted"] += report.edges_retracted

    def begin_measure(self) -> None:
        super().begin_measure()
        self._segment_bytes_base = _dir_bytes(self.directory, ".jsonl")
        self._records_base = self.feed.next_seq

    def round(self, index: int) -> None:
        rec = self.begin_round()
        block = rec.blocks[-1]
        full_syncs = rec.totals["replica_full_syncs"]
        with self.trace.op("batch"):
            spent = 0.0
            for _ in range(BATCH_STATEMENTS):
                spent += run_dml(rec, self.db, self.dml)
            _none, fresh = _timed(rec, "catch-up", self._catch_up)
        lagging = (
            self.engine.feed_lag + self.replica.lag + self.shards.lag
        )
        rec.check(lagging == 0, f"{lagging} records still pending after catch-up")
        rec.check(
            self.engine.detection.mode == "incremental"
            and rec.totals["replica_full_syncs"] == full_syncs,
            "a consumer fell back to full detection",
        )
        rec.fresh.append(fresh)
        rec.op_done("batch", spent + fresh)
        block.statements += BATCH_STATEMENTS
        block.statement_seconds += spent + fresh
        if self.in_window(index):
            edges = sorted(sorted(edge) for edge in self.engine.hypergraph.as_dict())
            self.digest.update(repr(edges).encode())
        if index + 1 == self.size["window"]:
            appended = _dir_bytes(self.directory, ".jsonl") - self._segment_bytes_base
            rec.totals["window_segment_bytes"] = appended
            rec.totals["window_records"] = self.feed.next_seq - self._records_base
            rec.totals["window_statements"] = rec.totals["dml_statements"]
        self.end_round(index)

    def block_gate(self) -> None:
        truth = detect_conflicts(self.db, self.constraints).hypergraph.as_dict()
        rec = self.rec
        rec.check(self.engine.hypergraph.as_dict() == truth, "engine graph != full")
        rec.check(self.replica.graph.as_dict() == truth, "replica graph != full")
        rec.check(self.shards.graph.as_dict() == truth, "merged shards != full")

    # No oracle_gate: the write path has no query text.  Its oracle is
    # full re-detection on the writer, checked at the end of every block.

    def _reopen(self) -> tuple[Database, ChangeFeed, ReplicaHypergraph]:
        """One cold start: the database from its checkpoint and log
        suffix, then the replica group re-attached and at lag 0."""
        reopened = Database(
            durable=self.directory, checkpoint_records=CHECKPOINT_RECORDS
        )
        reader = ChangeFeed(self.directory)
        replica = ReplicaHypergraph(reader, self.constraints, group="bench-replica")
        while replica.lag:
            replica.sync()
        return reopened, reader, replica

    def after_measure(self) -> dict[str, tuple[float, int]]:
        """Cold reopen + replica re-attach cycles on the writer's files."""
        rec = self.rec
        expected = _tables_of(self.db)
        topics = self.feed.topics()
        rec.totals["feed_records"] = self.feed.next_seq - self._records_base
        rec.totals["segments_sealed"] = sum(max(0, t.segments - 1) for t in topics)
        self.close()
        cycles = []
        restore_records = 0
        for _ in range(RECOVERY_CYCLES):
            self.begin_round()
            with self.trace.op("recovery"):
                opened, seconds = _timed(rec, "recovery", self._reopen)
            if opened is None:
                continue
            reopened, reader, replica = opened
            cycles.append(seconds)
            restore_records += reopened.restore_records
            rec.check(_tables_of(reopened) == expected, "reopened tables != writer's")
            rec.check(
                replica.graph.as_dict()
                == detect_conflicts(reopened, self.constraints).hypergraph.as_dict(),
                "re-attached replica graph != full detection",
            )
            replica.close()
            reader.close()
            reopened.changes.feed.close()
        rec.totals["restore_records"] = restore_records
        rec.totals["dir_bytes"] = _dir_bytes(self.directory)
        statements = max(1, rec.totals["window_statements"])
        return {
            "recovery_s": (statistics.median(cycles), len(cycles)),
            "log_bytes_per_stmt": (
                rec.totals["window_segment_bytes"] / statements,
                statements,
            ),
        }

    def gauges(self) -> dict[str, float]:
        graph = self.engine.hypergraph
        return {"edges": len(graph), "vertices": graph.vertex_count}

    def close(self) -> None:
        if getattr(self, "_closed", False):
            return
        self._closed = True
        self.engine.detach()
        self.replica.close()
        self.shards.close()
        self.replica_feed.close()
        self.shard_feed.close()
        self.feed.close()


# ---------------------------------------------------------------------------
# mixed_rw
# ---------------------------------------------------------------------------


class MixedRw(Workload):
    """Four DML statements, then one consistent query, on one engine."""

    name = "mixed_rw"

    def build(self) -> None:
        self.db = Database()
        n = self.size["n"]
        with self.trace.span("workloads.generate"):
            ul, ur = generate_union_pair(
                self.db, "ul", "ur", n, self.size["conflicts"], seed=self.seed
            )
        _index_keys(self.db, ("ul", "ur"))
        self.constraints = [ul.fd, ur.fd]
        self.engine = HippoEngine(self.db, self.constraints)
        self.dml = self._dml(self.db)

    def _dml(self, db: Database) -> DmlGenerator:
        return DmlGenerator(
            self.seed,
            {
                "ul": (_pairs(db, "ul"), VALUE_DOMAIN),
                "ur": (_pairs(db, "ur"), VALUE_DOMAIN),
            },
        )

    def databases(self) -> list[Database]:
        return [self.db]

    def round(self, index: int) -> None:
        rec = self.begin_round()
        klass, sql = UNION_PAIR_QUERIES[index % len(UNION_PAIR_QUERIES)]
        with self.trace.op(f"round:{klass}"):
            spent = 0.0
            for _ in range(ROUND_STATEMENTS):
                spent += run_dml(rec, self.db, self.dml)
            answers, seconds = _timed(rec, klass, self.engine.consistent_answers, sql)
        rec.op_done(klass, spent + seconds)
        report = self.engine.detection
        rec.check(
            report.mode == "incremental",
            f"engine fell back to {report.mode} detection",
        )
        rec.totals["deltas"] += report.deltas
        rec.totals["edges_added"] += report.edges_added
        rec.totals["edges_retracted"] += report.edges_retracted
        if answers is not None:
            self.note_answers(index, klass, answers)
        self.end_round(index)

    def block_gate(self) -> None:
        self.engine.refresh()
        truth = detect_conflicts(self.db, self.constraints).hypergraph.as_dict()
        self.rec.check(self.engine.hypergraph.as_dict() == truth, "engine != full")

    def oracle_gate(self) -> None:
        db = Database()
        ul, ur = generate_union_pair(db, "ul", "ur", TINY, 0.4, seed=self.seed)
        _index_keys(db, ("ul", "ur"))
        constraints = [ul.fd, ur.fd]
        # Drive the tiny instance through a few bursts first, so the
        # oracle also sees incrementally maintained state.
        engine = HippoEngine(db, constraints)
        dml = self._dml(db)
        for _ in range(6):
            db.execute(dml.next()[1])
        engine.refresh()
        truth = detect_conflicts(db, constraints).hypergraph.as_dict()
        self.rec.check(engine.hypergraph.as_dict() == truth, "tiny: engine != full")
        engine.detach()
        check_against_oracle(self.rec, "tiny", db, constraints, UNION_PAIR_QUERIES)

    def final_gate(self) -> None:
        check_paths_agree(
            self.rec, self.name, self.db, self.constraints, UNION_PAIR_QUERIES
        )

    def gauges(self) -> dict[str, float]:
        graph = self.engine.hypergraph
        return {"edges": len(graph), "vertices": graph.vertex_count}

    def close(self) -> None:
        self.engine.detach()


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (
        CqaLowconf,
        CqaHighconf,
        RewriteNative,
        RewritePushdown,
        DmlReplicated,
        MixedRw,
    )
}
