"""Backend pushdown: native engine vs SQLite on the CQA hot paths.

The paper's rewriting baseline produces plain first-order SQL -- exactly
the workload a pushdown backend exists for.  This suite times the two
pushed shapes at N = 16k (consistent-query answering through the
rewriting baseline, and conflict detection's residual joins) on the
native engine and on the SQLite backend, plus two DML shapes, each
followed by one pushed consistent query so every query pays the
mirror's catch-up with the change feed: a burst of ``BURST_ROWS``
single-key UPDATEs (the mirror applies the changed rows) and one bulk
UPDATE of every row (the batch touches more than 40 % of the table, so
the mirror is copied whole instead).  It
**gates correctness at bench scale**: the backend's consistent answers
and conflict edges must equal the native oracle's exactly (after every
burst or bulk UPDATE, for the DML shapes) before any timing is
reported.

Record a full run into ``BENCH_backend_pushdown.json`` (capped history,
see :mod:`benchmarks.common`) with::

    python benchmarks/common.py --record backend_pushdown
"""

from __future__ import annotations

import random
import time

import pytest

from repro import Database
from repro.backends import SQLiteBackend
from repro.conflicts import detect_conflicts
from repro.rewriting import RewritingEngine
from repro.workloads import generate_key_conflict_table

from benchmarks.common import scaled

N_TUPLES = scaled(16_000, 300)
CONFLICTS = 0.05
TRIALS = 3

#: A rewritable consistent query (selection on the key-FD table).
CQA_SQL = "SELECT a, b0 FROM r WHERE b0 >= 500000"

#: Single-key UPDATEs per DML burst (a conflicting key moves two rows).
BURST_ROWS = scaled(8, 4)


@pytest.fixture(scope="module")
def setup():
    db = Database()
    table = generate_key_conflict_table(db, "r", N_TUPLES, CONFLICTS, seed=29)
    # The rewriting's NOT EXISTS residue probes r by key; without this
    # index the native baseline is a quadratic scan at 16k tuples.
    db.execute("CREATE INDEX idx_r_key ON r (a)")
    rewriting = RewritingEngine(db, [table.fd])
    sqlite = SQLiteBackend()
    sqlite.attach(db)
    yield db, table, rewriting, sqlite
    sqlite.close()


@pytest.fixture(scope="module")
def dml_setup():
    """A second copy of the data, so DML bursts leave ``setup`` intact."""
    db = Database()
    table = generate_key_conflict_table(db, "r", N_TUPLES, CONFLICTS, seed=29)
    db.execute("CREATE INDEX idx_r_key ON r (a)")
    keys = sorted({row[0] for row in db.catalog.table("r").rows()})
    rewriting = RewritingEngine(db, [table.fd])
    sqlite = SQLiteBackend()
    sqlite.attach(db)
    sqlite.sync()  # the first mirror build is set-up
    rng = random.Random(31)

    def burst():
        for _ in range(BURST_ROWS):
            db.execute(
                f"UPDATE r SET b0 = {rng.randrange(1_000_000)}"
                f" WHERE a = {rng.choice(keys)}"
            )

    yield db, burst, rewriting, sqlite
    sqlite.close()


@pytest.fixture(scope="module")
def bulk_setup(dml_setup):
    """``dml_setup`` with a bulk UPDATE that changes every row."""
    db, _burst, rewriting, sqlite = dml_setup

    def bulk():
        db.execute("UPDATE r SET b0 = 999999 - b0")

    return db, bulk, rewriting, sqlite


def min_of_trials(run):
    best = float("inf")
    for _ in range(TRIALS):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


# ---------------------------------------------------------------- the gates


def test_gate_consistent_answers_match_oracle(setup):
    """SQLite's rewritten-CQA answers equal the native oracle's at 16k."""
    db, _table, rewriting, sqlite = setup
    pushed = rewriting.consistent_answers(CQA_SQL, backend=sqlite)
    assert db.stats.backend_fallbacks == 0  # a real pushdown, not the oracle
    native = rewriting.consistent_answers(CQA_SQL)
    assert pushed.columns == native.columns
    assert pushed.rows == native.rows
    assert len(native.rows) > 0


def test_gate_conflict_edges_match_oracle(setup):
    """SQLite's residual-join edges equal the native oracle's at 16k."""
    db, table, _rewriting, sqlite = setup
    pushed = detect_conflicts(db, [table.fd], backend=sqlite)
    assert db.stats.backend_fallbacks == 0
    native = detect_conflicts(db, [table.fd])
    assert set(pushed.hypergraph.edges) == set(native.hypergraph.edges)
    assert len(native.hypergraph.edges) > 0


@pytest.mark.parametrize("shape", ["dml_setup", "bulk_setup"])
def test_gate_dml_then_pushdown_matches_oracle(shape, request):
    """After every burst (or bulk UPDATE), the pushed answers equal the
    native oracle's."""
    db, change, rewriting, sqlite = request.getfixturevalue(shape)
    for _ in range(3):
        change()
        pushed = rewriting.consistent_answers(CQA_SQL, backend=sqlite)
        assert db.stats.backend_fallbacks == 0
        native = rewriting.consistent_answers(CQA_SQL)
        assert pushed.columns == native.columns
        assert pushed.rows == native.rows


# -------------------------------------------------------------- the timings


@pytest.mark.benchmark(group="pushdown-cqa")
def test_cqa_native(benchmark, setup):
    _db, _table, rewriting, _sqlite = setup
    result = benchmark(lambda: rewriting.consistent_answers(CQA_SQL))
    benchmark.extra_info["rows"] = len(result.rows)


@pytest.mark.benchmark(group="pushdown-cqa")
def test_cqa_sqlite(benchmark, setup):
    _db, _table, rewriting, sqlite = setup
    result = benchmark(
        lambda: rewriting.consistent_answers(CQA_SQL, backend=sqlite)
    )
    benchmark.extra_info["rows"] = len(result.rows)


@pytest.mark.benchmark(group="pushdown-detection")
def test_detection_native(benchmark, setup):
    db, table, _rewriting, _sqlite = setup
    report = benchmark(lambda: detect_conflicts(db, [table.fd]))
    benchmark.extra_info["edges"] = len(report.hypergraph)


@pytest.mark.benchmark(group="pushdown-detection")
def test_detection_sqlite(benchmark, setup):
    db, table, _rewriting, sqlite = setup
    report = benchmark(
        lambda: detect_conflicts(db, [table.fd], backend=sqlite)
    )
    benchmark.extra_info["edges"] = len(report.hypergraph)


@pytest.mark.benchmark(group="pushdown-dml")
def test_dml_then_cqa_native(benchmark, dml_setup):
    _db, burst, rewriting, _sqlite = dml_setup

    def run():
        burst()
        return rewriting.consistent_answers(CQA_SQL)

    benchmark.extra_info["rows"] = len(benchmark(run).rows)


@pytest.mark.benchmark(group="pushdown-dml")
def test_dml_then_cqa_sqlite(benchmark, dml_setup):
    _db, burst, rewriting, sqlite = dml_setup

    def run():
        burst()
        return rewriting.consistent_answers(CQA_SQL, backend=sqlite)

    benchmark.extra_info["rows"] = len(benchmark(run).rows)


@pytest.mark.benchmark(group="pushdown-bulk-dml")
def test_bulk_dml_then_cqa_native(benchmark, bulk_setup):
    _db, bulk, rewriting, _sqlite = bulk_setup

    def run():
        bulk()
        return rewriting.consistent_answers(CQA_SQL)

    benchmark.extra_info["rows"] = len(benchmark(run).rows)


@pytest.mark.benchmark(group="pushdown-bulk-dml")
def test_bulk_dml_then_cqa_sqlite(benchmark, bulk_setup):
    _db, bulk, rewriting, sqlite = bulk_setup

    def run():
        bulk()
        return rewriting.consistent_answers(CQA_SQL, backend=sqlite)

    benchmark.extra_info["rows"] = len(benchmark(run).rows)


def test_report_min_of_trials(setup, capsys):
    """A one-line native-vs-SQLite summary, independent of the plugin."""
    db, table, rewriting, sqlite = setup
    sqlite.sync()  # exclude the first mirror build from the timings
    native_cqa = min_of_trials(lambda: rewriting.consistent_answers(CQA_SQL))
    sqlite_cqa = min_of_trials(
        lambda: rewriting.consistent_answers(CQA_SQL, backend=sqlite)
    )
    native_det = min_of_trials(lambda: detect_conflicts(db, [table.fd]))
    sqlite_det = min_of_trials(
        lambda: detect_conflicts(db, [table.fd], backend=sqlite)
    )
    with capsys.disabled():
        print(
            f"\npushdown @ N={N_TUPLES}: cqa native {native_cqa * 1e3:.1f}ms"
            f" vs sqlite {sqlite_cqa * 1e3:.1f}ms; detection native"
            f" {native_det * 1e3:.1f}ms vs sqlite {sqlite_det * 1e3:.1f}ms"
        )
    assert min(native_cqa, sqlite_cqa, native_det, sqlite_det) > 0
