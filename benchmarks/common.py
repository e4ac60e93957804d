"""Shared setup helpers for the benchmark suite -- and its smoke runner.

Every benchmark mirrors an artifact of the paper's demonstration (see
DESIGN.md's experiment index).  Engines are built once per parameter set
-- Conflict Detection runs before query processing in Hippo's data flow,
so detection cost is *not* part of per-query times (it is measured by its
own benchmark in bench_pipeline.py).

**Smoke mode.**  ``python benchmarks/common.py --smoke`` runs every
``bench_*.py`` at tiny sizes (each module routes its size constants
through :func:`scaled`, which picks the small value when
``REPRO_BENCH_SMOKE=1``) with timing disabled, and fails on any crash,
on the incremental-vs-full speedup bar being missed, or on blowing the
wall-clock budget.  This is the CI gate that keeps every benchmark
runnable without paying full benchmark time.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # script execution without PYTHONPATH=src
    sys.path.insert(0, str(_SRC))

from repro import Database, HippoEngine  # noqa: E402
from repro.rewriting import RewritingEngine  # noqa: E402
from repro.workloads import (  # noqa: E402
    generate_join_pair,
    generate_key_conflict_table,
    generate_union_pair,
)

#: Whether the suite is running under the CI smoke gate.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


def scaled(full, smoke):
    """``full`` normally; ``smoke`` under ``REPRO_BENCH_SMOKE=1``.

    Benchmarks route their size constants through this so the smoke gate
    exercises every scenario at tiny N without a parallel config.
    """
    return smoke if SMOKE else full


@dataclass
class SingleTableSetup:
    """One generated table plus ready-made engines."""

    db: Database
    hippo: HippoEngine
    rewriting: RewritingEngine
    n_tuples: int
    conflict_fraction: float


def single_table(
    n_tuples: int,
    conflict_fraction: float,
    seed: int = 11,
    membership: str = "provenance",
    use_core: bool = True,
) -> SingleTableSetup:
    """``r(a, b0)`` with a key FD and the requested conflict rate."""
    db = Database()
    table = generate_key_conflict_table(
        db, "r", n_tuples, conflict_fraction, seed=seed
    )
    hippo = HippoEngine(db, [table.fd], membership=membership, use_core=use_core)
    rewriting = RewritingEngine(db, [table.fd])
    return SingleTableSetup(db, hippo, rewriting, n_tuples, conflict_fraction)


@dataclass
class TwoTableSetup:
    """Two generated tables (for SJ / SJU / SJUD workloads)."""

    db: Database
    hippo: HippoEngine
    rewriting: RewritingEngine


def join_tables(
    n_tuples: int, conflict_fraction: float, seed: int = 13
) -> TwoTableSetup:
    db = Database()
    left, right = generate_join_pair(
        db, "l", "r", n_tuples, conflict_fraction, seed=seed
    )
    constraints = [left.fd, right.fd]
    return TwoTableSetup(
        db, HippoEngine(db, constraints), RewritingEngine(db, constraints)
    )


def union_tables(
    n_tuples: int, conflict_fraction: float, seed: int = 17
) -> TwoTableSetup:
    db = Database()
    left, right = generate_union_pair(
        db, "l", "r", n_tuples, conflict_fraction, seed=seed
    )
    constraints = [left.fd, right.fd]
    return TwoTableSetup(
        db, HippoEngine(db, constraints), RewritingEngine(db, constraints)
    )


# ---------------------------------------------------------------------------
# Result history (BENCH_<suite>.json at the repo root)
# ---------------------------------------------------------------------------

#: How many runs a suite's result file keeps (oldest dropped first).
HISTORY_KEEP = 3

#: Where BENCH_<suite>.json files live.
RESULTS_DIR = Path(__file__).resolve().parent.parent


def result_path(suite: str) -> Path:
    """The result file for a benchmark suite name (e.g. ``"pipeline"``)."""
    return RESULTS_DIR / f"BENCH_{suite}.json"


def compact_run(run: dict) -> dict:
    """One recorded run, with per-benchmark raw sample arrays stripped.

    pytest-benchmark's JSON carries every raw timing sample under
    ``benchmarks[*].stats.data`` -- thousands of lines per run that the
    summary statistics already describe.  History entries keep only the
    summaries, so a capped history stays a few hundred lines per suite.
    """
    compacted = dict(run)
    benchmarks = []
    for bench in run.get("benchmarks", []):
        bench = dict(bench)
        stats = bench.get("stats")
        if isinstance(stats, dict) and "data" in stats:
            stats = {k: v for k, v in stats.items() if k != "data"}
            bench["stats"] = stats
        benchmarks.append(bench)
    compacted["benchmarks"] = benchmarks
    return compacted


def load_history(path: Path) -> list[dict]:
    """The runs recorded at ``path``, oldest first.

    Tolerates the legacy layout (one bare pytest-benchmark run dict)
    by treating it as a single-entry history.
    """
    import json

    if not path.exists():
        return []
    payload = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(payload, dict) and "history" in payload:
        return list(payload["history"])
    if isinstance(payload, dict):
        return [payload]  # legacy: a single raw run
    return list(payload)


def record_run(path: Path, run: dict, keep: int = HISTORY_KEEP) -> list[dict]:
    """Append ``run`` to the history at ``path``, keeping the last ``keep``.

    Returns the history as written.  Existing legacy single-run files
    are converted (and compacted) on first append.
    """
    import json

    history = [compact_run(entry) for entry in load_history(path)]
    history.append(compact_run(run))
    history = history[-keep:]
    payload = {"keep": keep, "history": history}
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return history


def record_suite(module: Path, result: Path) -> int:
    """Run the benchmark module ``module`` at full size and append its run
    to the history at ``result``.  Prints one ``bench record: OK`` or
    ``bench record: FAIL (...)`` line and returns the exit status: the
    suite's pytest status when it failed, 1 when it passed but timed
    nothing (no ``benchmark`` fixture ran, so there is no run to keep)."""
    import json
    import subprocess
    import tempfile

    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "run.json"
        status = subprocess.call(
            [
                sys.executable,
                "-m",
                "pytest",
                str(module),
                "-q",
                "-p",
                "no:cacheprovider",
                f"--benchmark-json={json_path}",
            ],
            cwd=repo_root,
            env=env,
        )
        if status != 0:
            print(f"bench record: FAIL (pytest exit {status})")
            return status
        try:
            run = json.loads(json_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            run = {}
    if not run.get("benchmarks"):
        print(f"bench record: FAIL ({module.name} timed nothing)")
        return 1
    history = record_run(result, run)
    print(f"bench record: OK ({result.name}, {len(history)} run(s) kept)")
    return 0


def main(argv=None) -> int:
    """The benchmark smoke gate and history recorder (see docstring)."""
    import argparse
    import subprocess
    import time

    parser = argparse.ArgumentParser(description="benchmark suite runner")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run every bench_*.py at tiny N with timing disabled",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=60.0,
        help="wall-clock budget in seconds for --smoke (default 60)",
    )
    parser.add_argument(
        "--record",
        metavar="SUITE",
        help=(
            "run benchmarks/bench_<SUITE>.py at full size and append the"
            f" result to BENCH_<SUITE>.json (last {HISTORY_KEEP} runs kept)"
        ),
    )
    args = parser.parse_args(argv)
    if args.record:
        module = Path(__file__).resolve().parent / f"bench_{args.record}.py"
        if not module.is_file():
            parser.error(f"no such suite: {module.name}")
        return record_suite(module, result_path(args.record))
    if not args.smoke:
        parser.error(
            "pass --smoke (or --record SUITE; full runs go through"
            " pytest-benchmark)"
        )

    bench_dir = Path(__file__).resolve().parent
    repo_root = bench_dir.parent
    env = dict(os.environ)
    env["REPRO_BENCH_SMOKE"] = "1"
    env["PYTHONPATH"] = str(repo_root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    benches = sorted(bench_dir.glob("bench_*.py"))
    started = time.perf_counter()
    status = subprocess.call(
        [
            sys.executable,
            "-m",
            "pytest",
            *[str(path) for path in benches],
            "-q",
            "-p",
            "no:cacheprovider",
            "--benchmark-disable",
        ],
        cwd=repo_root,
        env=env,
    )
    elapsed = time.perf_counter() - started
    if status != 0:
        print(f"bench smoke: FAIL (pytest exit {status})")
        return status
    if elapsed > args.budget:
        print(
            f"bench smoke: FAIL ({elapsed:.1f}s exceeded the"
            f" {args.budget:.0f}s budget)"
        )
        return 1
    print(f"bench smoke: OK ({elapsed:.1f}s, budget {args.budget:.0f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
