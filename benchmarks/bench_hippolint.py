"""Analyzer timing budget: a full hippolint run stays under 5 seconds.

The flow-sensitive rules (HL013-HL016) build CFGs and run dataflow to
fixpoint; lexical pre-filters keep that work bounded to the handful of
functions that can actually produce findings.  This gate pins the
property: a run over the whole tree (every run is cold -- there is no
result cache) must finish
inside the budget, or the analyzer has stopped being something people
run on every change.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.devtools.framework import analyze_paths

#: Wall-clock ceiling for a cold full-tree run, in seconds.
BUDGET_SECONDS = 5.0

_REPO_ROOT = Path(__file__).resolve().parent.parent


def test_full_tree_run_within_budget(benchmark):
    src = str(_REPO_ROOT / "src")
    tests = str(_REPO_ROOT / "tests")

    def run() -> tuple[int, float]:
        started = time.perf_counter()
        diagnostics, checked = analyze_paths([src, tests])
        elapsed = time.perf_counter() - started
        assert not diagnostics, [d.render() for d in diagnostics]
        return checked, elapsed

    checked, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["checked_files"] = checked
    assert checked > 100, "expected to sweep the whole tree"
    assert elapsed <= BUDGET_SECONDS, (
        f"hippolint full-tree run took {elapsed:.2f}s,"
        f" over the {BUDGET_SECONDS:.1f}s budget"
    )
