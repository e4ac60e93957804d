"""OPT-2: the certain core short-cut, and its dual.

The paper: "using an expression selecting a subset of the set of
consistent query answers, we can significantly reduce the number of
tuples that have to be processed by Prover."  Series: core on vs. off.
With 5% conflicts, ~95% of candidates are certain and skip the Prover;
on this full scan every other candidate has one witness row, which is
dirty, so the envelope refutes it.  Core on, the Prover sees nothing --
asserted, so the benchmark smoke run (``benchmarks/common.py --smoke``)
gates both short-cuts; core off, it sees every candidate.
"""

from __future__ import annotations

import pytest

from benchmarks.common import scaled, single_table
from repro.workloads import full_scan_query

N_TUPLES = scaled(3000, 250)
CONFLICTS = 0.05


@pytest.fixture(scope="module", params=[True, False], ids=["core-on", "core-off"])
def setup(request):
    return single_table(N_TUPLES, CONFLICTS, use_core=request.param), request.param


@pytest.mark.benchmark(group="opt2-core")
def test_opt2_core_shortcut(benchmark, setup):
    built, use_core = setup
    query = full_scan_query("r").sql
    answers = benchmark(lambda: built.hippo.consistent_answers(query))
    benchmark.extra_info["use_core"] = use_core
    benchmark.extra_info["candidates"] = answers.stats["candidates"]
    benchmark.extra_info["skipped_by_core"] = answers.stats["skipped_by_core"]
    benchmark.extra_info["refuted"] = answers.stats["refuted"]
    checked = answers.stats["prover"].candidates_checked
    benchmark.extra_info["prover_checked"] = checked
    if use_core:
        # The core spares the vast majority of candidates, the refuted
        # set the rest: nothing reaches the Prover.
        assert answers.stats["certain"] >= 0.9 * answers.stats["candidates"]
        assert answers.stats["skipped_by_core"] == answers.stats["candidates"]
        assert checked == 0
    else:
        assert answers.stats["skipped_by_core"] == 0
        assert checked == answers.stats["candidates"]
