"""DEMO-3b: running time vs conflict percentage.

N fixed at 4000, conflict rate swept 0..30%.  Expected shape: raw SQL is
flat (it ignores conflicts); rewriting is roughly flat (it pays the
residue work for every tuple regardless); Hippo stays below rewriting and
nearly flat too: a selection over one keyed table gives each candidate
one witness row, so the candidates that fall out of the certain core are
refuted by the envelope and the Prover checks none of them.
"""

from __future__ import annotations

import pytest

from benchmarks.common import scaled, single_table
from repro.workloads import selection_query

N_TUPLES = scaled(4000, 250)
RATES = scaled([0.0, 0.05, 0.15, 0.30], [0.0, 0.15])


@pytest.fixture(scope="module", params=RATES)
def setup(request):
    return single_table(N_TUPLES, request.param)


@pytest.mark.benchmark(group="demo3b-conflicts")
def test_demo3b_raw_sql(benchmark, setup):
    query = selection_query("r").sql
    benchmark(lambda: setup.hippo.raw_answers(query))
    benchmark.extra_info["conflict_rate"] = setup.conflict_fraction


@pytest.mark.benchmark(group="demo3b-conflicts")
def test_demo3b_hippo(benchmark, setup):
    query = selection_query("r").sql
    answers = benchmark(lambda: setup.hippo.consistent_answers(query))
    benchmark.extra_info["conflict_rate"] = setup.conflict_fraction
    benchmark.extra_info["prover_checked"] = answers.stats[
        "prover"
    ].candidates_checked
    benchmark.extra_info["skipped_by_core"] = answers.stats["skipped_by_core"]
    benchmark.extra_info["refuted"] = answers.stats["refuted"]


@pytest.mark.benchmark(group="demo3b-conflicts")
def test_demo3b_rewriting(benchmark, setup):
    query = selection_query("r").sql
    answers = benchmark(lambda: setup.rewriting.consistent_answers(query))
    benchmark.extra_info["conflict_rate"] = setup.conflict_fraction
    assert answers.as_set() == setup.hippo.consistent_answers(query).as_set()
