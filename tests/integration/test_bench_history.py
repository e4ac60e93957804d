"""Tests for the capped benchmark result history in benchmarks/common.py."""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from common import (  # noqa: E402
    HISTORY_KEEP,
    compact_run,
    load_history,
    record_run,
)


def fake_run(tag):
    return {
        "datetime": f"2026-08-0{tag}T00:00:00",
        "benchmarks": [
            {
                "name": f"test_bench_{tag}",
                "stats": {
                    "mean": 0.5,
                    "min": 0.4,
                    "max": 0.6,
                    "data": [0.4, 0.5, 0.6] * 100,
                },
            }
        ],
    }


class TestCompaction:
    def test_raw_samples_stripped(self):
        compacted = compact_run(fake_run(1))
        stats = compacted["benchmarks"][0]["stats"]
        assert "data" not in stats
        assert stats["mean"] == 0.5 and stats["min"] == 0.4

    def test_original_untouched(self):
        run = fake_run(1)
        compact_run(run)
        assert "data" in run["benchmarks"][0]["stats"]

    def test_tolerates_missing_fields(self):
        assert compact_run({})["benchmarks"] == []
        assert compact_run({"benchmarks": [{"name": "x"}]})["benchmarks"] == [
            {"name": "x"}
        ]


class TestHistory:
    def test_first_record_creates_capped_file(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        history = record_run(path, fake_run(1))
        assert len(history) == 1
        payload = json.loads(path.read_text())
        assert payload["keep"] == HISTORY_KEEP
        assert len(payload["history"]) == 1
        assert "data" not in payload["history"][0]["benchmarks"][0]["stats"]

    def test_history_caps_at_keep_dropping_oldest(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        for tag in range(1, 6):
            record_run(path, fake_run(tag), keep=3)
        history = load_history(path)
        assert len(history) == 3
        assert [run["datetime"][9] for run in history] == ["3", "4", "5"]

    def test_legacy_single_run_file_converts(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(fake_run(1)))
        assert len(load_history(path)) == 1  # read as one-entry history
        history = record_run(path, fake_run(2))
        assert len(history) == 2
        assert "data" not in history[0]["benchmarks"][0]["stats"]

    def test_missing_file_is_empty_history(self, tmp_path):
        assert load_history(tmp_path / "nope.json") == []


class TestRepoResultFiles:
    """The checked-in result files are already in capped-history form."""

    def test_converted_and_compact(self):
        for name in ("BENCH_pipeline.json", "BENCH_feed_replay.json"):
            payload = json.loads((REPO_ROOT / name).read_text())
            assert payload["keep"] == HISTORY_KEEP
            assert 1 <= len(payload["history"]) <= payload["keep"]
            for run in payload["history"]:
                for bench in run["benchmarks"]:
                    assert "data" not in bench["stats"]


class TestRecordSuite:
    """``--record`` on a suite: a run with nothing timed is a loud FAIL."""

    def test_a_suite_that_timed_nothing_fails_loudly(self, tmp_path, capsys):
        from common import record_suite

        module = tmp_path / "bench_untimed.py"
        module.write_text("def test_untimed():\n    assert True\n")
        result = tmp_path / "BENCH_untimed.json"
        assert record_suite(module, result) == 1
        assert "bench record: FAIL (bench_untimed.py timed nothing)" in (
            capsys.readouterr().out
        )
        assert not result.exists()

    def test_a_timed_suite_is_recorded(self, tmp_path, capsys):
        from common import record_suite

        module = tmp_path / "bench_timed.py"
        module.write_text(
            "def test_timed(benchmark):\n"
            "    benchmark.pedantic(sum, args=([1, 2],), rounds=1)\n"
        )
        result = tmp_path / "BENCH_timed.json"
        assert record_suite(module, result) == 0
        assert "bench record: OK (BENCH_timed.json, 1 run(s) kept)" in (
            capsys.readouterr().out
        )
        assert [b["name"] for b in load_history(result)[0]["benchmarks"]] == [
            "test_timed"
        ]
