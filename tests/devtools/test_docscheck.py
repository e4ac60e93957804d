"""Tests for the docs checker behind the CI ``docs`` job."""

from __future__ import annotations

from pathlib import Path

from repro.devtools import all_rules
from repro.devtools.docscheck import (
    check_file_links,
    check_rule_table,
    heading_anchors,
    main,
    run,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def rule_table(root: Path) -> None:
    """Write a CONTRIBUTING.md whose table lists every live rule."""
    rows = "\n".join(f"| `{rule.id}` | x | y |" for rule in all_rules())
    (root / "CONTRIBUTING.md").write_text(
        "# Contributing\n\n| Rule | Invariant | Twin |\n| --- | --- | --- |\n"
        + rows
        + "\n"
    )


def seed_tree(root: Path) -> None:
    """A minimal passing docs tree."""
    (root / "docs").mkdir()
    (root / "README.md").write_text(
        "# Demo\n\nSee [the docs](docs/GUIDE.md) and"
        " [contributing](CONTRIBUTING.md).\n"
    )
    (root / "docs" / "GUIDE.md").write_text(
        "# Guide\n\n## Deep Dive\n\nBack to [README](../README.md#demo)"
        " and [below](#deep-dive).\n"
    )
    rule_table(root)


class TestHeadingAnchors:
    def test_github_slugging(self):
        anchors = heading_anchors(
            "# Top Level\n## The `plan` cache, explained!\n### a--b\n"
        )
        assert "top-level" in anchors
        assert "the-plan-cache-explained" in anchors
        assert "a--b" in anchors


class TestLinks:
    def test_passing_tree(self, tmp_path):
        seed_tree(tmp_path)
        assert run(tmp_path) == []

    def test_broken_file_link(self, tmp_path):
        seed_tree(tmp_path)
        (tmp_path / "README.md").write_text("# Demo\n\n[gone](docs/MISSING.md)\n")
        findings = run(tmp_path)
        assert any("broken link -> docs/MISSING.md" in f for f in findings)

    def test_broken_fragment(self, tmp_path):
        seed_tree(tmp_path)
        (tmp_path / "README.md").write_text("# Demo\n\n[bad](docs/GUIDE.md#nope)\n")
        findings = run(tmp_path)
        assert any("names no heading #nope" in f for f in findings)

    def test_same_file_fragment(self, tmp_path):
        seed_tree(tmp_path)
        path = tmp_path / "docs" / "GUIDE.md"
        assert check_file_links(path, tmp_path) == []
        path.write_text("# Guide\n\n[dangling](#missing-section)\n")
        assert check_file_links(path, tmp_path)

    def test_external_links_ignored(self, tmp_path):
        seed_tree(tmp_path)
        (tmp_path / "README.md").write_text(
            "# Demo\n\n[a](https://example.com/x) [b](http://example.com)"
            " [c](mailto:x@example.com)\n"
        )
        assert run(tmp_path) == []

    def test_fragment_on_non_markdown_target_only_needs_the_file(
        self, tmp_path
    ):
        seed_tree(tmp_path)
        (tmp_path / "code.py").write_text("x = 1\n")
        (tmp_path / "README.md").write_text("# Demo\n\n[src](code.py#L1)\n")
        assert run(tmp_path) == []


class TestRuleTable:
    def test_complete_table_passes(self, tmp_path):
        rule_table(tmp_path)
        assert check_rule_table(tmp_path) == []

    def test_missing_rule_row_is_a_finding(self, tmp_path):
        rule_table(tmp_path)
        text = (tmp_path / "CONTRIBUTING.md").read_text()
        victim = all_rules()[-1]
        (tmp_path / "CONTRIBUTING.md").write_text(
            text.replace(f"| `{victim.id}` | x | y |\n", "")
        )
        findings = check_rule_table(tmp_path)
        assert findings == [
            f"CONTRIBUTING.md: rule table lacks a row for"
            f" {victim.id} [{victim.name}]"
        ]

    def test_row_for_an_unregistered_rule_is_a_finding(self, tmp_path):
        rule_table(tmp_path)
        with open(tmp_path / "CONTRIBUTING.md", "a") as handle:
            handle.write("| `HL001` manifest-lock | gone | gone |\n")
            # Prose may still mention a retired id; only rows count.
            handle.write("\n`HL001` was absorbed by `HL014`.\n")
        assert check_rule_table(tmp_path) == [
            "CONTRIBUTING.md: rule table has a row for HL001,"
            " which is not a registered rule"
        ]

    def test_missing_contributing_is_a_finding(self, tmp_path):
        assert check_rule_table(tmp_path) == [
            "CONTRIBUTING.md: missing (the rule table lives here)"
        ]


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        seed_tree(tmp_path)
        assert main([str(tmp_path)]) == 0
        assert "docscheck: OK" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        seed_tree(tmp_path)
        (tmp_path / "README.md").write_text("# Demo\n\n[gone](nope.md)\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "broken link -> nope.md" in out
        assert "1 finding(s)" in out

    def test_bad_usage_exits_two(self, tmp_path):
        assert main(["a", "b"]) == 2
        assert main([str(tmp_path / "not-a-dir")]) == 2


def test_the_repo_itself_is_clean():
    """The dogfood gate: this repository's docs pass its own checker."""
    assert run(REPO_ROOT) == []
