"""Tests for hippolint output formats."""

import json

import pytest

from repro.devtools.cli import main

CLEAN = "x = 1\n"
NOISY = "print('x')\n"  # HL010 in any src/repro module


@pytest.fixture()
def project(tmp_path, monkeypatch):
    """An isolated tree with one noisy and one clean module."""
    package = tmp_path / "src" / "repro" / "engine"
    package.mkdir(parents=True)
    (package / "noisy.py").write_text(NOISY, encoding="utf-8")
    (package / "quiet.py").write_text(CLEAN, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


# ------------------------------------------------------------- formats


def test_text_format_is_the_default(project, capsys):
    assert main(["src"]) == 1
    captured = capsys.readouterr()
    line = captured.out.splitlines()[0]
    assert line.startswith("src/repro/engine/noisy.py:1:")
    assert "HL010" in line and "[no-print]" in line
    assert "finding(s)" in captured.err


def test_json_format_emits_one_document(project, capsys):
    assert main(["src", "--format=json"]) == 1
    captured = capsys.readouterr()
    document = json.loads(captured.out)
    assert document["checked_files"] == 2
    assert document["finding_count"] == len(document["findings"]) == 1
    finding = document["findings"][0]
    assert finding["rule_id"] == "HL010"
    assert finding["rule_name"] == "no-print"
    assert finding["path"] == "src/repro/engine/noisy.py"
    assert finding["line"] == 1
    assert document["elapsed_seconds"] >= 0


def test_json_format_clean_run(project, capsys):
    assert main(["src/repro/engine/quiet.py", "--format=json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["finding_count"] == 0
    assert document["findings"] == []


def test_github_format_emits_workflow_annotations(project, capsys):
    assert main(["src", "--format=github"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    assert out[0].startswith(
        "::error file=src/repro/engine/noisy.py,line=1,col="
    )
    assert "title=HL010 [no-print]::" in out[0]


def test_github_format_encodes_percent_and_newline(capsys, monkeypatch, tmp_path):
    from repro.devtools.cli import _emit_github
    from repro.devtools.diagnostics import Diagnostic

    _emit_github(
        [Diagnostic("p.py", 1, 0, "HL999", "demo", "50% done\nnext")]
    )
    out = capsys.readouterr().out
    assert "50%25 done%0Anext" in out
    assert "\n" not in out.rstrip("\n")


def test_bad_format_is_usage_error(project, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["src", "--format=yaml"])
    assert excinfo.value.code == 2
