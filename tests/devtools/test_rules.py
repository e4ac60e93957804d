"""Per-rule fixture tests for hippolint.

Every registered rule has a paired bad/good fixture under ``_fixtures/``.
Each fixture's first line is a ``# hippolint-fixture: <virtual path>``
header naming the path the text should be analyzed under, so path-scoped
rules see the module they were written for.  The bad fixture must trigger
the rule; the good fixture must not.
"""

from pathlib import Path

import pytest

from repro.devtools import all_rules, analyze_source, get_rule

FIXTURES = Path(__file__).parent / "_fixtures"
HEADER = "# hippolint-fixture:"

RULE_IDS = [rule.id for rule in all_rules()]


def load_fixture(name: str) -> tuple[str, str]:
    """Return (source, virtual_path) for a fixture file."""
    source = (FIXTURES / f"{name}.py").read_text(encoding="utf-8")
    first_line = source.splitlines()[0]
    assert first_line.startswith(HEADER), f"{name}.py lacks a fixture header"
    return source, first_line[len(HEADER) :].strip()


def findings_for(rule_id: str, source: str, path: str) -> list:
    return [
        diagnostic
        for diagnostic in analyze_source(source, path)
        if diagnostic.rule_id == rule_id
    ]


# ------------------------------------------------------------ fixture pairs


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_fixture_fires(rule_id):
    source, path = load_fixture(f"{rule_id}_bad")
    found = findings_for(rule_id, source, path)
    assert found, f"{rule_id}_bad.py produced no {rule_id} diagnostics"
    for diagnostic in found:
        assert diagnostic.rule_name == get_rule(rule_id).name
        assert diagnostic.path == path
        assert diagnostic.line >= 1


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_good_fixture_is_silent(rule_id):
    source, path = load_fixture(f"{rule_id}_good")
    found = findings_for(rule_id, source, path)
    assert not found, f"{rule_id}_good.py triggered: {found}"


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_every_rule_has_fixture_pair(rule_id):
    for suffix in ("bad", "good"):
        fixture = FIXTURES / f"{rule_id}_{suffix}.py"
        assert fixture.is_file(), f"missing fixture {fixture.name}"


def test_no_orphan_fixtures():
    known = set(RULE_IDS)
    for fixture in FIXTURES.glob("*.py"):
        rule_id, _, suffix = fixture.stem.partition("_")
        assert rule_id in known, f"{fixture.name} names unknown rule {rule_id}"
        assert suffix in ("bad", "good"), f"bad fixture suffix: {fixture.name}"


def test_lock_state_covers_the_plain_unlocked_call():
    """HL014 absorbed the lexical manifest-lock rule: a guarded call with
    no ``with self.manifest_lock():`` around it at all is flagged line by
    line, as is the conditional-acquisition case only a CFG can see."""
    source, path = load_fixture("HL014_bad")
    lines = sorted(d.line for d in findings_for("HL014", source, path))
    assert lines == [7, 8, 9, 17]


def test_sql_taint_covers_interpolation_in_the_call():
    """HL015 absorbed the lexical interpolated-SQL rule: every call-site
    form is flagged line by line next to the flows through variables."""
    source, path = load_fixture("HL015_bad")
    lines = sorted(d.line for d in findings_for("HL015", source, path))
    assert lines == [7, 8, 9, 10, 15, 22]


@pytest.mark.parametrize(
    "argument",
    [
        'f"SELECT * FROM {name}"',
        '"SELECT * FROM %s" % name',
        '"SELECT * FROM " + name',
        '"SELECT * FROM {}".format(name)',
    ],
    ids=["f-string", "percent", "plus", "format"],
)
@pytest.mark.parametrize(
    "scope",
    ["def run(db, name):\n    db.execute({})\n", "db.execute({})\n"],
    ids=["function", "module"],
)
def test_sql_taint_flags_each_call_site_form(argument, scope):
    path = "src/repro/engine/example.py"
    found = findings_for("HL015", scope.format(argument), path)
    assert [d.line for d in found] == [scope.count("\n")]


def test_registry_is_complete():
    assert len(RULE_IDS) == 14
    assert RULE_IDS == sorted(RULE_IDS)
    for rule in all_rules():
        assert rule.summary, f"{rule.id} lacks a summary"
        assert rule.rationale, f"{rule.id} lacks a rationale"


# ------------------------------------------------------------- suppressions


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_file_level_suppression_silences_bad_fixture(rule_id):
    source, path = load_fixture(f"{rule_id}_bad")
    suppressed = f"# hippolint: disable-file={rule_id}\n" + source
    assert not findings_for(rule_id, suppressed, path)


def test_line_level_suppression():
    path = "src/repro/engine/util.py"
    noisy = "print('x')\n"
    quiet = "print('x')  # hippolint: disable=HL010\n"
    assert findings_for("HL010", noisy, path)
    assert not findings_for("HL010", quiet, path)


def test_next_line_suppression():
    path = "src/repro/engine/util.py"
    source = "# hippolint: disable-next-line=HL010 -- demo output\nprint('x')\n"
    assert not findings_for("HL010", source, path)


def test_next_line_suppression_only_covers_next_line():
    path = "src/repro/engine/util.py"
    source = "# hippolint: disable-next-line=HL010\nprint('x')\nprint('y')\n"
    found = findings_for("HL010", source, path)
    assert [diagnostic.line for diagnostic in found] == [3]


def test_suppression_is_rule_specific():
    path = "src/repro/engine/util.py"
    source = "print('x')  # hippolint: disable=HL002\n"
    assert findings_for("HL010", source, path)


def test_disable_all():
    path = "src/repro/engine/util.py"
    source = "print('x')  # hippolint: disable=all\n"
    assert not analyze_source(source, path)


# -------------------------------------------------------------- parse errors


def test_syntax_error_yields_hl000():
    diagnostics = analyze_source("def broken(:\n", "src/repro/engine/bad.py")
    assert len(diagnostics) == 1
    assert diagnostics[0].rule_id == "HL000"
    assert "does not parse" in diagnostics[0].message


def test_render_format():
    diagnostics = analyze_source(
        "print('x')\n", "src/repro/engine/util.py"
    )
    found = [d for d in diagnostics if d.rule_id == "HL010"]
    rendered = found[0].render()
    assert rendered.startswith("src/repro/engine/util.py:1:")
    assert "HL010" in rendered and "[no-print]" in rendered
