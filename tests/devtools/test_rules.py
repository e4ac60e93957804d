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
from repro.devtools.diagnostics import Suppressions, parse_suppressions

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


# Every diagnostic each bad fixture produces, from every rule, as
# ``line:col ID message`` -- recorded before the rules moved onto the
# module's node index, so a change in what a rule sees shows here.
EXPECTED_BAD_FINDINGS = {
    "HL002": (
        "7:0 HL009 def atomic_json() is missing annotations for: path,"
        " payload",
        "7:0 HL011 public def atomic_json has no docstring; state its"
        " contract (concurrency, invalidation, errors)",
        "11:4 HL002 os.replace() publishes a file whose contents were not"
        " fsync'ed first; call os.fsync on the handle before renaming",
        "14:0 HL011 public class SegmentLog has no docstring; state its"
        " contract (concurrency, invalidation, errors)",
        "16:0 HL002 _store_manifest() names segments that _write_sealed()"
        " has not persisted yet; seal segment data before committing the"
        " manifest",
    ),
    "HL003": (
        "8:8 HL003 self._consumer.commit() follows poll() with no evidence"
        " the polled records were applied in between; apply first so a crash"
        " after commit cannot lose records",
    ),
    "HL004": (
        "5:0 HL009 def patch() is missing annotations for: graph, vtx, edge",
        "6:4 HL004 access to ConflictHypergraph internal `_position` outside"
        " conflicts/hypergraph.py; use add_edge()/remove_edge()",
        "7:4 HL004 access to ConflictHypergraph internal `_incidence`"
        " outside conflicts/hypergraph.py; use add_edge()/remove_edge()",
        "8:4 HL004 mutating `edges.append()` outside conflicts/hypergraph.py"
        " bypasses add_edge()/remove_edge()",
        "10:4 HL004 access to ConflictHypergraph internal `_labels` outside"
        " conflicts/hypergraph.py; use add_edge()/remove_edge()",
    ),
    "HL005": (
        "4:0 HL016 layer 'repairs' must not import from 'core'"
        " (repro.core.facts); allowed: ['conflicts', 'constraints',"
        " 'engine', 'errors', 'ra', 'sql']",
        "7:0 HL009 def probe() is missing annotations for: relation, tid,"
        " values",
        "8:11 HL005 raw Vertex(...) does not lower-case the relation; use"
        " vertex(...) or suppress with a note proving the relation is"
        " already normalized",
        "8:34 HL005 raw Fact(...) does not lower-case the relation; use"
        " fact(...) or suppress with a note proving the relation is already"
        " normalized",
    ),
    "HL006": (
        "6:0 HL009 def read_segment() is missing annotations for: path",
        "6:0 HL011 public def read_segment has no docstring; state its"
        " contract (concurrency, invalidation, errors)",
        "9:4 HL006 bare `except:` catches KeyboardInterrupt and SystemExit;"
        " name the exceptions",
        "13:0 HL009 def sweep() is missing annotations for: paths",
        "13:0 HL011 public def sweep has no docstring; state its contract"
        " (concurrency, invalidation, errors)",
        "17:8 HL006 handler swallows a broad exception class in the"
        " durability core; handle it or let it propagate",
        "21:0 HL009 def reopen() is missing annotations for: path",
        "21:0 HL011 public def reopen has no docstring; state its contract"
        " (concurrency, invalidation, errors)",
        "22:9 HL006 contextlib.suppress of a broad exception class hides"
        " feed failures; suppress specific OS errors only",
    ),
    "HL007": (
        "6:0 HL009 def store_offsets() is missing annotations for: handle,"
        " offsets",
        "6:0 HL011 public def store_offsets has no docstring; state its"
        " contract (concurrency, invalidation, errors)",
        "7:4 HL007 json.dump() without allow_nan=False can emit"
        " NaN/Infinity, which is unparseable on replay; non-finite floats"
        " must go through encode_value",
        "10:0 HL009 def envelope() is missing annotations for: record",
        "10:0 HL011 public def envelope has no docstring; state its contract"
        " (concurrency, invalidation, errors)",
        "11:11 HL007 json.dumps() without allow_nan=False can emit"
        " NaN/Infinity, which is unparseable on replay; non-finite floats"
        " must go through encode_value",
    ),
    "HL008": (
        "3:0 HL008 import of `random` in deterministic planning code",
        "8:0 HL009 def pick_shard() is missing annotations for: topics",
        "8:0 HL011 public def pick_shard has no docstring; state its"
        " contract (concurrency, invalidation, errors)",
        "9:7 HL008 `time.time()` makes planning output depend on the wall"
        " clock",
        "11:12 HL008 `datetime.now()` makes planning output depend on the"
        " wall clock",
        "12:18 HL008 builtin hash() is salted per process; use sort_key or"
        " an explicit stable key",
    ),
    "HL009": (
        "5:0 HL009 def widen() is missing annotations for: span, margin,"
        " return",
        "10:4 HL009 def seek() is missing annotations for: offset",
        "13:4 HL009 def tell() is missing annotations for: return",
    ),
    "HL010": (
        "5:0 HL009 def rotate() is missing annotations for: segment",
        "5:0 HL011 public def rotate has no docstring; state its contract"
        " (concurrency, invalidation, errors)",
        "6:4 HL010 print() in library code; raise, log via the caller, or"
        " return the value instead",
    ),
    "HL011": (
        "5:0 HL011 public class PlanCacheLike has no docstring; state its"
        " contract (concurrency, invalidation, errors)",
        "6:4 HL011 public def get has no docstring; state its contract"
        " (concurrency, invalidation, errors)",
        "9:4 HL011 public def put has no docstring; state its contract"
        " (concurrency, invalidation, errors)",
        "13:0 HL011 public def normalize has no docstring; state its"
        " contract (concurrency, invalidation, errors)",
    ),
    "HL013": (
        "11:17 HL013 segment writer popped from self._writers may never be"
        " closed on an exception path out of rotate(); close it in"
        " try/finally or hand ownership off before anything can raise",
        "17:17 HL013 file handle from open() may never be closed on an"
        " exception path out of read_all(); close it in try/finally or hand"
        " ownership off before anything can raise",
    ),
    "HL014": (
        "5:0 HL011 public class SegmentLog has no docstring; state its"
        " contract (concurrency, invalidation, errors)",
        "6:4 HL011 public def reclaim has no docstring; state its contract"
        " (concurrency, invalidation, errors)",
        "7:8 HL014 _merge_disk_retention() mutates manifest/segment state"
        " and can execute with self.manifest_lock() not held on some path"
        " into this call",
        "8:8 HL014 _sweep_orphans() mutates manifest/segment state and can"
        " execute with self.manifest_lock() not held on some path into this"
        " call",
        "9:8 HL014 the manifest write via atomic_json() can execute with"
        " self.manifest_lock() not held on some path into this call",
        "11:4 HL011 public def compact has no docstring; state its contract"
        " (concurrency, invalidation, errors)",
        "17:8 HL014 _sweep_orphans() mutates manifest/segment state and can"
        " execute with self.manifest_lock() not held on some path into this"
        " call",
    ),
    "HL015": (
        "6:0 HL009 def store() is missing annotations for: db, conn, name,"
        " tid, row",
        "7:4 HL015 SQL built by interpolation reaches an execute sink;"
        " render through ra/to_sql.py parameterization instead",
        "8:4 HL015 SQL built by interpolation reaches an execute sink;"
        " render through ra/to_sql.py parameterization instead",
        "9:4 HL015 SQL built by interpolation reaches an execute sink;"
        " render through ra/to_sql.py parameterization instead",
        "10:4 HL015 SQL built by interpolation reaches an execute sink;"
        " render through ra/to_sql.py parameterization instead",
        "15:11 HL015 SQL built by interpolation reaches an execute sink;"
        " render through ra/to_sql.py parameterization instead",
        "22:4 HL015 SQL built by interpolation reaches an execute sink;"
        " render through ra/to_sql.py parameterization instead",
    ),
    "HL016": (
        "5:0 HL016 layer 'engine' must not import from 'conflicts'"
        " (repro.conflicts); allowed: ['errors', 'sql']",
        "6:0 HL016 layer 'engine' must not import from 'backends'"
        " (repro.backends.sqlite); allowed: ['errors', 'sql']",
    ),
}


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
def test_bad_fixture_findings_are_pinned(rule_id):
    source, path = load_fixture(f"{rule_id}_bad")
    found = [
        f"{d.line}:{d.col} {d.rule_id} {d.message}"
        for d in analyze_source(source, path)
    ]
    assert found == list(EXPECTED_BAD_FINDINGS[rule_id])


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


def test_directive_in_a_string_literal_suppresses_nothing():
    assert parse_suppressions('x = "# hippolint: disable=HL007"\n') == (
        Suppressions()
    )
    path = "src/repro/engine/util.py"
    source = 'import json\njson.dumps(1, indent="# hippolint: disable=HL007")\n'
    assert [d.line for d in findings_for("HL007", source, path)] == [2]


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
