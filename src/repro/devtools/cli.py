"""The ``hippolint`` console entry point.

Exit status 0 means no diagnostics; 1 means findings (or parse errors);
2 means bad usage.  The default ``text`` format prints one
``path:line:col: ID [name] message`` line per finding; ``--format=json``
emits a single machine-readable document on stdout and
``--format=github`` emits GitHub Actions workflow annotations.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from repro.devtools.diagnostics import Diagnostic
from repro.devtools.framework import all_rules, analyze_paths

FORMATS = ("text", "json", "github")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hippolint",
        description=(
            "AST-based invariant analyzer for the repro durability and"
            " concurrency protocol"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to check (default: src tests)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="ID",
        help="run only the given rule id (repeatable, e.g. --select HL003)",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        dest="output_format",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every registered rule and exit",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the summary line on success",
    )
    return parser


def _emit_text(diagnostics: list[Diagnostic]) -> None:
    for diagnostic in diagnostics:
        print(diagnostic.render())


def _emit_json(
    diagnostics: list[Diagnostic], checked: int, elapsed: float
) -> None:
    document = {
        "checked_files": checked,
        "elapsed_seconds": round(elapsed, 3),
        "finding_count": len(diagnostics),
        "findings": [
            {
                "path": d.path,
                "line": d.line,
                "col": d.col,
                "rule_id": d.rule_id,
                "rule_name": d.rule_name,
                "message": d.message,
            }
            for d in diagnostics
        ],
    }
    print(json.dumps(document, indent=2, sort_keys=True))


def _emit_github(diagnostics: list[Diagnostic]) -> None:
    for d in diagnostics:
        # Workflow-command annotations; GitHub renders them inline on
        # the PR diff.  Newlines must be URL-encoded per the spec.
        message = d.message.replace("%", "%25").replace("\n", "%0A")
        print(
            f"::error file={d.path},line={d.line},col={d.col},"
            f"title={d.rule_id} [{d.rule_name}]::{message}"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the analyzer; returns the process exit status."""
    options = _build_parser().parse_args(argv)
    if options.list_rules:
        for rule in all_rules():
            print(f"{rule.id} [{rule.name}]")
            print(f"    {rule.summary}")
            print(f"    rationale: {rule.rationale}")
        return 0
    started = time.perf_counter()
    diagnostics, checked = analyze_paths(options.paths, options.select)
    elapsed = time.perf_counter() - started
    if options.output_format == "json":
        _emit_json(diagnostics, checked, elapsed)
    elif options.output_format == "github":
        _emit_github(diagnostics)
    else:
        _emit_text(diagnostics)
    if diagnostics:
        print(
            f"hippolint: {len(diagnostics)} finding(s) in {checked} file(s)"
            f" [{elapsed:.2f}s]",
            file=sys.stderr,
        )
        return 1
    if not options.quiet:
        print(
            f"hippolint: clean ({checked} file(s) checked in {elapsed:.2f}s)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
