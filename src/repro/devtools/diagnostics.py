"""Diagnostics and suppression comments for hippolint.

A diagnostic pins a rule violation to ``path:line:col``.  Suppressions are
ordinary comments so they survive formatting and show up in review:

* ``# hippolint: disable=HL003`` -- suppress the listed rules on this line;
* ``# hippolint: disable-next-line=HL003`` -- same, for the following line;
* ``# hippolint: disable-file=HL003`` -- suppress for the whole file.

Several ids may be given separated by commas, and free-form justification
text may follow after ``--``; reviewers should insist on it::

    records, lost = cursor.poll()  # hippolint: disable=HL003 -- auto-commit
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

_SUPPRESSION = re.compile(
    r"#\s*hippolint:\s*(?P<kind>disable|disable-next-line|disable-file)"
    r"\s*=\s*(?P<ids>[A-Za-z0-9_,\s]+)"
)


@dataclass(frozen=True)
class Diagnostic:
    """One rule violation at a precise source location."""

    path: str
    line: int
    col: int
    rule_id: str
    rule_name: str
    message: str

    def render(self) -> str:
        """The conventional ``path:line:col: ID message`` form."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.rule_name}] {self.message}"
        )


@dataclass
class Suppressions:
    """Suppression comments parsed from one file."""

    file_level: set[str] = field(default_factory=set)
    by_line: dict[int, set[str]] = field(default_factory=dict)

    def covers(self, rule_id: str, line: int) -> bool:
        """Whether ``rule_id`` is suppressed at ``line``."""
        if rule_id in self.file_level or "all" in self.file_level:
            return True
        ids = self.by_line.get(line, ())
        return rule_id in ids or "all" in ids


def parse_suppressions(source: str) -> Suppressions:
    """Extract suppression directives from the comments of ``source``.

    Every directive contains the literal text ``hippolint:``, so a file
    without it skips tokenizing.
    """
    suppressions = Suppressions()
    if "hippolint:" not in source:
        return suppressions
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenizeError, SyntaxError, IndentationError):
        return suppressions
    for line, text in comments:
        match = _SUPPRESSION.search(text)
        if match is None:
            continue
        ids = {
            part.strip()
            for part in match.group("ids").split(",")
            if part.strip()
        }
        kind = match.group("kind")
        if kind == "disable-file":
            suppressions.file_level |= ids
        elif kind == "disable-next-line":
            suppressions.by_line.setdefault(line + 1, set()).update(ids)
        else:
            suppressions.by_line.setdefault(line, set()).update(ids)
    return suppressions
