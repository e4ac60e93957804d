"""Documentation checker: the CI ``docs`` job's engine.

Two guarantees keep the docs tree honest as the code grows:

* every **internal link** in ``README.md``, ``CONTRIBUTING.md`` and
  ``docs/**/*.md`` resolves -- the target file exists relative to the
  linking file, and a ``#fragment`` on a markdown target names a real
  heading in it (GitHub anchor slugging);
* the **rule table** in ``CONTRIBUTING.md`` lists exactly the rule ids
  the live hippolint registry exposes, so a newly registered rule
  cannot ship undocumented and a deleted one cannot linger.

Run: ``python -m repro.devtools.docscheck [root]`` -- exit status 0
means clean, 1 means findings (one ``path: message`` line each), 2 bad
usage, mirroring the hippolint CLI.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.devtools.framework import all_rules

#: Inline markdown links: ``[text](target)``.  Reference-style links
#: are not used in this repo's docs.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Markdown headings, for fragment targets.
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)

#: Link targets that are not files to resolve.
_EXTERNAL = ("http://", "https://", "mailto:")

#: The markdown files the docs job guards (relative to the repo root);
#: ``docs/`` is globbed on top of these.
_GUARDED = ("README.md", "CONTRIBUTING.md")


def heading_anchors(markdown: str) -> set[str]:
    """The GitHub anchor slugs of every heading in ``markdown``.

    GitHub slugging: lowercase, inline code/emphasis markers dropped,
    spaces become ``-``, everything but word characters and hyphens is
    removed.  Close enough for the headings this repo writes.
    """
    anchors: set[str] = set()
    for match in _HEADING.finditer(markdown):
        title = match.group(1).strip().lower()
        title = title.replace("`", "").replace("*", "")
        title = re.sub(r"[^\w\- ]", "", title)
        anchors.add(re.sub(r" +", "-", title.strip()))
    return anchors


def guarded_files(root: Path) -> list[Path]:
    """The markdown files the docs job checks, in stable order."""
    files = [root / name for name in _GUARDED if (root / name).is_file()]
    files.extend(sorted((root / "docs").glob("**/*.md")))
    return files


def check_file_links(path: Path, root: Path) -> list[str]:
    """Findings for every unresolvable internal link in ``path``."""
    findings: list[str] = []
    text = path.read_text(encoding="utf-8")
    label = str(path.relative_to(root))
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL):
            continue
        base, _, fragment = target.partition("#")
        resolved = path if not base else (path.parent / base)
        if not resolved.exists():
            findings.append(f"{label}: broken link -> {target}")
            continue
        if fragment and resolved.suffix == ".md":
            anchors = heading_anchors(resolved.read_text(encoding="utf-8"))
            if fragment.lower() not in anchors:
                findings.append(
                    f"{label}: link -> {target} names no heading"
                    f" #{fragment} in {base or label}"
                )
    return findings


def check_rule_table(root: Path) -> list[str]:
    """Findings for registry rule ids missing from CONTRIBUTING.md,
    and for table rows naming a rule the registry no longer has."""
    contributing = root / "CONTRIBUTING.md"
    if not contributing.is_file():
        return ["CONTRIBUTING.md: missing (the rule table lives here)"]
    text = contributing.read_text(encoding="utf-8")
    documented = set(re.findall(r"`(HL\d{3})`", text))
    rules = all_rules()
    findings = [
        f"CONTRIBUTING.md: rule table lacks a row for {rule.id} [{rule.name}]"
        for rule in rules
        if rule.id not in documented
    ]
    registered = {rule.id for rule in rules}
    for rule_id in re.findall(r"^\| `(HL\d{3})` ", text, re.MULTILINE):
        if rule_id not in registered:
            findings.append(
                f"CONTRIBUTING.md: rule table has a row for {rule_id},"
                " which is not a registered rule"
            )
    return findings


def run(root: Path) -> list[str]:
    """Every docs finding under ``root``, one message per problem."""
    findings: list[str] = []
    for path in guarded_files(root):
        findings.extend(check_file_links(path, root))
    findings.extend(check_rule_table(root))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the docs check; returns the process exit status."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if len(arguments) > 1:
        print("usage: python -m repro.devtools.docscheck [root]")
        return 2
    root = Path(arguments[0]) if arguments else Path.cwd()
    if not root.is_dir():
        print(f"docscheck: {root} is not a directory")
        return 2
    findings = run(root)
    for finding in findings:
        print(finding)
    checked = len(guarded_files(root))
    if findings:
        print(f"docscheck: {len(findings)} finding(s) in {checked} file(s)")
        return 1
    print(f"docscheck: OK ({checked} markdown file(s) checked)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
