#!/usr/bin/env python
"""Fail on dead relative links in the docs and dead doc citations in code.

Scans ``README.md``, ``ROADMAP.md``, ``CHANGES.md`` and ``docs/*.md``
for markdown links and images, resolves every relative target against
the containing file, and exits 1 listing targets that do not exist.
External schemes (http/https/mailto) and pure in-page anchors are
skipped; a ``path#anchor`` target is checked for the path only.

It also scans ``src/**/*.py`` for every ``*.md`` file name the code
cites (docstrings, comments, printed text) and fails on a name that
does not exist: a path (``docs/performance.md``) must resolve against
the repo root, a bare name (``README.md``) must name some markdown file
in the repo.

CI runs this as the docs-link-check step::

    python scripts/check_links.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Markdown inline links/images: [text](target) / ![alt](target).
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: A markdown file name cited in source text.
_MD_CITATION = re.compile(r"(?:[\w-]+/)*[\w.-]*\w\.md\b")

_SKIP_SCHEMES = ("http://", "https://", "mailto:")


def _documents() -> list[Path]:
    docs = [REPO / "README.md", REPO / "ROADMAP.md", REPO / "CHANGES.md"]
    docs += sorted((REPO / "docs").glob("*.md"))
    return [path for path in docs if path.exists()]


def check_links(paths: list[Path]) -> list[str]:
    """Dead-link messages (empty = all targets exist)."""
    problems: list[str] = []
    for path in paths:
        for number, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            for target in _LINK.findall(line):
                if target.startswith(_SKIP_SCHEMES) or target.startswith("#"):
                    continue
                relative = target.split("#", 1)[0]
                if not relative:
                    continue
                resolved = (path.parent / relative).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{path.relative_to(REPO)}:{number}: "
                        f"dead link -> {target}"
                    )
    return problems


def check_source_citations(repo: Path = REPO) -> list[str]:
    """Citations of missing ``*.md`` files in ``src/**/*.py``."""
    markdown = {
        path.name
        for path in repo.rglob("*.md")
        if not any(part.startswith(".") for part in path.relative_to(repo).parts)
    }
    problems: list[str] = []
    for path in sorted((repo / "src").rglob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            for name in _MD_CITATION.findall(line):
                exists = (repo / name).is_file() if "/" in name else name in markdown
                if not exists:
                    problems.append(
                        f"{path.relative_to(repo)}:{number}: cites missing {name}"
                    )
    return problems


def main() -> int:
    paths = _documents()
    problems = check_links(paths) + check_source_citations()
    if problems:
        print("dead documentation links or citations:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(
        f"docs link check passed ({len(paths)} file(s), "
        "plus the *.md citations in src/)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
