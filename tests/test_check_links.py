"""Tests for scripts/check_links.py (docs links and doc citations)."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_links.py"


@pytest.fixture(scope="module")
def check_links():
    spec = importlib.util.spec_from_file_location("check_links", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_repo_source_cites_only_existing_markdown(check_links):
    assert check_links.check_source_citations() == []


def test_missing_citations_are_reported(check_links, tmp_path):
    _write(tmp_path / "README.md", "# repo\n")
    _write(tmp_path / "docs" / "guide.md", "# guide\n")
    _write(
        tmp_path / "src" / "pkg" / "mod.py",
        '"""See docs/guide.md and README.md."""\n'
        "# Recorded in DESIGN.md/EXPERIMENTS.md.\n"
        'NOTE = "details in docs/missing.md"\n',
    )
    assert check_links.check_source_citations(tmp_path) == [
        "src/pkg/mod.py:2: cites missing DESIGN.md",
        "src/pkg/mod.py:2: cites missing EXPERIMENTS.md",
        "src/pkg/mod.py:3: cites missing docs/missing.md",
    ]


def test_a_path_must_resolve_from_the_root(check_links, tmp_path):
    """A bare name may live anywhere; a path must exist where it says."""
    _write(tmp_path / "docs" / "guide.md", "# guide\n")
    _write(
        tmp_path / "src" / "mod.py",
        "# guide.md is fine, other/guide.md is not\n",
    )
    assert check_links.check_source_citations(tmp_path) == [
        "src/mod.py:1: cites missing other/guide.md",
    ]
