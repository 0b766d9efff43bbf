"""Every markdown file the code and examples cite exists in the repository."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: A repository-relative markdown path as the sources spell it, e.g.
#: ``EXPERIMENTS.md`` or ``docs/architecture.md``.
CITATION = re.compile(r"[\w./-]+\.md\b")


def citations():
    for folder in ("src", "examples", "benchmarks"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for cited in CITATION.findall(path.read_text(encoding="utf-8")):
                yield path.relative_to(ROOT), cited


def test_every_cited_markdown_file_exists():
    missing = [f"{source} cites {cited}" for source, cited in citations() if not (ROOT / cited).is_file()]
    assert missing == []


def test_the_known_citations_are_found():
    cited = {name for _, name in citations()}
    assert {"EXPERIMENTS.md", "docs/architecture.md"} <= cited
