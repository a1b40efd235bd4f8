#!/usr/bin/env python
"""Rewrite EXPERIMENTS.md's report blocks with what the report prints.

Usage::

    python tools/render_experiments.py

Each row of ``repro.experiments.exhibits.EXHIBITS`` has one block in
EXPERIMENTS.md: a ```` ```text ```` fence between ``<!-- report:NAME -->``
and ``<!-- /report -->`` holding the lines ``python -m repro.experiments``
prints for that exhibit at its full arguments.  The script runs every
exhibit once and rewrites the blocks; the prose around them is left as
written.  ``tests/test_exhibits.py`` holds each committed block to
:func:`render` of the same run.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Mapping

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments import EXHIBITS  # src/ need not be installed

EXPERIMENTS_MD = ROOT / "EXPERIMENTS.md"
#: An opening ``<!-- report:NAME -->`` or a closing ``<!-- /report -->``.
MARKER = re.compile(r"<!-- (report:\S*|/report) -->")


def render(markdown: str, texts: Mapping[str, str]) -> str:
    """``markdown`` with the block of each exhibit named in ``texts`` holding its text.

    Blocks of exhibits not in ``texts`` keep what they hold.  Raises
    ``ValueError`` unless each exhibit has exactly one block, every
    block is closed before the next one opens, and every name (in a
    block or in ``texts``) is an exhibit's.
    """
    parts = MARKER.split(markdown)  # prose, opening, block, closing, prose, ...
    opens, closes = parts[1::4], parts[3::4]
    if len(parts) % 4 != 1 or any(not m.startswith("report:") for m in opens) \
            or any(m != "/report" for m in closes):
        raise ValueError("a report block is unterminated (or a closing marker is stray)")
    names = [marker[len("report:"):] for marker in opens]
    known = {exhibit.name for exhibit in EXHIBITS}
    for problem, found in (("duplicated", {n for n in names if names.count(n) > 1}),
                           ("unknown", (set(names) | set(texts)) - known),
                           ("missing", known - set(names))):
        if found:
            raise ValueError(f"{problem} report block: {', '.join(sorted(found))}")
    for i, name in enumerate(names):
        if name in texts:
            parts[4 * i + 2] = f"\n```text\n{texts[name]}\n```\n"
    return "".join(f"<!-- {part} -->" if i % 2 else part for i, part in enumerate(parts))


def main() -> int:
    texts = {exhibit.name: "\n".join(exhibit.execute(quick=False)[0]) for exhibit in EXHIBITS}
    markdown = EXPERIMENTS_MD.read_text(encoding="utf-8")
    EXPERIMENTS_MD.write_text(render(markdown, texts), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
