"""Markdown sections and tables, read for the tests that check their cells."""

import re
from pathlib import Path

EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"

#: A cell border: a pipe, but not an escaped ``\|`` inside a cell.
CELL_BORDER = re.compile(r"(?<!\\)\|")


def section(markdown, heading):
    """The text of the section whose title starts with ``heading``."""
    return markdown.split(f"\n## {heading}", 1)[1].split("\n## ", 1)[0]


def section_tables(markdown, heading, header=False):
    """The rows of each table in the section whose title starts with ``heading``.

    Each row is a list of its stripped cells.  Each table's ``|---|``
    rule is skipped, and so is its header unless ``header``.
    """
    tables = [table.splitlines() for table in
              re.findall(r"(?:^\|.*\n)+", section(markdown, heading), flags=re.M)]
    return [
        [[cell.strip() for cell in CELL_BORDER.split(row)[1:-1]]
         for row in (lines[:1] if header else []) + lines[2:]]
        for lines in tables
    ]
