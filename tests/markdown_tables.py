"""Markdown tables, read for the tests that check their cells."""

import re

#: A cell border: a pipe, but not an escaped ``\|`` inside a cell.
CELL_BORDER = re.compile(r"(?<!\\)\|")


def section_tables(markdown, heading):
    """The rows of each table in the section whose title starts with ``heading``.

    Each row is a list of its stripped cells.  Each table's header and
    ``|---|`` rule are skipped.
    """
    section = markdown.split(f"\n## {heading}", 1)[1].split("\n## ", 1)[0]
    return [
        [[cell.strip() for cell in CELL_BORDER.split(row)[1:-1]] for row in lines[2:]]
        for lines in (table.splitlines()
                      for table in re.findall(r"(?:^\|.*\n)+", section, flags=re.M))
    ]
