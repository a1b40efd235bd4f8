#!/usr/bin/env python
"""Execute the fenced ``python`` examples in the documentation.

Usage::

    PYTHONPATH=src python tools/run_doc_examples.py [FILE ...]

With no arguments, runs ``README.md``, ``docs/ENGINE.md`` and
``docs/OBSERVABILITY.md`` — the pages whose examples the docs CI job
and ``tests/test_doc_examples.py`` promise are executable.
Each file's ```` ```python ```` blocks run top to bottom in one shared
namespace (later blocks may use names bound by earlier ones, exactly
as a reader following along would), so an example that drifts from the
API fails the tests instead of rotting.  Other fence languages (``bash``,
``text``, output-only fences) are skipped.  Exit code 0 when every
block runs, 1 otherwise, naming the file and line of the first failing
statement.
"""

from __future__ import annotations

import os
import re
import sys
import traceback
from typing import List, Tuple

_DEFAULT_FILES = (
    "README.md",
    os.path.join("docs", "ENGINE.md"),
    os.path.join("docs", "OBSERVABILITY.md"),
)

_OPEN_FENCE = re.compile(r"^(```|~~~)\s*python\s*$")
_ANY_FENCE = re.compile(r"^(```|~~~)")


def extract_blocks(path: str) -> List[Tuple[int, str]]:
    """All ``python`` fences in ``path`` as (starting line, source)."""
    blocks = []
    lines_buffer: List[str] = []
    start = None
    in_python = in_other = False
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if in_python:
                if _ANY_FENCE.match(stripped):
                    blocks.append((start, "".join(lines_buffer)))
                    in_python, lines_buffer, start = False, [], None
                else:
                    lines_buffer.append(line)
            elif in_other:
                if _ANY_FENCE.match(stripped):
                    in_other = False
            elif _OPEN_FENCE.match(stripped):
                in_python, start = True, lineno + 1
            elif _ANY_FENCE.match(stripped):
                in_other = True
    return blocks


def run_file(path: str) -> int:
    """Execute one file's blocks in a shared namespace; 0 on success."""
    blocks = extract_blocks(path)
    if not blocks:
        print(f"{path}: no python examples")
        return 0
    namespace: dict = {"__name__": f"doc_example:{path}"}
    for start, source in blocks:
        code = compile(source, f"{path}:{start}", "exec")
        try:
            exec(code, namespace)  # noqa: S102 - executing our own docs
        except Exception:
            print(f"{path}:{start}: example failed")
            traceback.print_exc()
            return 1
    print(f"{path}: {len(blocks)} example block(s) ok")
    return 0


def main(argv: List[str]) -> int:
    files = argv or [f for f in _DEFAULT_FILES if os.path.exists(f)]
    return max((run_file(path) for path in files), default=0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
