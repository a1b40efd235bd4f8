"""The docs link-checker must pass on the repository's own markdown, and
``docs/PAPER_MAP.md`` must name only code and tests that exist."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys

import repro

from .markdown_tables import CELL_BORDER

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_docs_links_resolve():
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "tools", "check_doc_links.py")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_checker_flags_broken_links(tmp_path):
    doc = tmp_path / "bad.md"
    doc.write_text("see [missing](no/such/file.md)\n")
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "tools", "check_doc_links.py"),
         str(doc)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "broken link" in proc.stdout


# --- docs/PAPER_MAP.md names only code and tests that exist -------------

_BACKTICKED = re.compile(r"`([^`]+)`")
_DOTTED_NAME = re.compile(r"^[A-Za-z_]\w*(\.[A-Za-z_]\w*)+\*?$")
_TEST_REF = re.compile(r"^tests/[\w/]+\.py(::\w+)*$")


def _resolves(name):
    """Whether a dotted name of the map's Code column resolves under ``repro``.

    The longest importable module prefix is imported and the rest is
    walked as attributes; a trailing ``*`` matches any attribute with
    that prefix.  A head that is no module of ``repro`` is a name that
    one of the subpackages exports (``Graph.from_adjacency``).
    """
    parts = name.removeprefix("repro.").split(".")
    subpackages = sorted(info.name for info in pkgutil.iter_modules(repro.__path__))
    if parts[0] not in subpackages:
        home = next((sub for sub in subpackages if parts[0] in
                     getattr(importlib.import_module(f"repro.{sub}"), "__all__", ())), None)
        if home is None:
            return False
        parts.insert(0, home)
    parts.insert(0, "repro")
    cut = len(parts)
    while True:
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
            break
        except ModuleNotFoundError:
            cut -= 1
    for attr in parts[cut:]:
        if attr.endswith("*"):
            return any(n.startswith(attr[:-1]) for n in dir(obj))
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _test_ref_exists(ref):
    """Whether ``tests/file.py[::Name...]`` names a file defining each name."""
    path, *names = ref.split("::")
    full = os.path.join(REPO_ROOT, path)
    if not os.path.isfile(full):
        return False
    with open(full, encoding="utf-8") as fh:
        source = fh.read()
    return all(re.search(rf"^\s*(class|def)\s+{name}\b", source, re.M) for name in names)


def stale_paper_map_references(text):
    """Code-column names and Checked-by test references that do not exist."""
    stale = []
    for line in text.splitlines():
        cells = CELL_BORDER.split(line.strip().strip("|"))
        if not line.startswith("|") or len(cells) != 4:
            continue
        code, checked_by = cells[2], cells[3]
        stale += [name for name in _BACKTICKED.findall(code)
                  if _DOTTED_NAME.match(name) and not _resolves(name)]
        stale += [ref for ref in _BACKTICKED.findall(checked_by)
                  if _TEST_REF.match(ref) and not _test_ref_exists(ref)]
    return stale


def test_paper_map_names_existing_code_and_tests():
    with open(os.path.join(REPO_ROOT, "docs", "PAPER_MAP.md"), encoding="utf-8") as fh:
        assert stale_paper_map_references(fh.read()) == []


def test_paper_map_check_flags_stale_rows():
    table = (
        "| Paper element | What it says | Code | Checked by |\n"
        "|---|---|---|---|\n"
        "| A | gone | `analysis.no_such_module`, `lcl.catalog.WeakColoring` "
        "| `tests/test_lcl_catalog.py::TestNoSuchClass`, `tests/test_lcl_catalog.py` |\n"
        "| B | kept | `analysis.recurrence.claim12_*`, `Graph.from_adjacency` "
        "| `tests/test_lcl_catalog.py::TestWeakColoring` |\n"
        "| C | gone | `analysis.recurrence.no_such_*`, `NoSuchClass.method` "
        "| `tests/no_such_file.py` |\n"
        "| D | gone, \\|B\\| escaped | `analysis.no_such_module` | `tests/no_such_file.py` |\n"
    )
    assert stale_paper_map_references(table) == [
        "analysis.no_such_module",
        "tests/test_lcl_catalog.py::TestNoSuchClass",
        "analysis.recurrence.no_such_*",
        "NoSuchClass.method",
        "tests/no_such_file.py",
        "analysis.no_such_module",
        "tests/no_such_file.py",
    ]
