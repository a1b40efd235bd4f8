"""No module imports a name it never uses (ruff's F401, which
``pyproject.toml`` selects): every imported name appears as a name in
its module or in the module's ``__all__``."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports(source):
    """``(line, name)`` of every imported name that ``source`` never uses."""
    tree = ast.parse(source)
    imported, used, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used | exported)


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Dict, List\n"
        "from . import shown\n"
        "__all__ = ['shown']\n"
        "x: List = os.sep\n"
    )
    assert unused_imports(source) == [(3, "Dict")]


@pytest.mark.parametrize("directory", ["src", "tests", "tools", "examples"])
def test_no_unused_imports(directory):
    modules = sorted((ROOT / directory).rglob("*.py"))
    assert modules
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in modules
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []
