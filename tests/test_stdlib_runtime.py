"""The runtime needs only the standard library: ``src/repro`` imports
nothing outside it, nested (function-level) imports included."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def absolute_imports(source):
    """Top-level package names of every ``import`` and absolute ``from``
    import in ``source``, at any nesting depth."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.partition(".")[0])
    return names


@pytest.mark.skipif(sys.version_info < (3, 10), reason="sys.stdlib_module_names is 3.10+")
def test_src_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"repro"}
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    outside = [
        f"{path.relative_to(SRC.parent)}: {name}"
        for path in modules
        for name in absolute_imports(path.read_text(encoding="utf-8"))
        if name not in allowed
    ]
    assert outside == []
