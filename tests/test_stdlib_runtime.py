"""What ``src/repro`` imports, nested (function-level) imports included:
nothing outside the standard library, and no subpackage that imports
it back."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: The registering modules import the registries by design, and the
#: registries import them back only by name (``ensure_builtins``), so
#: the registry module is a node of its own in the import graph.
REGISTRY = "repro.core.registry"


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


def repro_imports(path):
    """Every ``repro`` module that ``path`` imports, at any nesting
    depth, with relative imports resolved against its package."""
    package = path.relative_to(SRC.parent).parts[:-1]
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(package[: len(package) - node.level + 1]) if node.level else ""
            if node.module is None:  # from . import a, b
                names += [f"{base}.{alias.name}" for alias in node.names]
            else:
                names.append(f"{base}.{node.module}" if base else node.module)
    return [name for name in names if name.partition(".")[0] == "repro"]


def layer(module):
    """The import-graph node of a module: its subpackage of ``repro``,
    or the registry module itself."""
    if module == REGISTRY or module.startswith(REGISTRY + "."):
        return REGISTRY
    return ".".join(module.split(".")[:2])


def import_graph():
    """``{layer: layers it imports}``, without a layer's own modules."""
    edges = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        source = layer(".".join(p for p in parts if p != "__init__"))
        for target in map(layer, repro_imports(path)):
            if target != source:
                edges.setdefault(source, set()).add(target)
    return edges


def import_cycles(edges):
    """One shortest cycle through each edge that closes one, as
    ``"a -> b -> a"`` strings rotated to start at their least node."""
    found = set()
    for start in sorted(edges):
        for first in sorted(edges[start]):
            parents, queue = {first: None}, [first]
            for node in queue:
                for nxt in sorted(edges.get(node, ())):
                    if nxt not in parents:
                        parents[nxt] = node
                        queue.append(nxt)
            if start not in parents:
                continue
            cycle, node = [], start
            while node is not None:
                cycle.append(node)
                node = parents[node]
            cycle = [start] + cycle[::-1][:-1]  # start -> first -> ... -> (start)
            i = cycle.index(min(cycle))
            cycle = cycle[i:] + cycle[:i]
            found.add(" -> ".join(cycle + cycle[:1]))
    return sorted(found)


def test_the_package_import_graph_is_acyclic():
    edges = import_graph()
    # The graph is the real one: the seam imports the model layer, the
    # speedup layer imports the seam, and the registering subpackages
    # import the registry.
    assert "repro.local_model" in edges["repro.core"]
    assert "repro.core" in edges["repro.speedup"]
    assert {"repro.algorithms", "repro.graphs", "repro.lcl", "repro.speedup"} <= {
        source for source, targets in edges.items() if REGISTRY in targets
    }
    assert import_cycles(edges) == []


def test_import_cycles_names_every_cycle():
    edges = {
        "repro.a": {"repro.b"},
        "repro.b": {"repro.a", "repro.c"},
        "repro.c": {"repro.d"},
        "repro.d": {"repro.b"},
        "repro.e": {"repro.a"},
    }
    assert import_cycles(edges) == [
        "repro.a -> repro.b -> repro.a",
        "repro.b -> repro.c -> repro.d -> repro.b",
    ]
