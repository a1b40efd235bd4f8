"""The radius-1 and nearest-differing paths against ball-based references.

``WeakColoring.check_node`` reads the adjacency row at distance 1;
``distance_parity_recoloring`` (Lemma 2's phase 1) and
``is_distance_k_weak`` share one layer search that stops at the first
layer holding a differing label; ``choose_successors`` walks the row in
port order.  Each ``reference_*`` below is the code as it was first
written, from ``bfs_distances`` or ``neighbors``, kept verbatim.  Every
node of every test graph, under random labelings with ``None`` and with
planted defects, must get the same verdict, violation text, labels and
error text from both.
"""

import random

import pytest

from repro.algorithms import (
    choose_successors,
    distance_parity_recoloring,
    is_distance_k_weak,
)
from repro.graphs import Graph, cycle, path, star, toroidal_grid
from repro.lcl import WeakColoring
from repro.lcl.problem import Violation

from .test_naor_stockmeyer import ORACLE_GRAPHS


def reference_check_node(problem, graph, labeling, v):
    mine = labeling[v]
    if mine is None:
        return Violation(v, "node is unlabeled")
    if problem.palette is not None and mine not in problem.palette:
        return Violation(v, f"label {mine!r} outside the {problem.colors}-color palette")
    if graph.degree(v) == 0:
        return None  # isolated nodes are vacuously weakly colored
    ball = graph.bfs_distances(v, cutoff=problem.distance)
    for u in ball:
        if u != v and labeling[u] is not None and labeling[u] != mine:
            return None
    return Violation(
        v,
        f"all nodes within distance {problem.distance} share label {mine!r}",
    )


def reference_distance_parity_recoloring(graph, phi, k):
    out = []
    for v in graph.nodes():
        dist = graph.bfs_distances(v, cutoff=k)
        d_best = None
        for u, d in dist.items():
            if u != v and phi[u] != phi[v] and (d_best is None or d < d_best):
                d_best = d
        if d_best is None:
            raise ValueError(
                f"node {v} has no differing color within distance {k}: "
                "input is not a distance-k weak coloring"
            )
        out.append((phi[v], d_best % 2))
    return out, k


def reference_is_distance_k_weak(graph, labels, k):
    for v in graph.nodes():
        ball = graph.bfs_distances(v, cutoff=k)
        if not any(u != v and labels[u] != labels[v] for u in ball):
            return False
    return True


def reference_choose_successors(graph, labels):
    successor = []
    for v in graph.nodes():
        candidates = [
            (labels[u], port, u)
            for port, u in enumerate(graph.neighbors(v))
            if labels[u] != labels[v]
        ]
        if not candidates:
            raise ValueError(f"node {v} has no differing neighbor: not a weak coloring")
        successor.append(min(candidates)[2])
    return successor


def outcome(function, *args):
    """The result, or the type and text of the error it raised."""
    try:
        return ("ok", function(*args))
    except (ValueError, TypeError) as exc:
        return (type(exc).__name__, str(exc))


def _with_isolated_nodes(n, edges, seed):
    """A random graph on ``n`` nodes whose last quarter stays isolated."""
    rng = random.Random(seed)
    core = n - n // 4
    g = Graph(n)
    while g.m < edges:
        u, v = rng.sample(range(core), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


def _graphs():
    graphs = dict(ORACLE_GRAPHS)
    for n in (1, 2, 3, 7):
        graphs[f"path-{n}"] = path(n)
    for leaves in (1, 2, 5):
        graphs[f"star-{leaves}"] = star(leaves)
    for n in (3, 4, 9):
        graphs[f"cycle-{n}"] = cycle(n)
    graphs["torus-4x5"] = toroidal_grid(4, 5)
    graphs["isolated-a"] = _with_isolated_nodes(16, 14, seed=1)
    graphs["isolated-b"] = _with_isolated_nodes(40, 60, seed=2)
    return graphs


GRAPHS = _graphs()


def _labelings(graph, seed):
    """Random labelings, ``None`` included, and planted defects.

    The planted ones take a labeling that alternates with BFS depth and
    paint one ball monochromatic, so its center (and maybe more) has no
    differing node up to the ball's radius; one more plants a label
    outside the 3-color palette.
    """
    rng = random.Random(seed)
    n = graph.n
    out = {
        "constant": [1] * n,
        "two-colors": [rng.randrange(2) for _ in range(n)],
        "three-colors-none": [rng.choice((0, 1, 2, None)) for _ in range(n)],
        "mostly-none": [rng.choice((0, None, None)) for _ in range(n)],
    }
    parity = [None] * n
    for root in graph.nodes():
        if parity[root] is None:
            for u, d in graph.bfs_distances(root).items():
                parity[u] = d % 2
    for radius in (1, 2, 3):
        planted = list(parity)
        center = rng.randrange(n)
        for u in graph.bfs_distances(center, cutoff=radius):
            planted[u] = 2
        out[f"planted-ball-{radius}"] = planted
    outside = list(parity)
    outside[rng.randrange(n)] = 7
    out["outside-palette"] = outside
    return out


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_check_node_matches_reference(k, name):
    graph = GRAPHS[name]
    for labeling in _labelings(graph, seed=graph.n).values():
        for problem in (WeakColoring(3, k), WeakColoring(3, k, palette=None)):
            for v in graph.nodes():
                assert problem.check_node(graph, labeling, v) == reference_check_node(
                    problem, graph, labeling, v
                ), v


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_is_distance_k_weak_matches_reference(name):
    graph = GRAPHS[name]
    for labeling in _labelings(graph, seed=graph.n + 1).values():
        for k in (0, 1, 2, 3):
            assert is_distance_k_weak(graph, labeling, k) == reference_is_distance_k_weak(
                graph, labeling, k
            )


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_distance_parity_recoloring_matches_reference(name):
    graph = GRAPHS[name]
    for labeling in _labelings(graph, seed=graph.n + 2).values():
        for k in (0, 1, 2, 3):
            assert outcome(distance_parity_recoloring, graph, labeling, k) == outcome(
                reference_distance_parity_recoloring, graph, labeling, k
            )


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_choose_successors_matches_reference(name):
    graph = GRAPHS[name]
    for labeling in _labelings(graph, seed=graph.n + 3).values():
        inputs = [labeling]
        for k in (1, 2, 3):
            kind, phase1 = outcome(reference_distance_parity_recoloring, graph, labeling, k)
            if kind == "ok":
                inputs.append(phase1[0])
        for labels in inputs:
            assert outcome(choose_successors, graph, labels) == outcome(
                reference_choose_successors, graph, labels
            )


def test_cases_are_not_vacuous():
    """Every verdict and every way to raise occurs somewhere."""
    verdicts, phase1, phase2 = set(), set(), set()
    for graph in GRAPHS.values():
        for labeling in _labelings(graph, seed=graph.n).values():
            for v in graph.nodes():
                bad = reference_check_node(WeakColoring(3, 2), graph, labeling, v)
                verdicts.add(None if bad is None else bad.reason.split(" ")[0])
            kind, labels = outcome(reference_distance_parity_recoloring, graph, labeling, 2)
            phase1.add(kind)
            phase2.add(outcome(reference_choose_successors, graph, labeling)[0])
            if kind == "ok":
                phase2.add(outcome(reference_choose_successors, graph, labels[0])[0])
    assert verdicts == {None, "node", "label", "all"}
    assert phase1 == {"ok", "ValueError"}
    # TypeError: ``None`` labels do not order against ints.
    assert phase2 == {"ok", "ValueError", "TypeError"}
