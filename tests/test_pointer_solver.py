"""Tests for the P* solvers (Lemma 3 partial, Lemma 17 global)."""

import heapq
import random
from typing import List, Optional, Tuple

import pytest

from repro.algorithms import pointer_solver, solve_pstar, solve_pstar_partial
from repro.algorithms.pointer_solver import PStarSolution
from repro.graphs import (
    Graph,
    balanced_regular_tree,
    caterpillar,
    cycle,
    lemma18_pair,
    path,
    random_permutation_ids,
    random_regular_graph,
    random_tree,
    regular_tree_of_depth_at_least,
    sequential_ids,
    sorted_by_bfs_ids,
    star,
    toroidal_grid,
)
from repro.lcl import PStar
from repro.lcl.pointer import PStarLabel


class TestPartialSolver:
    def test_tree_partial_coverage_grows_with_radius(self):
        g = balanced_regular_tree(4, 4)
        ids = sequential_ids(g)
        fractions = [
            solve_pstar_partial(g, 4, r, ids).labeled_fraction() for r in (0, 1, 2, 4)
        ]
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == 1.0

    def test_labeled_nodes_are_happy(self):
        g = balanced_regular_tree(4, 4)
        ids = sequential_ids(g)
        for r in (1, 2, 3):
            sol = solve_pstar_partial(g, 4, r, ids)
            labeled = [v for v in g.nodes() if sol.labels[v] is not None]
            # Happiness checkable where the pointer target is labeled too;
            # Lemma 3 promises it for nodes within r of an irregularity.
            checkable = [
                v
                for v in labeled
                if sol.labels[v].p is None or sol.labels[sol.labels[v].p] is not None
            ]
            assert not PStar(4, require_all=False).verify(g, sol.labels, nodes=checkable)

    def test_low_degree_nodes_always_labeled(self):
        g = balanced_regular_tree(4, 3)
        sol = solve_pstar_partial(g, 4, 0, sequential_ids(g))
        for v in g.nodes():
            if g.degree(v) < 4:
                assert sol.labels[v] is not None
                assert sol.labels[v].p is None

    def test_rounds_equal_twice_radius(self):
        g = balanced_regular_tree(4, 3)
        sol = solve_pstar_partial(g, 4, 2, sequential_ids(g))
        assert sol.rounds == 4

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            solve_pstar_partial(path(3), 3, -1, [1, 2, 3])


class TestGlobalSolver:
    @pytest.mark.parametrize(
        "graph,delta",
        [
            (balanced_regular_tree(4, 4), 4),
            (balanced_regular_tree(3, 5), 3),
            (balanced_regular_tree(6, 2), 6),
            (caterpillar(8, 2), 4),
            (star(5), 5),
            (path(12), 3),
        ],
    )
    def test_trees_fully_happy(self, graph, delta):
        sol = solve_pstar(graph, delta, sequential_ids(graph))
        assert not PStar(delta).verify(graph, sol.labels)

    def test_torus_fully_happy(self):
        g = toroidal_grid(5, 6)
        sol = solve_pstar(g, 4, sequential_ids(g))
        assert not PStar(4).verify(g, sol.labels)

    def test_odd_cycle_of_degree_delta(self):
        # A 5-cycle with pendant trees making cycle nodes degree 3.
        g = Graph(10)
        for i in range(5):
            g.add_edge(i, (i + 1) % 5)
            g.add_edge(i, 5 + i)
        sol = solve_pstar(g, 3, sequential_ids(g))
        assert not PStar(3).verify(g, sol.labels)

    def test_random_regular_graphs(self):
        rng = random.Random(4)
        for trial in range(5):
            g = random_regular_graph(24, 4, rng=random.Random(rng.getrandbits(64)))
            sol = solve_pstar(g, 4, random_permutation_ids(g, rng))
            assert not PStar(4).verify(g, sol.labels)

    def test_radius_tracks_depth_on_trees(self):
        radii = []
        for depth in (2, 3, 4, 5, 6):
            g = balanced_regular_tree(4, depth)
            radii.append(solve_pstar(g, 4, sequential_ids(g)).radius)
        # Every node is within depth of a leaf; the exact-minimal radius
        # grows by one per level (it is the depth of the interior).
        assert radii == sorted(radii)
        assert radii[-1] > radii[0]

    def test_all_low_degree_graph(self):
        g = path(6)  # all degrees < 4
        sol = solve_pstar(g, 4, sequential_ids(g))
        assert all(label.p is None for label in sol.labels)
        assert not PStar(4).verify(g, sol.labels)

    def test_degree_2_cycle_solved_via_cycle_irregularity(self):
        # A cycle with delta = 2 has no low-degree node; the cycle itself
        # is the irregularity and every node follows its orientation.
        g = cycle(6)
        sol = solve_pstar(g, 2, sequential_ids(g))
        assert all(label is not None for label in sol.labels)
        assert all(label.d == 0 and label.p is not None for label in sol.labels)

    def test_deterministic_output(self):
        g = balanced_regular_tree(4, 3)
        ids = sequential_ids(g)
        a = solve_pstar(g, 4, ids)
        b = solve_pstar(g, 4, ids)
        assert a.labels == b.labels


class TestCyclePreference:
    def test_nodes_near_cycle_point_with_d_zero(self):
        # Triangle of degree-3 nodes with pendant paths.  At a radius
        # where the cycle is in range (odd-cycle distance = max + 1 = 2)
        # the cycle is preferred over the closer degree-2 path nodes.
        g = Graph(9, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5), (3, 6), (4, 7), (5, 8)])
        sol = solve_pstar_partial(g, 3, 2, sequential_ids(g))
        for v in (0, 1, 2):
            assert sol.labels[v].d == 0
            assert sol.labels[v].p in (0, 1, 2)  # follows the cycle
        # And the full labeling at this radius is happy.
        assert not PStar(3).verify(g, sol.labels)


def reference_solve_pstar_acyclic(graph, delta, r, ids):
    """``_solve_pstar_acyclic`` as first written: one multi-source Dijkstra
    over a heap with keys ``(distance, degree, identifier, target)``.
    Kept verbatim as the oracle for the layered BFS."""
    n = graph.n
    INF = (r + 1, 0, 0, -1)
    best: List[Tuple[int, int, int, int]] = [INF] * n  # (dist, deg_t, id_t, t)
    heap = []
    for u in graph.nodes():
        if graph.degree(u) < delta:
            key = (0, graph.degree(u), ids[u], u)
            best[u] = key
            heapq.heappush(heap, key + (u,))
    while heap:
        dist, deg_t, id_t, t, v = heapq.heappop(heap)
        if best[v] != (dist, deg_t, id_t, t):
            continue
        if dist >= r:
            continue
        for w in graph.neighbors(v):
            candidate = (dist + 1, deg_t, id_t, t)
            if candidate < best[w]:
                best[w] = candidate
                heapq.heappush(heap, candidate + (w,))

    labels: List[Optional[PStarLabel]] = [None] * n
    for v in graph.nodes():
        deg = graph.degree(v)
        if deg < delta:
            labels[v] = PStarLabel(d=deg, p=None)
            continue
        dist, deg_t, id_t, t = best[v]
        if t < 0 or dist > r:
            continue
        hop = min(
            (ids[w], w)
            for w in graph.neighbors(v)
            if best[w][0] == dist - 1 and best[w][1:] == (deg_t, id_t, t)
        )[1]
        labels[v] = PStarLabel(d=deg_t, p=hop)
    return PStarSolution(labels=labels, radius=r, rounds=2 * r)


def _random_forest(n, components, isolated, seed):
    """Random trees of random sizes side by side, plus isolated nodes."""
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(1, n - isolated), components - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n - isolated])]
    g = Graph(n)
    offset = 0
    for size in sizes:
        for u, v in random_tree(size, random.Random(rng.getrandbits(64))).edges():
            g.add_edge(offset + u, offset + v)
        offset += size
    return g.freeze()


def _pstar_graphs():
    """(graph, delta) pairs: the exhibits' trees, random trees and forests,
    and a few graphs with cycles that the fast path also serves."""
    graphs = {}
    for delta in (3, 4, 5):
        for target in (50, 200, 800, 3200):
            tree, _ = regular_tree_of_depth_at_least(delta, target)
            graphs[f"exhibit-tree-d{delta}-n{tree.n}"] = (tree, delta)
        t, t_prime, _ = lemma18_pair(delta, 4)
        graphs[f"lemma18-T-d{delta}"] = (t, delta)
        graphs[f"lemma18-T-prime-d{delta}"] = (t_prime, delta)
    for seed, n in enumerate((2, 30, 200, 1000)):
        for delta in (3, 4):
            graphs[f"random-tree-n{n}-d{delta}"] = (random_tree(n, random.Random(seed)), delta)
    graphs["forest-5-trees-3-isolated"] = (_random_forest(120, 5, 3, seed=1), 3)
    graphs["forest-12-trees-1-isolated"] = (_random_forest(400, 12, 1, seed=2), 4)
    graphs["isolated-only"] = (Graph(4).freeze(), 3)
    graphs["caterpillar"] = (caterpillar(20, 2), 4)
    graphs["torus-minus-edge"] = (
        Graph(30, [e for e in toroidal_grid(5, 6).edges() if e != (0, 1)]).freeze(),
        4,
    )
    graphs["random-4-regular-minus-edges"] = (
        Graph(40, list(random_regular_graph(40, 4, rng=random.Random(3)).edges())[3:]).freeze(),
        4,
    )
    return graphs


PSTAR_GRAPHS = _pstar_graphs()
PSTAR_FORESTS = [
    name
    for name, (graph, _) in PSTAR_GRAPHS.items()
    if graph.m == graph.n - len(graph.connected_components())
]

PSTAR_ID_SCHEMES = {
    "sequential": sequential_ids,
    "random": lambda g: random_permutation_ids(g, random.Random(g.n)),
    "bfs-sorted": lambda g: sorted_by_bfs_ids(g) if g.is_connected() else sequential_ids(g),
    # Equal identifiers: ties on (degree, identifier) fall to the node index.
    "all-equal": lambda g: [1] * g.n,
}


def _low_degree_distances(graph, delta):
    """Each reachable node's distance to the nearest node of degree < delta."""
    dist = {v: 0 for v in graph.nodes() if graph.degree(v) < delta}
    frontier = list(dist)
    while frontier:
        next_frontier = []
        for x in frontier:
            for w in graph.neighbors(x):
                if w not in dist:
                    dist[w] = dist[x] + 1
                    next_frontier.append(w)
        frontier = next_frontier
    return dist


def _max_radius(graph, delta):
    return max(_low_degree_distances(graph, delta).values(), default=0)


class TestAcyclicFastPathMatchesHeap:
    @pytest.mark.parametrize("scheme", sorted(PSTAR_ID_SCHEMES))
    @pytest.mark.parametrize("name", sorted(PSTAR_GRAPHS))
    def test_labels_radius_and_rounds_equal(self, name, scheme):
        graph, delta = PSTAR_GRAPHS[name]
        ids = PSTAR_ID_SCHEMES[scheme](graph)
        for r in range(_max_radius(graph, delta) + 2):
            got = pointer_solver._solve_pstar_acyclic(graph, delta, r, ids)
            want = reference_solve_pstar_acyclic(graph, delta, r, ids)
            assert got.labels == want.labels, r
            assert (got.radius, got.rounds) == (want.radius, want.rounds)

    @pytest.mark.parametrize("delta", [3, 4, 5])
    def test_solve_pstar_on_exhibit_trees_equal(self, delta):
        for target in (50, 200, 800, 3200):
            tree, _ = regular_tree_of_depth_at_least(delta, target)
            ids = sequential_ids(tree)
            assert solve_pstar(tree, delta, ids) == reference_solve_pstar_acyclic(
                tree, delta, _max_radius(tree, delta), ids
            )

    @pytest.mark.parametrize("scheme", sorted(PSTAR_ID_SCHEMES))
    @pytest.mark.parametrize("name", sorted(PSTAR_FORESTS))
    def test_solve_pstar_on_forests_equals_the_radius_bfs_and_heap(self, name, scheme):
        # solve_pstar used to find the radius with its own BFS and then
        # hand it to the fast path; now one BFS does both.  The heap at
        # that radius is the oracle: labels, radius and rounds.
        graph, delta = PSTAR_GRAPHS[name]
        ids = PSTAR_ID_SCHEMES[scheme](graph)
        radius = _max_radius(graph, delta)
        assert solve_pstar(graph, delta, ids) == reference_solve_pstar_acyclic(
            graph, delta, radius, ids
        )

    def test_solve_pstar_tests_a_forest_for_cycles_once(self, monkeypatch):
        calls = []
        components = Graph.connected_components

        def counting(graph):
            calls.append(graph)
            return components(graph)

        monkeypatch.setattr(Graph, "connected_components", counting)
        tree, _ = regular_tree_of_depth_at_least(3, 200)
        solve_pstar(tree, 3, sequential_ids(tree))
        assert calls == [tree]

    @pytest.mark.parametrize(
        "graph,delta",
        [
            (Graph(3, [(0, 1)]), 1),  # nodes 0 and 1 reach no node of degree < 1
            (Graph(2, [(0, 1)]), 1),  # no node of degree < 1 at all
            (balanced_regular_tree(3, 2), 1),
        ],
        ids=["edge-beside-isolated", "one-edge", "tree-delta-1"],
    )
    def test_solve_pstar_refuses_a_forest_node_unreachable_from_low_degree(
        self, graph, delta
    ):
        message = (
            f"no node of degree < {delta} exists; an acyclic graph cannot "
            "be Delta-regular, so check the delta argument"
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve_pstar(graph.freeze(), delta, list(range(1, graph.n + 1)))

    def test_cases_are_not_vacuous(self):
        """Unlabeled nodes occur, and so do nodes with several neighbors one
        layer closer: there the (degree, identifier, target) order decides."""
        graph, delta = PSTAR_GRAPHS["random-tree-n1000-d3"]
        ids = sequential_ids(graph)
        partial = reference_solve_pstar_acyclic(graph, delta, 1, ids).labels
        assert None in partial and any(label.p is None for label in partial if label)
        full = reference_solve_pstar_acyclic(graph, delta, _max_radius(graph, delta), ids)
        assert None not in full.labels
        layer = _low_degree_distances(graph, delta)
        contested = [
            v for v in graph.nodes()
            if sum(layer[w] == layer[v] - 1 for w in graph.neighbors(v)) > 1
        ]
        assert len(contested) > 10
