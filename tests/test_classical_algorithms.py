"""Tests for Linial coloring, MIS, 2-coloring, sinkless orientation,
and the brute-force oracle."""

import random

import pytest

from repro.algorithms import (
    count_feasible,
    exists_feasible,
    find_feasible_labeling,
    greedy_mis_from_coloring,
    linial_coloring,
    mis_via_linial,
    polynomial_color_reduction_step,
    polynomial_step_parameters,
    proper_two_coloring,
    sinkless_from_pstar,
    sinkless_random_repair,
    smallest_prime_at_least,
    weak_two_coloring_from_mis,
)
from repro.graphs import (
    Graph,
    balanced_regular_tree,
    cycle,
    path,
    random_permutation_ids,
    random_regular_graph,
    sequential_ids,
    star,
    toroidal_grid,
)
from repro.lcl import (
    MaximalIndependentSet,
    ProperColoring,
    SinklessOrientation,
    WeakColoring,
)


class TestPrimesAndParameters:
    def test_smallest_prime(self):
        assert smallest_prime_at_least(1) == 2
        assert smallest_prime_at_least(2) == 2
        assert smallest_prime_at_least(8) == 11
        assert smallest_prime_at_least(14) == 17
        assert smallest_prime_at_least(97) == 97

    def test_parameters_satisfy_constraints(self):
        for palette in (16, 100, 10_000, 10**6):
            for delta in (3, 4, 6):
                d, p = polynomial_step_parameters(palette, delta)
                assert p >= delta * d + 1
                assert p ** (d + 1) >= palette

    def test_invalid_palette(self):
        with pytest.raises(ValueError):
            polynomial_step_parameters(1, 3)


class TestPolynomialStep:
    def test_step_preserves_properness(self):
        rng = random.Random(0)
        g = random_regular_graph(30, 4, rng=rng)
        colors = [i for i in range(30)]
        new_colors, new_palette = polynomial_color_reduction_step(g, colors, 30, 4)
        assert all(c < new_palette for c in new_colors)
        for u, v in g.edges():
            assert new_colors[u] != new_colors[v]

    def test_step_shrinks_large_palettes(self):
        g = cycle(40)
        _, new_palette = polynomial_color_reduction_step(g, list(range(40)), 10**6, 2)
        assert new_palette < 10**6


class TestLinialColoring:
    @pytest.mark.parametrize(
        "graph",
        [cycle(30), balanced_regular_tree(4, 3), toroidal_grid(4, 5), path(17)],
    )
    def test_proper_delta_plus_one(self, graph):
        out = linial_coloring(graph, sequential_ids(graph))
        assert ProperColoring(graph.max_degree() + 1).is_feasible(graph, out.colors)

    def test_palette_trajectory_monotone(self):
        g = balanced_regular_tree(4, 4)
        out = linial_coloring(g, sequential_ids(g))
        assert all(b <= a for a, b in zip(out.palette_trajectory, out.palette_trajectory[1:]))

    def test_edgeless_graph(self):
        g = Graph(5)
        out = linial_coloring(g, [1, 2, 3, 4, 5])
        assert out.colors == [0] * 5
        assert out.rounds == 0

    def test_random_ids(self):
        g = random_regular_graph(26, 3, rng=random.Random(2))
        out = linial_coloring(g, random_permutation_ids(g, random.Random(3)))
        assert ProperColoring(4).is_feasible(g, out.colors)


class TestMIS:
    def test_greedy_from_coloring(self):
        g = cycle(9)
        colors = [v % 3 for v in g.nodes()]
        # v % 3 is proper on a 9-cycle.
        mis = greedy_mis_from_coloring(g, colors, 3)
        assert MaximalIndependentSet().is_feasible(g, mis.in_mis)
        assert mis.rounds == 3

    @pytest.mark.parametrize(
        "graph",
        [cycle(12), balanced_regular_tree(3, 3), star(6), path(9)],
    )
    def test_mis_via_linial(self, graph):
        out = mis_via_linial(graph, sequential_ids(graph))
        assert MaximalIndependentSet().is_feasible(graph, out.in_mis)

    def test_weak_two_coloring_from_mis(self):
        g = cycle(10)
        out = mis_via_linial(g, sequential_ids(g))
        labels = weak_two_coloring_from_mis(g, out.in_mis)
        assert WeakColoring(2).is_feasible(g, labels)

    def test_weak_from_mis_needs_degree(self):
        g = Graph(2)
        with pytest.raises(ValueError):
            weak_two_coloring_from_mis(g, [True, False])


class TestTwoColoring:
    def test_on_trees(self):
        g = balanced_regular_tree(3, 4)
        out = proper_two_coloring(g, sequential_ids(g))
        assert ProperColoring(2).is_feasible(g, out.colors)
        assert out.rounds == g.diameter()

    def test_on_even_cycle(self):
        g = cycle(10)
        out = proper_two_coloring(g, sequential_ids(g))
        assert ProperColoring(2).is_feasible(g, out.colors)

    def test_odd_cycle_rejected(self):
        with pytest.raises(ValueError, match="bipartite"):
            proper_two_coloring(cycle(5), sequential_ids(cycle(5)))

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            proper_two_coloring(g, [1, 2, 3, 4])

    def test_leader_is_global_min(self):
        g = path(5)
        out = proper_two_coloring(g, [9, 2, 7, 1, 5])
        assert out.leader == 3


class TestSinkless:
    def test_deterministic_on_trees(self):
        for delta, depth in ((3, 4), (4, 3), (6, 2)):
            g = balanced_regular_tree(delta, depth)
            out = sinkless_from_pstar(g, delta, sequential_ids(g))
            assert SinklessOrientation().is_feasible(g, out.orientation)
            assert not out.sinks(g)

    def test_deterministic_on_torus(self):
        g = toroidal_grid(4, 5)
        out = sinkless_from_pstar(g, 4, sequential_ids(g))
        assert SinklessOrientation().is_feasible(g, out.orientation)

    def test_random_repair_terminates_and_is_valid(self):
        rng = random.Random(11)
        for trial in range(5):
            g = balanced_regular_tree(4, 4)
            out = sinkless_random_repair(g, random.Random(rng.getrandbits(64)))
            assert SinklessOrientation().is_feasible(g, out.orientation)

    def test_random_repair_on_regular_graph(self):
        g = random_regular_graph(30, 4, rng=random.Random(5))
        out = sinkless_random_repair(g, random.Random(6))
        assert not out.sinks(g)

    def test_every_edge_oriented(self):
        g = balanced_regular_tree(3, 3)
        out = sinkless_from_pstar(g, 3, sequential_ids(g))
        assert set(out.orientation) == set(g.edges())


class TestBruteForce:
    def test_finds_proper_coloring(self):
        g = cycle(7)
        labeling = find_feasible_labeling(g, ProperColoring(3), [0, 1, 2])
        assert labeling is not None
        assert ProperColoring(3).is_feasible(g, labeling)

    def test_detects_infeasibility(self):
        assert not exists_feasible(cycle(5), ProperColoring(2), [0, 1])
        assert exists_feasible(cycle(6), ProperColoring(2), [0, 1])

    def test_weak_coloring_always_feasible_on_connected(self):
        for g in (path(5), cycle(5), star(4), balanced_regular_tree(3, 2)):
            assert exists_feasible(g, WeakColoring(2), [0, 1])

    def test_count_proper_2_colorings_of_even_cycle(self):
        assert count_feasible(cycle(6), ProperColoring(2), [0, 1]) == 2

    def test_count_weak_colorings_of_single_edge(self):
        g = path(2)
        # Valid: 01 and 10 (00/11 fail weakness).
        assert count_feasible(g, WeakColoring(2), [0, 1]) == 2

    def test_count_respects_limit(self):
        g = path(8)
        assert count_feasible(g, WeakColoring(2), [0, 1], limit=3) == 3

    def test_mis_search(self):
        g = star(4)
        labeling = find_feasible_labeling(g, MaximalIndependentSet(), [True, False])
        assert labeling is not None
        assert MaximalIndependentSet().is_feasible(g, labeling)

    def test_default_node_order_runs_one_full_bfs(self, monkeypatch):
        # The default BFS order needs the distances from node 0 once; the
        # search's own pruning only runs radius-bounded BFS (cutoff set).
        g = path(40)
        full_bfs = []
        original = Graph.bfs_distances

        def counting(self, source, cutoff=None):
            if cutoff is None:
                full_bfs.append(source)
            return original(self, source, cutoff)

        monkeypatch.setattr(Graph, "bfs_distances", counting)
        labeling = find_feasible_labeling(g, ProperColoring(2), [0, 1])
        assert labeling == [i % 2 for i in range(40)]
        assert full_bfs == [0]
