"""Unit tests for graph generators."""

import random

import pytest

from repro.graphs import (
    balanced_regular_tree,
    balanced_regular_tree_size,
    caterpillar,
    complete_graph,
    cycle,
    hypercube,
    lemma18_pair,
    path,
    random_regular_graph,
    random_regular_high_girth,
    random_tree,
    regular_tree_of_depth_at_least,
    star,
    toroidal_grid,
)
from repro.local_model import gather_view


class TestBasicFamilies:
    def test_path(self):
        g = path(6)
        assert g.n == 6 and g.m == 5 and g.is_tree()
        assert path(1).n == 1
        with pytest.raises(ValueError):
            path(0)

    def test_cycle(self):
        g = cycle(7)
        assert g.is_regular(2) and g.girth() == 7
        with pytest.raises(ValueError):
            cycle(2)

    def test_star(self):
        g = star(5)
        assert g.degree(0) == 5
        assert all(g.degree(v) == 1 for v in range(1, 6))

    def test_complete_graph(self):
        g = complete_graph(5)
        assert g.m == 10 and g.is_regular(4)

    def test_caterpillar(self):
        g = caterpillar(4, 2)
        assert g.n == 12
        assert g.degree(0) == 3  # spine end: 1 spine + 2 legs
        assert g.degree(1) == 4  # interior: 2 spine + 2 legs
        assert g.is_tree()

    def test_hypercube(self):
        g = hypercube(4)
        assert g.n == 16 and g.is_regular(4) and g.girth() == 4


class TestBalancedTrees:
    def test_size_formula_matches_construction(self):
        for delta in (3, 4, 6):
            for depth in range(0, 5):
                g = balanced_regular_tree(delta, depth)
                assert g.n == balanced_regular_tree_size(delta, depth)

    def test_degree_2_is_a_path(self):
        g = balanced_regular_tree(2, 4)
        assert g.n == 9
        assert sorted(g.degree(v) for v in g.nodes()).count(2) == 7

    def test_interior_degrees(self):
        g = balanced_regular_tree(4, 3)
        dist = g.bfs_distances(0)
        for v in g.nodes():
            if dist[v] < 3:
                assert g.degree(v) == 4
            else:
                assert g.degree(v) == 1

    def test_root_eccentricity_is_depth(self):
        for depth in (1, 2, 3):
            assert balanced_regular_tree(3, depth).eccentricity(0) == depth

    def test_depth_zero(self):
        assert balanced_regular_tree(5, 0).n == 1

    def test_regular_tree_of_depth_at_least(self):
        g, depth = regular_tree_of_depth_at_least(4, 100)
        assert g.n >= 100
        smaller = balanced_regular_tree_size(4, depth - 1)
        assert smaller < 100

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            balanced_regular_tree(1, 2)
        with pytest.raises(ValueError):
            balanced_regular_tree(3, -1)


@pytest.mark.parametrize(
    "factory",
    [lambda: cycle(14), lambda: path(11), lambda: toroidal_grid(4, 5),
     lambda: balanced_regular_tree(3, 3)],
    ids=["cycle", "path", "torus", "tree"],
)
def test_generators_return_frozen_graphs(factory):
    graph = factory()
    assert graph.is_frozen
    assert graph.freeze() is graph  # idempotent, no re-freeze dance


class TestTorus:
    def test_torus_is_4_regular_leafless(self):
        g = toroidal_grid(4, 5)
        assert g.n == 20 and g.is_regular(4)

    def test_torus_edge_count(self):
        g = toroidal_grid(3, 3)
        assert g.m == 2 * 9

    def test_torus_rejects_thin_dimensions(self):
        with pytest.raises(ValueError):
            toroidal_grid(2, 5)


class TestRandomFamilies:
    def test_random_regular_graph_is_regular(self):
        rng = random.Random(0)
        for d in (2, 3, 4):
            g = random_regular_graph(24, d, rng=rng)
            assert g.is_regular(d)

    def test_random_regular_parity_check(self):
        with pytest.raises(ValueError, match="even"):
            random_regular_graph(5, 3)

    def test_random_regular_degree_too_big(self):
        with pytest.raises(ValueError):
            random_regular_graph(4, 4)

    def test_random_regular_deterministic_given_seed(self):
        a = random_regular_graph(20, 3, rng=random.Random(7))
        b = random_regular_graph(20, 3, rng=random.Random(7))
        assert a == b

    def test_high_girth(self):
        g = random_regular_high_girth(60, 3, girth_at_least=5, rng=random.Random(1))
        assert g.is_regular(3)
        girth = g.girth()
        assert girth is None or girth >= 5

    def test_random_tree_is_tree(self):
        for n in (1, 2, 3, 10, 40):
            assert random_tree(n, random.Random(n)).is_tree()

    def test_random_tree_deterministic(self):
        assert random_tree(15, random.Random(3)) == random_tree(15, random.Random(3))


class TestLemma18Pair:
    def test_same_size(self):
        t, t_prime, center = lemma18_pair(4, 3)
        assert t.n == t_prime.n
        assert center == 0

    def test_t_prime_has_degree_delta_minus_1_ring(self):
        delta, depth = 4, 3
        t, t_prime, _ = lemma18_pair(delta, depth)
        dist = t.bfs_distances(0)
        for v in t.nodes():
            if dist[v] == depth - 1:
                assert t_prime.degree(v) == delta - 1

    def test_views_indistinguishable_up_to_depth_minus_2(self):
        t, t_prime, c = lemma18_pair(4, 4)
        for radius in range(0, 3):  # 0 .. depth-2
            assert gather_view(t, c, radius).key() == gather_view(t_prime, c, radius).key()

    def test_views_distinguishable_at_depth_minus_1(self):
        t, t_prime, c = lemma18_pair(4, 4)
        assert gather_view(t, c, 3).key() != gather_view(t_prime, c, 3).key()

    def test_minimum_depth_enforced(self):
        with pytest.raises(ValueError):
            lemma18_pair(4, 1)
        with pytest.raises(ValueError):
            lemma18_pair(2, 3)

    def test_delta_3(self):
        t, t_prime, _ = lemma18_pair(3, 3)
        assert t.n == t_prime.n
        assert gather_view(t, 0, 1).key() == gather_view(t_prime, 0, 1).key()
