"""Unit tests for orientations and identifier schemes."""

import gc
import random
import tracemalloc

import pytest

from repro.graphs import (
    Graph,
    Orientation,
    adversarial_interval_ids,
    balanced_regular_tree,
    cycle,
    direction_name,
    orient_torus,
    orient_tree,
    path,
    random_ids,
    random_permutation_ids,
    sequential_ids,
    sorted_by_bfs_ids,
    toroidal_grid,
    validate_ids,
)


class TestOrientation:
    def test_orient_tree_validates(self):
        for delta, depth in ((4, 3), (6, 2), (2, 5)):
            tree = balanced_regular_tree(delta, depth)
            o = orient_tree(tree, delta // 2)
            o.validate()

    def test_every_edge_labeled(self):
        tree = balanced_regular_tree(4, 3)
        o = orient_tree(tree, 2)
        for u, v in tree.edges():
            assert o.is_labeled(u, v)

    def test_signs_opposite_at_endpoints(self):
        tree = balanced_regular_tree(4, 3)
        o = orient_tree(tree, 2)
        for u, v in tree.edges():
            assert o.sign_at(u, v) == -o.sign_at(v, u)
            assert o.dim_of(u, v) == o.dim_of(v, u)

    def test_neighbor_lookup_consistency(self):
        tree = balanced_regular_tree(4, 3)
        o = orient_tree(tree, 2)
        for v in tree.nodes():
            for (dim, sign), u in o.labeled_neighbors(v).items():
                assert o.neighbor(v, dim, sign) == u
                assert o.neighbor(u, dim, -sign) == v

    def test_full_degree_nodes_have_all_directions(self):
        tree = balanced_regular_tree(4, 3)
        o = orient_tree(tree, 2)
        for v in tree.nodes():
            if tree.degree(v) == 4:
                assert len(o.labeled_neighbors(v)) == 4

    def test_orient_tree_rejects_high_degree(self):
        tree = balanced_regular_tree(6, 2)
        with pytest.raises(ValueError, match="exceeds"):
            orient_tree(tree, 2)

    def test_orient_tree_rejects_non_tree(self):
        with pytest.raises(ValueError, match="tree"):
            orient_tree(cycle(6), 2)

    def test_orient_torus(self):
        g = toroidal_grid(4, 5)
        o = orient_torus(g, 4, 5)
        o.validate()
        # Moving right 5 times returns home.
        v = 0
        for _ in range(5):
            v = o.neighbor(v, 0, 1)
        assert v == 0

    def test_torus_vertical_wraparound(self):
        g = toroidal_grid(4, 5)
        o = orient_torus(g, 4, 5)
        v = 7
        for _ in range(4):
            v = o.neighbor(v, 1, 1)
        assert v == 7

    def test_direction_names(self):
        assert direction_name(0, 1) == "R"
        assert direction_name(0, -1) == "L"
        assert direction_name(1, 1) == "U"
        assert direction_name(1, -1) == "D"
        assert direction_name(2, 1, k=3) == "+2"

    def test_duplicate_direction_rejected(self):
        g = Graph(3, [(0, 1), (0, 2)])
        with pytest.raises(ValueError, match="two edges"):
            Orientation(g, 1, {(0, 1): (0, 0), (0, 2): (0, 0)})

    def test_unlabeled_edge_fails_validation(self):
        g = Graph(2, [(0, 1)])
        o = Orientation(g, 1, {})
        with pytest.raises(ValueError, match="unlabeled"):
            o.validate()
        o.validate(require_full=False)

    def test_edges_of_dimension(self):
        g = toroidal_grid(3, 3)
        o = orient_torus(g, 3, 3)
        assert len(o.edges_of_dimension(0)) == 9
        assert len(o.edges_of_dimension(1)) == 9

    def test_non_canonical_key_agrees_everywhere(self):
        # The key (1, 0) is not in sorted order; every query must still
        # see the one label it carries.
        o = Orientation(Graph(2, [(0, 1)]), 1, {(1, 0): (0, 0)})
        assert o.neighbor(0, 0, 1) == 1 and o.neighbor(1, 0, -1) == 0
        assert o.labeled_neighbors(0) == {(0, 1): 1}
        assert o.is_labeled(0, 1) and o.is_labeled(1, 0)
        assert o.direction_at(0, 1) == (0, 1)
        assert o.direction_at(1, 0) == (0, -1)
        o.validate()
        # A direction outside range(k) x {+1, -1} names no neighbor, even
        # where a flat index would land on a neighboring slot.
        for v in (0, 1):
            for dim, sign in ((1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)):
                assert o.neighbor(v, dim, sign) is None

    def test_unlabeled_pair_raises_key_error(self):
        o = Orientation(Graph(3, [(0, 1), (1, 2)]), 1, {(0, 1): (0, 0)})
        assert not o.is_labeled(1, 2)
        for query in (o.direction_at, o.dim_of, o.sign_at):
            with pytest.raises(KeyError):
                query(1, 2)
        with pytest.raises(KeyError):
            o.direction_at(0, 2)  # not even an edge

    def test_orient_tree_matches_validating_constructor(self):
        for delta, depth in ((4, 4), (6, 3), (3, 5), (2, 5)):
            tree = balanced_regular_tree(delta, depth)
            k = (delta + 1) // 2
            o = orient_tree(tree, k)
            labels = {
                (a, b): (dim, a if o.sign_at(a, b) == 1 else b)
                for dim in range(k)
                for a, b in o.edges_of_dimension(dim)
            }
            assert len(labels) == tree.m
            rebuilt = Orientation(tree, k, labels)
            rebuilt.validate()
            for v in tree.nodes():
                assert rebuilt.labeled_neighbors(v) == o.labeled_neighbors(v)

    def test_labeled_neighbors_in_slot_order(self):
        o = orient_torus(toroidal_grid(4, 5), 4, 5)
        for v in (0, 7, 19):
            assert list(o.labeled_neighbors(v)) == [(0, 1), (0, -1), (1, 1), (1, -1)]

    def test_constructor_rejects_bad_labels(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="not in graph"):
            Orientation(g, 1, {(0, 2): (0, 0)})
        with pytest.raises(ValueError, match="low endpoint 2 not on edge"):
            Orientation(g, 1, {(0, 1): (0, 2)})
        with pytest.raises(ValueError, match="dimension 1 out of range"):
            Orientation(g, 1, {(0, 1): (1, 0)})
        with pytest.raises(ValueError, match="dimension -1 out of range"):
            Orientation(g, 1, {(0, 1): (-1, 0)})

    def test_orient_tree_memory_budget(self):
        # Allocation counts, not time: deterministic under any load.  The
        # rows take 2k slots of 8 bytes per node; the BFS adds two lists.
        tree = balanced_regular_tree(4, 8)  # n = 13,121
        orient_tree(balanced_regular_tree(4, 2), 2)  # warm up
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            o = orient_tree(tree, 2)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert o.k == 2
        assert (after - before) / tree.n <= 64
        assert (peak - before) / tree.n <= 200


class TestIdentifiers:
    def test_sequential(self):
        g = path(5)
        assert sequential_ids(g) == [1, 2, 3, 4, 5]
        assert validate_ids(g, sequential_ids(g), c=1)

    def test_random_permutation_is_permutation(self):
        g = cycle(10)
        ids = random_permutation_ids(g, random.Random(1))
        assert sorted(ids) == list(range(1, 11))

    def test_random_ids_in_range(self):
        g = cycle(10)
        ids = random_ids(g, c=2, rng=random.Random(2))
        assert all(1 <= i <= 100 for i in ids)

    def test_sorted_by_bfs(self):
        g = path(5)
        ids = sorted_by_bfs_ids(g, root=0)
        assert ids == [1, 2, 3, 4, 5]
        ids_mid = sorted_by_bfs_ids(g, root=2)
        assert ids_mid[2] == 1

    def test_sorted_by_bfs_requires_connected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            sorted_by_bfs_ids(g)

    def test_adversarial_interval(self):
        g = cycle(5)
        assert adversarial_interval_ids(g, start=10) == [10, 11, 12, 13, 14]
        with pytest.raises(ValueError):
            adversarial_interval_ids(g, start=0)

    def test_validate_rejects_duplicates(self):
        g = path(3)
        assert not validate_ids(g, [1, 1, 2])
        assert not validate_ids(g, [0, 1, 2])
        assert not validate_ids(g, [1, 2])
        assert not validate_ids(g, [1, 2, 100], c=1)
        assert validate_ids(g, [1, 2, 9], c=2)
