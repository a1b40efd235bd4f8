"""Unit tests for radius-t views (node and edge)."""

import pytest

from repro.graphs import (
    balanced_regular_tree,
    cycle,
    orient_tree,
    path,
    toroidal_grid,
    orient_torus,
)
from repro.local_model import gather_edge_view, gather_view, view_signature


class TestNodeViews:
    def test_radius_zero_sees_only_self(self):
        g = balanced_regular_tree(4, 2)
        view = gather_view(g, 0, 0)
        assert view.node_count == 1
        assert view.degrees == (4,)
        assert view.edges == ()

    def test_ball_sizes(self):
        g = balanced_regular_tree(4, 3)
        assert gather_view(g, 0, 1).node_count == 5
        assert gather_view(g, 0, 2).node_count == 17
        assert gather_view(g, 0, 3).node_count == 53

    def test_center_is_local_zero(self):
        g = cycle(8)
        view = gather_view(g, 3, 2)
        assert view.center == 0
        assert view.distances[0] == 0
        assert view.originals[0] == 3

    def test_degrees_are_global_degrees(self):
        # Boundary nodes report their true degree even though their
        # neighbors are not in the view.
        g = balanced_regular_tree(4, 2)
        view = gather_view(g, 0, 1)
        assert set(view.degrees[1:]) == {4}

    def test_induced_edges_included(self):
        # In a cycle, radius n/2 closes the loop: the far edge appears.
        g = cycle(6)
        view = gather_view(g, 0, 3)
        assert view.node_count == 6
        assert len(view.edges) == 6

    def test_edges_respect_radius(self):
        g = cycle(6)
        view = gather_view(g, 0, 2)
        assert view.node_count == 5
        assert len(view.edges) == 4  # the induced path, loop not closed

    def test_identifiers_travel_with_view(self):
        g = path(5)
        ids = [10, 20, 30, 40, 50]
        view = gather_view(g, 2, 1, ids=ids)
        assert sorted(view.identifiers) == [20, 30, 40]

    def test_isomorphic_positions_same_key(self):
        # Anonymous interior cycle nodes share port patterns (node 0's
        # ports differ because the wrap-around edge lands last), so any
        # two nonzero nodes far from the wrap look alike.
        g = cycle(9)
        a = gather_view(g, 3, 2, ids=None)
        b = gather_view(g, 6, 2, ids=None)
        assert a.key() == b.key()

    def test_different_structures_different_keys(self):
        tree = balanced_regular_tree(3, 2)
        a = gather_view(tree, 0, 1)  # center, degree 3
        leaf = tree.sphere(0, 2)[0]
        b = gather_view(tree, leaf, 1)
        assert a.key() != b.key()

    def test_orientation_directions_in_view(self):
        g = toroidal_grid(4, 4)
        o = orient_torus(g, 4, 4)
        view = gather_view(g, 0, 1, orientation=o)
        dirs = {d for *_rest, d in view.edges}
        assert dirs <= {(0, 1), (0, -1), (1, 1), (1, -1)}
        # Center has one neighbor in each direction: local 0 is the low
        # end of its edges, so each direction is read from the center.
        at_center = [d for i, *_rest, d in view.edges if i == 0]
        assert sorted(at_center) == sorted(dirs) == [(0, -1), (0, 1), (1, -1), (1, 1)]

    def test_local_neighbors_sorted_by_port(self):
        # The center's neighbors take locals 1, 2, ... in port order, and
        # each of its edges carries the graph's ports at both ends.
        g = balanced_regular_tree(4, 2)
        view = gather_view(g, 0, 1)
        at_center = sorted((p, j, pj) for i, j, p, pj, _ in view.edges if i == 0)
        assert [(p, j) for p, j, _ in at_center] == [(0, 1), (1, 2), (2, 3), (3, 4)]
        for p, j, pj in at_center:
            u = view.originals[j]
            assert u == g.endpoint(0, p) and g.port_to(u, 0) == pj

    def test_nodes_at_distance(self):
        g = balanced_regular_tree(4, 2)
        view = gather_view(g, 0, 2)
        assert len(view.nodes_at_distance(0)) == 1
        assert len(view.nodes_at_distance(1)) == 4
        assert len(view.nodes_at_distance(2)) == 12

    def test_randomness_labels(self):
        g = path(3)
        view = gather_view(g, 1, 1, randomness=[7, 8, 9])
        assert sorted(view.randomness) == [7, 8, 9]

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            gather_view(path(3), 0, -1)

    def test_view_equality_and_hash(self):
        g = cycle(8)
        a = gather_view(g, 3, 1)
        b = gather_view(g, 5, 1)
        assert a == b
        assert hash(a) == hash(b)
        c = gather_view(g, 3, 1, ids=list(range(1, 9)))
        assert a != c


class TestEdgeViews:
    def test_edge_view_radius_zero_is_two_nodes(self):
        g = balanced_regular_tree(4, 2)
        view = gather_edge_view(g, (0, 1), 0)
        assert view.node_count == 2
        assert len(view.edges) == 1

    def test_edge_view_union_of_balls(self):
        g = balanced_regular_tree(4, 3)
        view = gather_edge_view(g, (0, 1), 1)
        expected = set(g.ball(0, 1)) | set(g.ball(1, 1))
        assert set(view.originals) == expected

    def test_edge_view_orientation_canonicalizes_endpoint_order(self):
        tree = balanced_regular_tree(4, 3)
        o = orient_tree(tree, 2)
        u, v = next(iter(tree.edges()))
        a = gather_edge_view(tree, (u, v), 1, orientation=o)
        b = gather_edge_view(tree, (v, u), 1, orientation=o)
        assert a.key() == b.key()

    def test_edge_view_rejects_non_edge(self):
        g = path(4)
        with pytest.raises(ValueError, match="not an edge"):
            gather_edge_view(g, (0, 3), 1)

    def test_edge_views_of_symmetric_positions_match(self):
        # Away from node 0's irregular port pattern, translated edges of
        # an anonymous cycle are indistinguishable.
        g = cycle(10)
        a = gather_edge_view(g, (3, 4), 1)
        b = gather_edge_view(g, (5, 6), 1)
        assert a.key() == b.key()


class TestCenterOutsideTheGraph:
    @pytest.mark.parametrize("v", [-1, 4])
    def test_gather_view_refuses_it(self, v):
        with pytest.raises(ValueError, match=f"^{v} is not a node of the 4-node graph$"):
            gather_view(path(4), v, 0)

    @pytest.mark.parametrize("v", [-1, 4])
    def test_view_signature_refuses_it(self, v):
        with pytest.raises(ValueError, match=f"^{v} is not a node of the 4-node graph$"):
            view_signature(path(4), v, 1)

