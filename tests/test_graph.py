"""Unit tests for the port-numbered graph substrate."""

import pickle

import pytest

from repro.graphs import Graph, edge_key
from repro.graphs.generators import balanced_regular_tree, cycle, path, toroidal_grid


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0
        assert g.m == 0
        assert g.is_connected()

    def test_single_node(self):
        g = Graph(1)
        assert g.degree(0) == 0
        assert g.is_tree()

    def test_add_edge_both_directions_visible(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_self_loop_rejected(self):
        g = Graph(2)
        with pytest.raises(ValueError, match="self-loop"):
            g.add_edge(1, 1)

    def test_duplicate_edge_rejected(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError, match="duplicate"):
            g.add_edge(1, 0)

    def test_edge_queries_from_either_row(self):
        # The center's row is the long one; every query must give the same
        # answer from the leaf's side, and out-of-range ids are just absent.
        g = Graph(5, [(0, 3), (0, 1), (4, 0), (2, 0)])
        assert all(g.has_edge(0, x) and g.has_edge(x, 0) for x in (1, 2, 3, 4))
        assert not g.has_edge(1, 2)
        assert not g.has_edge(0, 5) and not g.has_edge(-1, 0) and not g.has_edge(0, 0)
        for u, v in ((3, 0), (0, 3)):
            with pytest.raises(ValueError, match="duplicate"):
                g.add_edge(u, v)
        assert g.m == 4
        assert list(g.edges()) == [(0, 1), (0, 2), (0, 3), (0, 4)]
        assert Graph.from_adjacency([[1, 2], [0], [0]]).m == 2

    def test_out_of_range_rejected(self):
        g = Graph(2)
        with pytest.raises(ValueError, match="out of range"):
            g.add_edge(0, 5)

    def test_negative_node_count_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_freeze_blocks_mutation(self):
        g = Graph(3, [(0, 1)]).freeze()
        with pytest.raises(ValueError, match="frozen"):
            g.add_edge(1, 2)

    def test_edge_key_canonical(self):
        assert edge_key(3, 1) == (1, 3)
        assert edge_key(1, 3) == (1, 3)


class TestFreeze:
    def test_add_edge_after_freeze_raises(self):
        graph = Graph(4, edges=[(0, 1), (1, 2)])
        graph.freeze()
        with pytest.raises(ValueError, match="frozen"):
            graph.add_edge(2, 3)
        # The failed mutation left nothing behind.
        assert graph.m == 2
        assert graph.degree(3) == 0

    def test_from_adjacency_freeze_then_add_edge_raises(self):
        graph = Graph.from_adjacency([[1], [0], []]).freeze()
        with pytest.raises(ValueError, match="frozen"):
            graph.add_edge(1, 2)

    def test_freeze_is_idempotent_and_visible(self):
        graph = Graph(3, edges=[(0, 1)])
        assert not graph.is_frozen
        assert graph.freeze() is graph
        assert graph.freeze() is graph  # second freeze is a no-op
        assert graph.is_frozen


class TestPorts:
    def test_ports_follow_insertion_order(self):
        g = Graph(4, [(0, 2), (0, 1), (0, 3)])
        assert g.neighbors(0) == (2, 1, 3)
        assert g.endpoint(0, 0) == 2
        assert g.endpoint(0, 1) == 1
        assert g.port_to(0, 3) == 2

    def test_port_to_unknown_neighbor_raises(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="not a neighbor"):
            g.port_to(0, 2)

    def test_port_roundtrip(self):
        g = balanced_regular_tree(4, 3)
        for v in g.nodes():
            for port, u in enumerate(g.neighbors(v)):
                assert g.endpoint(v, port) == u
                assert g.port_to(v, u) == port


class TestDistances:
    def test_bfs_distances_on_path(self):
        g = path(5)
        dist = g.bfs_distances(0)
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_bfs_cutoff(self):
        g = path(10)
        dist = g.bfs_distances(0, cutoff=3)
        assert set(dist) == {0, 1, 2, 3}

    def test_distance_symmetry(self):
        g = balanced_regular_tree(3, 3)
        assert g.distance(0, 5) == g.distance(5, 0)

    def test_distance_unreachable_raises(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="unreachable"):
            g.distance(0, 2)

    def test_ball_and_sphere(self):
        g = balanced_regular_tree(4, 2)
        assert g.ball(0, 0) == [0]
        assert len(g.sphere(0, 1)) == 4
        assert len(g.sphere(0, 2)) == 12
        assert len(g.ball(0, 2)) == 17

    def test_eccentricity_center_of_tree(self):
        g = balanced_regular_tree(3, 4)
        assert g.eccentricity(0) == 4

    def test_diameter_of_path(self):
        assert path(7).diameter() == 6

    def test_diameter_of_cycle(self):
        assert cycle(8).diameter() == 4
        assert cycle(9).diameter() == 4

    def test_diameter_of_balanced_tree_double_bfs_matches(self):
        g = balanced_regular_tree(3, 3)
        brute = max(g.eccentricity(v) for v in g.nodes())
        assert g.diameter() == brute

    def test_diameter_disconnected_raises(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            g.diameter()


class TestStructure:
    def test_is_tree(self):
        assert path(5).is_tree()
        assert balanced_regular_tree(4, 3).is_tree()
        assert not cycle(5).is_tree()

    def test_connected_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        comps = g.connected_components()
        assert comps == [[0, 1], [2, 3], [4]]

    def test_girth_acyclic_none(self):
        assert path(6).girth() is None
        assert balanced_regular_tree(3, 3).girth() is None

    def test_girth_of_cycles(self):
        for n in (3, 4, 5, 8, 11):
            assert cycle(n).girth() == n

    def test_girth_of_torus(self):
        assert toroidal_grid(4, 4).girth() == 4

    def test_girth_cutoff_returns_none_when_exceeded(self):
        assert cycle(9).girth(cutoff=5) is None
        assert cycle(9).girth(cutoff=9) == 9

    def test_girth_triangle_with_tail(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
        assert g.girth() == 3

    def test_regularity(self):
        assert cycle(6).is_regular(2)
        assert balanced_regular_tree(4, 0).is_regular(0)
        assert not balanced_regular_tree(4, 2).is_regular()
        assert toroidal_grid(3, 3).is_regular(4)

    def test_max_min_degree(self):
        g = balanced_regular_tree(4, 2)
        assert g.max_degree() == 4
        assert g.min_degree() == 1

    def test_bipartition_of_even_cycle(self):
        coloring = cycle(6).bipartition()
        assert coloring is not None
        for u, v in cycle(6).edges():
            assert coloring[u] != coloring[v]

    def test_bipartition_of_odd_cycle_none(self):
        assert cycle(5).bipartition() is None
        assert not cycle(5).is_bipartite()

    def test_trees_are_bipartite(self):
        assert balanced_regular_tree(3, 4).is_bipartite()


class TestSubgraph:
    def test_induced_subgraph_nodes_relabeled(self):
        g = cycle(6)
        sub, mapping = g.induced_subgraph([1, 2, 3])
        assert sub.n == 3
        assert sub.m == 2  # the path 1-2-3
        assert mapping == {1: 0, 2: 1, 3: 2}

    def test_induced_subgraph_preserves_port_order(self):
        g = Graph(4, [(0, 3), (0, 1), (0, 2)])
        sub, mapping = g.induced_subgraph([0, 1, 3])
        # Original ports at 0: 3, 1, 2 -> surviving order 3, 1.
        assert sub.neighbors(mapping[0]) == (mapping[3], mapping[1])


class TestConversion:
    def test_networkx_roundtrip(self):
        g = balanced_regular_tree(4, 2)
        nx_graph = g.to_networkx()
        back = Graph.from_networkx(nx_graph)
        assert back == g

    def test_from_networkx_requires_contiguous_nodes(self):
        import networkx as nx

        h = nx.Graph()
        h.add_edge(5, 7)
        with pytest.raises(ValueError, match="0..n-1"):
            Graph.from_networkx(h)

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        c = Graph(3, [(0, 1)])
        assert a != c

    @pytest.mark.parametrize("frozen", [True, False])
    def test_pickle_round_trip_keeps_equality_and_frozen_flag(self, frozen):
        graph = Graph.from_adjacency([[2, 1], [0, 2], [1, 0], []])
        if frozen:
            graph.freeze()
        clone = pickle.loads(pickle.dumps(graph))
        assert clone is not graph
        assert clone == graph
        assert clone.is_frozen is frozen
        assert [clone.neighbors(v) for v in clone.nodes()] == [
            graph.neighbors(v) for v in graph.nodes()
        ]
