"""Unit tests for the port-numbered graph substrate."""

import pickle
import random
from collections import deque

import pytest

from repro.graphs import Graph, edge_key
from repro.graphs.generators import (
    balanced_regular_tree,
    cycle,
    path,
    random_regular_graph,
    random_tree,
    toroidal_grid,
)


def port_shuffled(graph, rng):
    """A copy of ``graph`` with every adjacency row in a random port order."""
    rows = [list(graph.neighbors(v)) for v in graph.nodes()]
    for row in rows:
        rng.shuffle(row)
    return Graph.from_adjacency(rows)


def reference_bfs_distances(graph, source, cutoff=None):
    """Textbook FIFO-queue BFS, the reference for ``Graph.bfs_distances``."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        if cutoff is not None and dist[v] >= cutoff:
            continue
        for u in graph.neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def all_pairs_diameter(graph):
    """The definition: the largest eccentricity."""
    return max(graph.eccentricity(v) for v in graph.nodes())


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


class TestBfsDistances:
    GRAPHS = {
        "tree-d3": balanced_regular_tree(3, 4),
        "tree-d4": balanced_regular_tree(4, 3),
        "random-tree": random_tree(60, random.Random(3)),
        "cycle-9": cycle(9),
        "cycle-16": cycle(16),
        "random-3-regular": random_regular_graph(40, 3, rng=random.Random(5)),
        "random-4-regular-shuffled": port_shuffled(
            random_regular_graph(30, 4, rng=random.Random(6)), random.Random(7)
        ),
        "disconnected": Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6)]),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("cutoff", [None, 0, 1, 2, 5])
    def test_matches_fifo_reference_with_insertion_order(self, name, cutoff):
        graph = self.GRAPHS[name]
        for source in graph.nodes():
            got = graph.bfs_distances(source, cutoff=cutoff)
            want = reference_bfs_distances(graph, source, cutoff=cutoff)
            assert got == want
            assert list(got.items()) == list(want.items())

    def test_cutoff_zero_is_the_source_alone(self):
        assert cycle(5).bfs_distances(3, cutoff=0) == {3: 0}


class TestDiameterDefinition:
    """``Graph.diameter`` against ``max(eccentricity)`` on every shape it special-cases."""

    @pytest.mark.parametrize("n", [*range(3, 41), 1024])
    def test_cycles(self, n):
        graph = cycle(n)
        assert graph.diameter() == n // 2 == all_pairs_diameter(graph)

    def test_port_shuffled_cycles(self):
        rng = random.Random(11)
        for n in (5, 6, 17, 30):
            graph = port_shuffled(cycle(n), rng)
            assert graph.diameter() == all_pairs_diameter(graph)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 20])
    def test_paths(self, n):
        graph = path(n)
        assert graph.diameter() == n - 1 == all_pairs_diameter(graph)

    @pytest.mark.parametrize("delta,depth", [(3, 0), (3, 1), (3, 3), (3, 5), (4, 1), (4, 3)])
    def test_balanced_trees(self, delta, depth):
        graph = balanced_regular_tree(delta, depth)
        assert graph.diameter() == 2 * depth == all_pairs_diameter(graph)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_trees(self, seed):
        graph = random_tree(5 + 7 * seed, random.Random(seed))
        assert graph.diameter() == all_pairs_diameter(graph)

    @pytest.mark.parametrize("n,d", [(10, 3), (20, 3), (16, 4), (12, 5)])
    def test_random_regular_graphs(self, n, d):
        graph = random_regular_graph(n, d, rng=random.Random(n * d))
        assert graph.diameter() == all_pairs_diameter(graph)

    def test_unicyclic_graphs_that_are_not_cycles(self):
        # m == n but a node of degree 3: the cycle rule must not fire.
        triangle_with_pendant = Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
        triangle_with_tail = Graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5)])
        for graph in (triangle_with_pendant, triangle_with_tail):
            assert graph.m == graph.n
            assert graph.diameter() == all_pairs_diameter(graph)
        assert triangle_with_tail.diameter() == 4

    def test_two_disjoint_triangles_raise(self):
        # m == n and maximum degree 2, but not connected: not a cycle.
        graph = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        with pytest.raises(ValueError, match="disconnected"):
            graph.diameter()

    def test_cycle_diameter_makes_at_most_two_bfs_calls(self, monkeypatch):
        calls = []
        original = Graph.bfs_distances

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        graph = cycle(4096)
        monkeypatch.setattr(Graph, "bfs_distances", counting)
        assert graph.diameter() == 2048
        assert len(calls) <= 2


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

    def test_induced_subgraph_keeps_port_order_when_smaller_neighbors_come_later(self):
        g = Graph.from_adjacency(
            [
                [3, 5, 2],
                [3, 5, 7, 2, 4],
                [1, 0, 7],
                [0, 5, 6, 1],
                [1, 6, 5],
                [0, 3, 1, 4],
                [4, 3],
                [2, 1],
            ]
        )
        sub, mapping = g.induced_subgraph([0, 1, 2, 3, 6])
        # Node 2's row is (1, 0, 7): its smaller neighbor 0 sits at a later port.
        assert sub.neighbors(mapping[2]) == (mapping[1], mapping[0])

    def test_induced_subgraph_rows_are_filtered_original_rows(self):
        rng = random.Random(2)
        for trial in range(40):
            base = random_regular_graph(14, 3 + trial % 2, rng=random.Random(trial))
            g = port_shuffled(base, rng)
            keep = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            sub, mapping = g.induced_subgraph(keep)
            assert sub.m == sum(1 for u, v in g.edges() if u in mapping and v in mapping)
            for v in keep:
                want = tuple(mapping[u] for u in g.neighbors(v) if u in mapping)
                assert sub.neighbors(mapping[v]) == want


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
