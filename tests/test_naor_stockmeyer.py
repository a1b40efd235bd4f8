"""Tests for the odd-degree O(1) weak 2-coloring (Naor-Stockmeyer row)."""

import random

import pytest

from repro.algorithms import (
    in_degree_labeling,
    is_distance_k_weak,
    naor_stockmeyer,
    odd_degree_weak_two_coloring,
    order_type_labeling,
)
from repro.algorithms.naor_stockmeyer import ORDER_TYPE_BITS, ORDER_TYPE_RADIUS
from repro.graphs import (
    Graph,
    balanced_regular_tree,
    cycle,
    path,
    random_permutation_ids,
    random_regular_graph,
    regular_tree_of_depth_at_least,
    sequential_ids,
    sorted_by_bfs_ids,
    star,
    toroidal_grid,
)
from repro.lcl import WeakColoring
from repro.local_model.views import View, gather_view


def view_order_type_labeling(graph, ids, radius=ORDER_TYPE_RADIUS):
    """The order-type labeling as it was first written, one ``View`` per node.

    Kept verbatim as the oracle for :func:`order_type_labeling`, which
    builds the same key without a ``View``.
    """
    if len(set(ids)) != graph.n:
        raise ValueError("identifiers must be unique")
    labels = []
    for v in graph.nodes():
        view = gather_view(graph, v, radius, ids=ids)
        order = sorted(range(view.node_count), key=lambda i: view.identifiers[i])
        rank = [0] * view.node_count
        for pos, i in enumerate(order):
            rank[i] = pos
        type_key = (view.distances, view.degrees, tuple(rank), view.edges)
        encoded = int.from_bytes(repr(type_key).encode("ascii"), "big")
        if encoded.bit_length() >= ORDER_TYPE_BITS:
            raise AssertionError(
                "order-type encoding exceeded the constant-size cap; "
                "raise ORDER_TYPE_BITS for this Delta"
            )
        labels.append(encoded)
    return labels, radius


def _oracle_graphs():
    graphs = {}
    # Table 1's Delta = 3 trees (targets 50, 200, 800: n = 94, 382, 1,534).
    for target in (50, 200, 800):
        tree, _ = regular_tree_of_depth_at_least(3, target)
        graphs[f"table1-d3-n{tree.n}"] = tree
    graphs["tree-d5"] = balanced_regular_tree(5, 3)
    graphs["random-3-regular"] = random_regular_graph(40, 3, rng=random.Random(1))
    graphs["random-5-regular"] = random_regular_graph(36, 5, rng=random.Random(2))
    graphs["matching"] = Graph(6, [(0, 1), (2, 3), (4, 5)])
    graphs["star"] = star(5)
    graphs["cycle-12"] = cycle(12)
    # Balls that hold short cycles, and a node whose ball is itself alone.
    for n in (3, 4, 5):
        graphs[f"short-cycle-{n}"] = cycle(n)
    graphs["short-torus-3x3"] = toroidal_grid(3, 3)
    graphs["short-torus-4x5"] = toroidal_grid(4, 5)
    graphs["k4-plus-isolated-node"] = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    return graphs


ORACLE_GRAPHS = _oracle_graphs()

#: Graphs whose every degree is odd: the Naor-Stockmeyer pipeline's domain.
ODD_DEGREE_GRAPHS = sorted(
    name for name, g in ORACLE_GRAPHS.items() if all(g.degree(v) % 2 for v in g.nodes())
)

ID_SCHEMES = {
    "sequential": sequential_ids,
    "random": lambda g: random_permutation_ids(g, random.Random(g.n)),
    # BFS order needs a connected graph; the matching keeps sequential ids.
    "bfs-sorted": lambda g: sorted_by_bfs_ids(g) if g.is_connected() else sequential_ids(g),
    # Identifiers that are not 1..n: drawn from a sparse set that holds 0 and 2^70.
    "sparse": lambda g: random.Random(g.n + 1).sample([0, *range(7, 3 * g.n + 7, 3), 1 << 70], g.n),
}


class TestInDegreeLabeling:
    def test_one_round(self):
        g = path(3)
        labels, rounds = in_degree_labeling(g, [2, 1, 3])
        assert rounds == 1
        assert labels == [1, 0, 1]

    def test_counts_smaller_neighbors(self):
        g = star(4)
        labels, _ = in_degree_labeling(g, [5, 1, 2, 3, 4])
        assert labels[0] == 4

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            in_degree_labeling(path(3), [1, 1, 2])

    def test_documented_negative_result(self):
        """BFS-order identifiers flatten the in-degree labeling on trees.

        This is the worst case that rules the in-degree shortcut out as
        an O(1) weak coloring — kept as a regression anchor for the
        docstring's claim.
        """
        g = balanced_regular_tree(3, 5)
        labels, _ = in_degree_labeling(g, sorted_by_bfs_ids(g))
        assert not is_distance_k_weak(g, labels, 2)
        # Indeed everything except the root is in-degree 1.
        assert set(labels[1:]) == {1}


class TestOrderTypeLabeling:
    def test_round_cost_is_radius(self):
        g = path(4)
        _, rounds = order_type_labeling(g, sequential_ids(g), radius=2)
        assert rounds == 2

    def test_weak_on_odd_regular_random(self):
        rng = random.Random(0)
        for d in (3, 5):
            for trial in range(5):
                g = random_regular_graph(30 if d == 3 else 36, d,
                                         rng=random.Random(rng.getrandbits(64)))
                labels, _ = order_type_labeling(g, random_permutation_ids(g, rng))
                assert is_distance_k_weak(g, labels, 1)

    def test_weak_on_odd_trees_with_adversarial_ids(self):
        g = balanced_regular_tree(3, 5)
        for ids in (sequential_ids(g), sorted_by_bfs_ids(g)):
            labels, _ = order_type_labeling(g, ids)
            assert is_distance_k_weak(g, labels, 1)

    def test_weak_on_matchings(self):
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        labels, _ = order_type_labeling(g, [6, 1, 5, 2, 4, 3])
        assert is_distance_k_weak(g, labels, 1)

    def test_fails_on_even_degree_negative_control(self):
        # The even-degree case is exactly where the paper's lower bound
        # lives: increasing identifiers on a cycle are order-homogeneous.
        g = cycle(12)
        labels, _ = order_type_labeling(g, sequential_ids(g))
        assert not is_distance_k_weak(g, labels, 1)

    def test_types_are_injectively_encoded(self):
        g = star(3)
        labels, _ = order_type_labeling(g, sequential_ids(g))
        # Center and leaves must differ (different degrees).
        assert labels[0] != labels[1]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            order_type_labeling(path(3), [1, 1, 2])


@pytest.fixture(scope="module")
def table1_odd_tree():
    """Table 1's largest Delta = 3 tree (n = 6,142)."""
    return regular_tree_of_depth_at_least(3, 3200)[0]


class TestOrderTypesShareInts:
    @pytest.mark.parametrize("scheme,types", [("sequential", 22), ("random", 2795)])
    def test_one_int_per_distinct_type(self, table1_odd_tree, scheme, types):
        labels, _ = order_type_labeling(table1_odd_tree, ID_SCHEMES[scheme](table1_odd_tree))
        assert len(set(labels)) == types
        assert len({id(label) for label in labels}) == types


class TestInputLengths:
    """``balanced_regular_tree(3, 2)`` has 10 nodes, every degree odd."""

    LABELINGS = [in_degree_labeling, order_type_labeling, odd_degree_weak_two_coloring]

    @pytest.mark.parametrize("labeling", LABELINGS)
    def test_eleven_ids_with_one_repeat_rejected(self, labeling):
        with pytest.raises(ValueError, match="^ids has 11 entries for a graph with 10 nodes$"):
            labeling(balanced_regular_tree(3, 2), [*range(1, 11), 3])

    @pytest.mark.parametrize("count", [9, 11])
    @pytest.mark.parametrize("labeling", LABELINGS)
    def test_distinct_ids_of_another_count_rejected(self, labeling, count):
        expected = f"^ids has {count} entries for a graph with 10 nodes$"
        with pytest.raises(ValueError, match=expected):
            labeling(balanced_regular_tree(3, 2), list(range(1, count + 1)))


class TestOrderTypesMatchViewOracle:
    @pytest.mark.parametrize("scheme", sorted(ID_SCHEMES))
    @pytest.mark.parametrize("radius", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_labels_identical(self, name, radius, scheme):
        graph = ORACLE_GRAPHS[name]
        ids = ID_SCHEMES[scheme](graph)
        assert order_type_labeling(graph, ids, radius) == view_order_type_labeling(
            graph, ids, radius
        )

    @pytest.mark.parametrize("scheme", sorted(ID_SCHEMES))
    @pytest.mark.parametrize("name", ODD_DEGREE_GRAPHS)
    def test_weak_two_coloring_identical(self, name, scheme, monkeypatch):
        graph = ORACLE_GRAPHS[name]
        ids = ID_SCHEMES[scheme](graph)
        got = odd_degree_weak_two_coloring(graph, ids)
        monkeypatch.setattr(naor_stockmeyer, "order_type_labeling", view_order_type_labeling)
        want = odd_degree_weak_two_coloring(graph, ids)
        assert got.labels == want.labels
        assert got.rounds == want.rounds
        assert got.phase_rounds == want.phase_rounds

    def test_builds_no_view(self, monkeypatch):
        built = []
        original = View.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(View, "__init__", counting)
        graph = ORACLE_GRAPHS["table1-d3-n94"]
        order_type_labeling(graph, sequential_ids(graph))
        assert built == []
        view_order_type_labeling(graph, sequential_ids(graph))
        assert len(built) == graph.n  # the counter does see View construction


class TestOddDegreeWeakTwoColoring:
    def assert_weak2(self, g, labels):
        assert not WeakColoring(2).verify(g, labels)

    def test_on_3_regular_trees(self):
        for depth in (1, 2, 4):
            g = balanced_regular_tree(3, depth)
            out = odd_degree_weak_two_coloring(g, sequential_ids(g))
            self.assert_weak2(g, out.labels)

    def test_on_3_and_5_regular_graphs(self):
        rng = random.Random(7)
        for d, n in ((3, 20), (5, 24)):
            g = random_regular_graph(n, d, rng=rng)
            out = odd_degree_weak_two_coloring(g, random_permutation_ids(g, rng))
            self.assert_weak2(g, out.labels)

    def test_on_matching(self):
        g = Graph(4, [(0, 1), (2, 3)])
        out = odd_degree_weak_two_coloring(g, [4, 1, 3, 2])
        self.assert_weak2(g, out.labels)

    def test_on_star_with_odd_center(self):
        g = star(3)
        out = odd_degree_weak_two_coloring(g, sequential_ids(g))
        self.assert_weak2(g, out.labels)

    def test_rounds_constant_across_sizes(self):
        rounds = set()
        for depth in (2, 3, 4, 5):
            g = balanced_regular_tree(3, depth)
            out = odd_degree_weak_two_coloring(g, sequential_ids(g))
            rounds.add(out.rounds)
        assert len(rounds) == 1

    def test_rounds_constant_under_adversarial_ids(self):
        g = balanced_regular_tree(3, 4)
        r1 = odd_degree_weak_two_coloring(g, sequential_ids(g)).rounds
        r2 = odd_degree_weak_two_coloring(g, sorted_by_bfs_ids(g)).rounds
        assert r1 == r2

    def test_even_degree_rejected(self):
        g = cycle(6)
        with pytest.raises(ValueError, match="odd"):
            odd_degree_weak_two_coloring(g, sequential_ids(g))

    def test_mixed_parity_rejected(self):
        g = path(3)  # middle node has degree 2
        with pytest.raises(ValueError, match="odd"):
            odd_degree_weak_two_coloring(g, sequential_ids(g))
