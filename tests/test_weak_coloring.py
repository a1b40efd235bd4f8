"""Tests for the Lemma 2 pipeline (weak coloring reductions)."""

import random

import pytest

from repro.algorithms import (
    BLACK,
    WHITE,
    choose_successors,
    distance_parity_recoloring,
    mis_on_pseudoforest,
    order_type_labeling,
    reduce_to_three_colors,
    weak_coloring,
    weak_two_coloring_from_ids,
    weak_two_coloring_from_weak_coloring,
)
from repro.algorithms.naor_stockmeyer import ORDER_TYPE_BITS
from repro.graphs import (
    Graph,
    balanced_regular_tree,
    caterpillar,
    cycle,
    path,
    random_permutation_ids,
    random_regular_graph,
    random_tree,
    regular_tree_of_depth_at_least,
    sequential_ids,
    star,
    toroidal_grid,
)
from repro.lcl import WeakColoring

from .test_cole_vishkin import pseudoforest_cases


class TestDistanceParityRecoloring:
    def test_distance_one_input_unchanged_distances(self):
        g = path(4)
        phi = [0, 1, 0, 1]
        out, rounds = distance_parity_recoloring(g, phi, k=1)
        assert rounds == 1
        # Every node has a differing neighbor at distance 1: parity 1.
        assert out == [(0, 1), (1, 1), (0, 1), (1, 1)]

    def test_distance_k_blocks(self):
        g = path(6)
        phi = [0, 0, 0, 1, 1, 1]
        out, _ = distance_parity_recoloring(g, phi, k=3)
        # Node 0: closest differing at distance 3 -> parity 1; node 2 at 1.
        assert out[0] == (0, 1)
        assert out[2] == (0, 1)
        assert out[1] == (0, 0)  # distance 2

    def test_result_is_weak(self):
        rng = random.Random(0)
        g = balanced_regular_tree(4, 3)
        # Build a distance-2 weak 3-coloring by BFS layers // 2.
        dist = g.bfs_distances(0)
        phi = [(dist[v] // 2) % 3 for v in g.nodes()]
        out, _ = distance_parity_recoloring(g, phi, k=2)
        for v in g.nodes():
            assert any(out[u] != out[v] for u in g.neighbors(v))

    def test_invalid_input_raises(self):
        g = path(4)
        with pytest.raises(ValueError, match="not a distance-k"):
            distance_parity_recoloring(g, [0, 0, 0, 0], k=2)


class TestChooseSuccessors:
    def test_points_at_differing_neighbor(self):
        g = path(4)
        labels = [(0, 1), (1, 1), (0, 1), (1, 1)]
        successor = choose_successors(g, labels)
        for v in g.nodes():
            assert labels[successor[v]] != labels[v]
            assert successor[v] in g.neighbors(v)

    def test_raises_without_differing_neighbor(self):
        g = path(3)
        with pytest.raises(ValueError, match="not a weak coloring"):
            choose_successors(g, [(0, 0)] * 3)

    def test_tiebreak_smallest_label(self):
        g = star(3)
        labels = [(5, 0), (1, 0), (2, 0), (3, 0)]
        successor = choose_successors(g, labels)
        assert successor[0] == 1


class TestMISOnPseudoforest:
    def test_directed_cycle(self):
        successor = [1, 2, 3, 0]
        colors = [0, 1, 0, 2]
        in_mis, rounds = mis_on_pseudoforest(successor, colors)
        assert rounds == 3
        # Independence and maximality over the pseudoforest edges.
        edges = {(v, successor[v]) for v in range(4)}
        for v, u in edges:
            assert not (in_mis[v] and in_mis[u])
        for v in range(4):
            if not in_mis[v]:
                neighbors = {successor[v]} | {u for u in range(4) if successor[u] == v}
                assert any(in_mis[u] for u in neighbors)


def reference_mis_on_pseudoforest(successor, colors3):
    """``mis_on_pseudoforest`` as first written: one neighbor set per node,
    and every joining node blocks all its neighbors.  Kept verbatim as the
    oracle."""
    n = len(successor)
    neighbors = [set() for _ in range(n)]
    for v, s in enumerate(successor):
        neighbors[v].add(s)
        neighbors[s].add(v)
    in_mis = [False] * n
    blocked = [False] * n
    for j in (0, 1, 2):
        joining = [
            v for v in range(n) if colors3[v] == j and not blocked[v] and not in_mis[v]
        ]
        for v in joining:
            in_mis[v] = True
        for v in joining:
            for u in neighbors[v]:
                blocked[u] = True
    return in_mis, 3


class TestMISMatchesReference:
    @pytest.mark.parametrize("seed", range(3))
    def test_equal_on_random_three_colorings(self, seed):
        """Proper 3-colorings (a random greedy one, and Cole-Vishkin's from
        the case's colors) and, beyond the contract, arbitrary ones."""
        rng = random.Random(seed)
        joined, kinds = 0, set()
        for name, colors, successor, _ in pseudoforest_cases(seed):
            n = len(successor)
            predecessors = [[] for _ in range(n)]
            for v, s in enumerate(successor):
                predecessors[s].append(v)
            greedy = [None] * n
            for v in rng.sample(range(n), n):
                taken = {greedy[successor[v]]} | {greedy[u] for u in predecessors[v]}
                free = [c for c in (0, 1, 2) if c not in taken]
                greedy[v] = rng.choice(free) if free else None
            colorings = {"arbitrary": [rng.randrange(3) for _ in range(n)]}
            if None not in greedy:
                colorings["greedy"] = greedy
            if len(set(colors)) == n:
                colorings["cole-vishkin"] = reduce_to_three_colors(
                    colors, successor, max(colors).bit_length() or 1
                )[0]
            for kind, colors3 in colorings.items():
                got = mis_on_pseudoforest(successor, colors3)
                assert got == reference_mis_on_pseudoforest(successor, colors3), (name, kind)
                joined += sum(got[0])
                kinds.add(kind)
        assert joined > 1000
        assert kinds == {"arbitrary", "greedy", "cole-vishkin"}


def assert_weak2(graph, labels):
    assert not WeakColoring(2).verify(graph, labels)


class TestFullPipeline:
    def test_on_paths_and_cycles(self):
        for g in (path(2), path(9), cycle(5), cycle(12)):
            ids = sequential_ids(g)
            out = weak_two_coloring_from_ids(g, ids)
            assert_weak2(g, out.labels)

    def test_on_trees(self):
        for depth in (1, 2, 4):
            g = balanced_regular_tree(4, depth)
            out = weak_two_coloring_from_ids(g, sequential_ids(g))
            assert_weak2(g, out.labels)

    def test_on_random_graphs(self):
        rng = random.Random(1)
        for trial in range(10):
            g = random_regular_graph(30, 4, rng=random.Random(rng.getrandbits(64)))
            out = weak_two_coloring_from_ids(g, random_permutation_ids(g, rng))
            assert_weak2(g, out.labels)

    def test_on_random_trees(self):
        rng = random.Random(2)
        for trial in range(10):
            g = random_tree(rng.randrange(2, 60), random.Random(trial))
            out = weak_two_coloring_from_ids(g, random_permutation_ids(g, rng))
            assert_weak2(g, out.labels)

    def test_on_torus(self):
        g = toroidal_grid(5, 5)
        out = weak_two_coloring_from_ids(g, sequential_ids(g))
        assert_weak2(g, out.labels)

    def test_round_count_independent_of_n_for_fixed_palette(self):
        rounds = set()
        for depth in (2, 3, 4, 5):
            g = balanced_regular_tree(4, depth)
            dist = g.bfs_distances(0)
            phi = [(dist[v] // 2) % 3 for v in g.nodes()]
            out = weak_two_coloring_from_weak_coloring(g, phi, k=2, c=3)
            assert_weak2(g, out.labels)
            rounds.add(out.rounds)
        assert len(rounds) == 1  # Lemma 2: O(1), independent of n

    def test_phase_accounting_sums_to_total(self):
        g = balanced_regular_tree(4, 3)
        out = weak_two_coloring_from_ids(g, sequential_ids(g))
        assert sum(out.phase_rounds.values()) == out.rounds

    def test_output_palette_is_binary(self):
        g = cycle(10)
        out = weak_two_coloring_from_ids(g, sequential_ids(g))
        assert set(out.labels) <= {WHITE, BLACK}

    def test_black_nodes_form_independent_set_in_pseudoforest(self):
        g = balanced_regular_tree(4, 3)
        out = weak_two_coloring_from_ids(g, sequential_ids(g))
        for v in g.nodes():
            if out.labels[v] == BLACK:
                assert out.labels[out.successor[v]] == WHITE

    def test_isolated_node_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="minimum degree"):
            weak_two_coloring_from_ids(g, [1, 2, 3])

    def test_color_range_validated(self):
        g = path(3)
        with pytest.raises(ValueError, match="outside"):
            weak_two_coloring_from_weak_coloring(g, [0, 9, 0], k=1, c=2)

    def test_id_space_validated(self):
        g = path(3)
        with pytest.raises(ValueError, match="ids must lie"):
            weak_two_coloring_from_ids(g, [1, 2, 100], id_space=10)

    def test_caterpillar_mixed_degrees(self):
        g = caterpillar(6, 3)
        out = weak_two_coloring_from_ids(g, sequential_ids(g))
        assert_weak2(g, out.labels)

    def test_phi_of_eight_colors_rejected(self):
        with pytest.raises(ValueError, match="^phi has 8 entries for a graph with 10 nodes$"):
            weak_two_coloring_from_weak_coloring(balanced_regular_tree(3, 2), [0, 1] * 4, 1, 2)

    @pytest.mark.parametrize("count", [9, 11])
    def test_ids_of_another_count_rejected(self, count):
        expected = f"^ids has {count} entries for a graph with 10 nodes$"
        with pytest.raises(ValueError, match=expected):
            weak_two_coloring_from_ids(balanced_regular_tree(3, 2), list(range(1, count + 1)))

    def test_huge_id_space_still_few_rounds(self):
        g = path(8)
        space = 1 << 256
        ids = [1 << (20 * (v + 1)) for v in g.nodes()]
        out = weak_two_coloring_from_ids(g, ids, id_space=space)
        assert_weak2(g, out.labels)
        assert out.rounds < 30  # log*(2^256) territory, not 256


@pytest.mark.parametrize("scheme", ["sequential", "shuffled"])
def test_equal_codes_share_one_int(monkeypatch, scheme):
    """Phase 1's pairs reach Cole-Vishkin as codes 2 * color + parity, one int
    per distinct code, and choose the successors the pairs choose."""
    tree, _ = regular_tree_of_depth_at_least(3, 800)  # Table 1's n = 1,534
    ids = sequential_ids(tree) if scheme == "sequential" else random_permutation_ids(
        tree, random.Random(tree.n))
    phi, _ = order_type_labeling(tree, ids)
    received = []

    def receiving(colors, successor, color_bits):
        received.append(colors)
        return reduce_to_three_colors(colors, successor, color_bits)

    monkeypatch.setattr(weak_coloring, "reduce_to_three_colors", receiving)
    out = weak_two_coloring_from_weak_coloring(tree, phi, k=1, c=1 << ORDER_TYPE_BITS)
    (codes,) = received
    pairs, _ = distance_parity_recoloring(tree, phi, 1)
    assert codes == [2 * color + parity for color, parity in pairs]
    assert len({id(code) for code in codes}) == len(set(codes)) < tree.n
    assert out.successor == choose_successors(tree, pairs)
