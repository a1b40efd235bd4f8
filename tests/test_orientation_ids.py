"""Unit tests for orientations and identifier schemes."""

import gc
import random
import tracemalloc

import pytest

from repro.graphs import (
    Graph,
    Orientation,
    balanced_regular_tree,
    caterpillar,
    cycle,
    direction_name,
    orient_torus,
    orient_tree,
    path,
    random_permutation_ids,
    random_tree,
    sequential_ids,
    sorted_by_bfs_ids,
    star,
    toroidal_grid,
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


def _orient_tree_reference(graph, k, root=0):
    """The slots ``orient_tree`` filled when ``is_tree()`` and ``max_degree()`` ran first."""
    if not graph.is_tree():
        raise ValueError("orient_tree requires a tree")
    if graph.max_degree() > 2 * k:
        raise ValueError(f"maximum degree {graph.max_degree()} exceeds 2k = {2 * k}")
    width = 2 * k
    free = [[s for s in range(width) if s != taken] for taken in range(-1, width)]
    adj = graph.adjacency_rows()
    rows = [-1] * (graph.n * width)
    order, toward = [root], [-1]
    for v, taken in zip(order, toward):
        base = v * width
        up = rows[base + taken] if taken >= 0 else -1
        children = [u for u in adj[v] if u != up]
        for u, s in zip(children, free[taken + 1]):
            rows[base + s] = u
            rows[u * width + (s ^ 1)] = v
            order.append(u)
            toward.append(s ^ 1)
    return rows


TREES = {
    **{f"balanced{d}-{h}": balanced_regular_tree(d, h) for d in range(2, 7) for h in range(5)},
    **{f"random{n}": random_tree(n, random.Random(n)) for n in (1, 2, 3, 9, 40, 120)},
    "path1": path(1), "path2": path(2), "path17": path(17),
    "star1": star(1), "star3": star(3), "star6": star(6),
    "caterpillar": caterpillar(6, 2), "caterpillar-bare": caterpillar(4, 0),
}


@pytest.mark.parametrize("name", sorted(TREES))
def test_orient_tree_matches_reference_from_several_roots(name):
    tree = TREES[name]
    k = (tree.max_degree() + 1) // 2 or 1
    roots = sorted({0, tree.n - 1, tree.n // 2, random.Random(name).randrange(tree.n)})
    for kk in (k, k + 1):
        for root in roots:
            assert orient_tree(tree, kk, root)._rows == _orient_tree_reference(tree, kk, root)


_TRIANGLE_AND_ISOLATED = Graph(4, [(0, 1), (1, 2), (2, 0)])  # m = n - 1
ERROR_CASES = {
    "cycle": (cycle(6), 2, 0),
    "triangle-plus-isolated-from-triangle": (_TRIANGLE_AND_ISOLATED, 2, 0),
    "triangle-plus-isolated-from-isolated": (_TRIANGLE_AND_ISOLATED, 2, 3),
    "two-components": (Graph(4, [(0, 1), (2, 3)]), 2, 0),
    "degree-above-2k": (balanced_regular_tree(6, 2), 2, 0),
    "star-above-2k": (star(5), 2, 3),
    "wide-node-beside-a-cycle": (  # a 5-leaf star beside a triangle: m = n - 1
        Graph(9, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (6, 7), (7, 8), (8, 6)]), 2, 0),
    "empty": (Graph(0), 2, 0),
    "no-dimensions": (path(3), 0, 0),
}


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_orient_tree_raises_what_the_reference_raises(name):
    graph, k, root = ERROR_CASES[name]
    with pytest.raises(ValueError) as expected:
        _orient_tree_reference(graph, k, root)
    with pytest.raises(ValueError) as raised:
        orient_tree(graph, k, root)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("root", [-1, 17], ids=["minus-one", "n"])
def test_orient_tree_rejects_a_root_that_is_not_a_node(root):
    # Neither may index the rows: -1 would read the last node's slots.
    tree = balanced_regular_tree(4, 2)
    assert tree.n == 17
    with pytest.raises(ValueError, match=f"^root {root} is not a node of the 17-node graph$"):
        orient_tree(tree, 2, root)


@pytest.mark.parametrize("v", [-1, -17, 17], ids=["minus-one", "minus-n", "n"])
def test_queries_reject_a_node_outside_the_graph(v):
    # -1 and -17 would read node 16's and node 0's slots; 17 would read
    # past the rows (neighbor) or find an empty row (labeled_neighbors).
    o = orient_tree(balanced_regular_tree(4, 2), 2)
    message = f"^{v} is not a node of the 17-node graph$"
    for dim, sign in ((0, 1), (1, 1), (0, -1)):
        with pytest.raises(ValueError, match=message):
            o.neighbor(v, dim, sign)
    with pytest.raises(ValueError, match=message):
        o.labeled_neighbors(v)


#: Edits to the rows of path 0 - 1 - 2 oriented with k = 1, and the slot
#: each must be refused at: (node, slot, named node).
FROM_ROWS_CORRUPTIONS = {
    # Node 0's empty slot names 2, and 2 names 0 back: only adjacency fails.
    "not-adjacent": ({1: 2, 4: 0}, (0, 1, 2)),
    # Node 1's slot toward 0 names 2 instead.
    "mirror-names-a-third-node": ({3: 2}, (0, 0, 1)),
    # Node 1's slot toward 0 is emptied.
    "mirror-empty": ({3: -1}, (0, 0, 1)),
}


@pytest.mark.parametrize("name", sorted(FROM_ROWS_CORRUPTIONS))
def test_from_rows_refuses_a_slot_that_is_not_named_back(name):
    graph = path(3)
    rows = orient_tree(graph, 1)._rows
    assert rows == [1, -1, 2, 0, -1, 1]
    Orientation._from_rows(graph, 1, list(rows))  # the intact rows pass
    edits, (v, slot, u) = FROM_ROWS_CORRUPTIONS[name]
    corrupted = list(rows)
    for i, x in edits.items():
        corrupted[i] = x
    message = f"slot {slot} of node {v} names {u}, which does not name it back"
    with pytest.raises(ValueError, match=f"^{message}$"):
        Orientation._from_rows(graph, 1, corrupted)


def test_ball_orientation_is_the_deeper_trees_restricted():
    deep = orient_tree(balanced_regular_tree(4, 6), 2)
    for depth in range(6):
        ball = balanced_regular_tree(4, depth)
        oriented = orient_tree(ball, 2)
        for v in ball.nodes():
            assert oriented.labeled_neighbors(v) == {
                d: u for d, u in deep.labeled_neighbors(v).items() if u < ball.n
            }


class TestIdentifiers:
    def test_sequential(self):
        g = path(5)
        assert sequential_ids(g) == [1, 2, 3, 4, 5]

    def test_random_permutation_is_permutation(self):
        g = cycle(10)
        ids = random_permutation_ids(g, random.Random(1))
        assert sorted(ids) == list(range(1, 11))

    @pytest.mark.parametrize("seed", range(21))
    def test_random_permutation_is_random_shuffle(self, seed):
        """The list and the generator state are those of ``Random.shuffle``,
        on every Python the suite runs on: n = 0..300 and Table 1's sizes
        (Delta = 4: 53, 485, 1,457, 4,373; Delta = 3: 94, 382, 1,534,
        6,142)."""
        for n in [*range(301), 53, 485, 1457, 4373, 94, 382, 1534, 6142]:
            rng, reference = random.Random(seed), random.Random(seed)
            want = list(range(1, n + 1))
            reference.shuffle(want)
            assert random_permutation_ids(Graph(n), rng) == want, n
            assert rng.getstate() == reference.getstate(), n

    def test_random_permutation_of_a_subclass_is_its_shuffle(self):
        # A subclass that overrides random() but not getrandbits() gets
        # _randbelow_without_getrandbits: its own shuffle must run.
        class RandomOnly(random.Random):
            def random(self):
                return super().random()

        for n in (0, 1, 10, 53, 485):
            rng, reference = RandomOnly(5), RandomOnly(5)
            want = list(range(1, n + 1))
            reference.shuffle(want)
            assert random_permutation_ids(Graph(n), rng) == want, n
            assert rng.getstate() == reference.getstate(), n

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
