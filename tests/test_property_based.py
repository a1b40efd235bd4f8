"""Property-based tests (hypothesis) for core invariants.

Each property mirrors a theorem-level guarantee of the library:
verifier/solver agreement, pipeline correctness on arbitrary trees and
regular graphs, CV properness preservation, view canonicality, and the
odd-degree order-type weak-coloring claim under adversarial identifiers.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    cv_step,
    linial_coloring,
    odd_degree_weak_two_coloring,
    order_type_labeling,
    is_distance_k_weak,
    solve_pstar,
    weak_two_coloring_from_ids,
)
from repro.graphs import random_regular_graph, random_tree
from repro.lcl import PStar, ProperColoring, WeakColoring
from repro.local_model import gather_view
from repro.speedup import OrientedBall, reduce_word


DEFAULT_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def tree_with_ids(draw, min_nodes=2, max_nodes=40):
    """A random tree plus a random identifier permutation."""
    n = draw(st.integers(min_nodes, max_nodes))
    seed = draw(st.integers(0, 2**32 - 1))
    tree = random_tree(n, random.Random(seed))
    ids = list(range(1, n + 1))
    random.Random(seed ^ 0xDEADBEEF).shuffle(ids)
    return tree, ids


@st.composite
def regular_graph_with_ids(draw, d=4, min_nodes=8, max_nodes=36):
    n = draw(st.integers(min_nodes, max_nodes))
    if (n * d) % 2:
        n += 1
    seed = draw(st.integers(0, 2**32 - 1))
    g = random_regular_graph(n, d, rng=random.Random(seed))
    ids = list(range(1, g.n + 1))
    random.Random(seed ^ 0xABCDEF).shuffle(ids)
    return g, ids


class TestWeakColoringProperties:
    @DEFAULT_SETTINGS
    @given(tree_with_ids())
    def test_pipeline_on_random_trees(self, data):
        tree, ids = data
        out = weak_two_coloring_from_ids(tree, ids)
        assert WeakColoring(2).is_feasible(tree, out.labels)

    @DEFAULT_SETTINGS
    @given(regular_graph_with_ids(d=4))
    def test_pipeline_on_random_4_regular(self, data):
        g, ids = data
        out = weak_two_coloring_from_ids(g, ids)
        assert WeakColoring(2).is_feasible(g, out.labels)

    @DEFAULT_SETTINGS
    @given(regular_graph_with_ids(d=3, min_nodes=8, max_nodes=30))
    def test_order_types_weakly_color_odd_regular(self, data):
        g, ids = data
        labels, _ = order_type_labeling(g, ids)
        assert is_distance_k_weak(g, labels, 1)

    @DEFAULT_SETTINGS
    @given(regular_graph_with_ids(d=3, min_nodes=8, max_nodes=24))
    def test_odd_degree_constant_round_pipeline(self, data):
        g, ids = data
        out = odd_degree_weak_two_coloring(g, ids)
        assert WeakColoring(2).is_feasible(g, out.labels)


class TestPStarProperties:
    @DEFAULT_SETTINGS
    @given(tree_with_ids(min_nodes=2, max_nodes=50))
    def test_solver_output_always_happy_on_trees(self, data):
        tree, ids = data
        delta = max(3, tree.max_degree())
        sol = solve_pstar(tree, delta, ids)
        assert not PStar(delta).verify(tree, sol.labels)

    @DEFAULT_SETTINGS
    @given(regular_graph_with_ids(d=4, min_nodes=10, max_nodes=26))
    def test_solver_output_happy_on_regular_graphs(self, data):
        g, ids = data
        sol = solve_pstar(g, 4, ids)
        assert not PStar(4).verify(g, sol.labels)


class TestColoringProperties:
    @DEFAULT_SETTINGS
    @given(tree_with_ids())
    def test_linial_proper_on_trees(self, data):
        tree, ids = data
        out = linial_coloring(tree, ids)
        assert ProperColoring(tree.max_degree() + 1).is_feasible(tree, out.colors)

    @given(
        st.integers(0, 2**20 - 1),
        st.integers(0, 2**20 - 1),
        st.integers(0, 2**20 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_cv_step_chain_properness(self, a, b, c):
        # For any proper chain a -> b -> c the new pair stays proper.
        if a == b or b == c:
            return
        assert cv_step(a, b) != cv_step(b, c)


class TestViewProperties:
    @DEFAULT_SETTINGS
    @given(tree_with_ids(min_nodes=3, max_nodes=30), st.integers(0, 3))
    def test_view_sizes_match_balls(self, data, radius):
        tree, ids = data
        for v in list(tree.nodes())[:5]:
            view = gather_view(tree, v, radius, ids=ids)
            assert view.node_count == len(tree.ball(v, radius))

    @DEFAULT_SETTINGS
    @given(tree_with_ids(min_nodes=3, max_nodes=30))
    def test_view_edges_are_graph_edges(self, data):
        tree, ids = data
        view = gather_view(tree, 0, 2, ids=ids)
        for i, j, pi, pj, _ in view.edges:
            u, v = view.originals[i], view.originals[j]
            assert tree.has_edge(u, v)
            assert tree.port_to(u, v) == pi
            assert tree.port_to(v, u) == pj


class TestWordProperties:
    @given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1, -1])), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_reduce_word_idempotent(self, word):
        once = reduce_word(word)
        assert reduce_word(once) == once

    @given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from([1, -1])), max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_reduced_words_non_backtracking(self, word):
        reduced = reduce_word(word)
        for a, b in zip(reduced, reduced[1:]):
            assert b != (a[0], -a[1])

    @given(st.integers(1, 3), st.integers(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_ball_size_formula(self, k, t):
        ball = OrientedBall(k, t)
        delta = 2 * k
        expected = 1
        layer = delta
        for _ in range(t):
            expected += layer
            layer *= delta - 1
        assert ball.size == (expected if t > 0 else 1)
