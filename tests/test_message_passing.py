"""Tests for the genuine message-passing algorithm implementations."""

import random

import pytest

from repro.algorithms import (
    ColeVishkinMP,
    FloodLeaderParity,
    GreedySequentialColoring,
    LubyMIS,
    choose_successors,
    cv_iterations_needed,
    distance_parity_recoloring,
    reduce_to_three_colors,
)
from repro.graphs import (
    Graph,
    balanced_regular_tree,
    caterpillar,
    cycle,
    path,
    random_permutation_ids,
    random_regular_graph,
    random_tree,
    sequential_ids,
    star,
)
from repro.lcl import MaximalIndependentSet, ProperColoring
from repro.local_model import run_local


def pseudoforest_graph(successor):
    """The simple graph spanned by successor pointers, plus port inputs."""
    n = len(successor)
    g = Graph(n)
    for v, s in enumerate(successor):
        if not g.has_edge(v, s):
            g.add_edge(v, s)
    return g


class TestColeVishkinMP:
    def _run(self, successor, colors, bits):
        g = pseudoforest_graph(successor)
        inputs = [
            (g.port_to(v, successor[v]), colors[v]) for v in range(len(successor))
        ]
        alg = ColeVishkinMP(bits)
        result = run_local(g, alg, inputs=inputs, deterministic=True)
        return g, result

    def test_improper_coloring_raises_through_engine(self):
        # Every node colored 5: the input coloring is improper along
        # every successor pointer, and the engine surfaces the named
        # error rather than a half-reduced coloring.
        from repro.core import SimRequest, simulate

        request = SimRequest(
            kind="local",
            graph=cycle(4),
            algorithm=ColeVishkinMP(color_bits=3),
            inputs=[(0, 5)] * 4,
            deterministic=True,
        )
        with pytest.raises(ValueError, match="distinct colors"):
            simulate(request)

    def test_directed_cycle(self):
        n = 12
        successor = [(v + 1) % n for v in range(n)]
        g, result = self._run(successor, list(range(n)), bits=4)
        out = result.outputs
        assert set(out) <= {0, 1, 2}
        for v in range(n):
            assert out[v] != out[successor[v]]

    def test_matches_functional_round_count(self):
        n = 10
        successor = [(v + 1) % n for v in range(n)]
        colors = list(range(n))
        _, result = self._run(successor, colors, bits=4)
        _, functional_rounds = reduce_to_three_colors(colors, successor, 4)
        assert result.rounds == functional_rounds

    def test_random_pseudoforests(self):
        rng = random.Random(1)
        for trial in range(8):
            n = rng.randrange(4, 30)
            successor = []
            for v in range(n):
                u = rng.randrange(n - 1)
                successor.append(u if u < v else u + 1)
            colors = list(range(n))
            rng.shuffle(colors)
            g, result = self._run(successor, colors, bits=6)
            out = result.outputs
            assert set(out) <= {0, 1, 2}
            for v in range(n):
                assert out[v] != out[successor[v]]

    def test_two_cycle(self):
        g, result = self._run([1, 0], [0, 1], bits=2)
        assert result.outputs[0] != result.outputs[1]


class TestLubyMIS:
    @pytest.mark.parametrize(
        "graph",
        [cycle(15), path(10), star(6), balanced_regular_tree(3, 3)],
    )
    def test_output_is_mis(self, graph):
        result = run_local(graph, LubyMIS(), rng=random.Random(3))
        assert result.all_halted()
        assert MaximalIndependentSet().is_feasible(graph, result.outputs)

    def test_on_random_regular(self):
        rng = random.Random(4)
        for trial in range(5):
            g = random_regular_graph(24, 4, rng=random.Random(rng.getrandbits(64)))
            result = run_local(g, LubyMIS(), rng=random.Random(trial))
            assert MaximalIndependentSet().is_feasible(g, result.outputs)

    def test_on_random_trees(self):
        rng = random.Random(5)
        for trial in range(5):
            g = random_tree(rng.randrange(2, 40), random.Random(trial))
            result = run_local(g, LubyMIS(), rng=random.Random(trial ^ 7))
            assert MaximalIndependentSet().is_feasible(g, result.outputs)

    def test_isolated_nodes_join(self):
        g = Graph(3, [(0, 1)])
        result = run_local(g, LubyMIS(), rng=random.Random(0))
        assert result.outputs[2] is True
        assert MaximalIndependentSet().is_feasible(g, result.outputs)

    def test_rounds_are_modest(self):
        g = random_regular_graph(60, 4, rng=random.Random(9))
        result = run_local(g, LubyMIS(), rng=random.Random(10))
        # O(log n) w.h.p.; allow a generous constant.
        assert result.rounds <= 40

    def test_halts_with_mis_on_irregular_frozen_graphs(self):
        # Degree-irregular instances: ragged rows, halted neighbors,
        # and leaves that win vacuously.
        from repro.core import SimRequest, simulate

        irregular = [
            caterpillar(5, 2).freeze(),
            star(7).freeze(),
            Graph.from_adjacency(
                [[1, 2, 3], [0], [0, 3], [0, 2, 4], [3], []]
            ).freeze(),
        ]
        for seed, graph in enumerate(irregular):
            report = simulate(
                SimRequest(
                    kind="local", graph=graph, algorithm=LubyMIS(),
                    seed=seed,
                )
            )
            assert report.all_halted()
            assert MaximalIndependentSet().is_feasible(
                graph, report.outputs
            )


class TestGreedySequentialColoring:
    @pytest.mark.parametrize(
        "graph",
        [cycle(10), path(8), star(5), balanced_regular_tree(4, 2)],
    )
    def test_proper_coloring(self, graph):
        ids = random_permutation_ids(graph, random.Random(1))
        result = run_local(graph, GreedySequentialColoring(), ids=ids)
        assert ProperColoring(graph.max_degree() + 1).is_feasible(
            graph, result.outputs
        )

    def test_worst_case_is_linear(self):
        # Increasing identifiers along a path force sequential commits.
        g = path(20)
        result = run_local(g, GreedySequentialColoring(), ids=sequential_ids(g))
        assert result.rounds >= g.n // 2

    def test_best_case_is_fast(self):
        # Alternating high/low identifiers let every other node commit
        # immediately.
        g = path(20)
        ids = [(v % 2) * 100 + v + 1 for v in g.nodes()]
        result = run_local(g, GreedySequentialColoring(), ids=ids)
        assert result.rounds <= 6


class TestFloodLeaderParity:
    def test_two_colors_trees(self):
        g = balanced_regular_tree(3, 3)
        result = run_local(g, FloodLeaderParity(), ids=sequential_ids(g))
        assert ProperColoring(2).is_feasible(g, result.outputs)

    def test_even_cycle(self):
        g = cycle(12)
        result = run_local(g, FloodLeaderParity(), ids=random_permutation_ids(g, random.Random(2)))
        assert ProperColoring(2).is_feasible(g, result.outputs)

    def test_agrees_with_functional_solver(self):
        from repro.algorithms import proper_two_coloring

        g = path(9)
        ids = random_permutation_ids(g, random.Random(3))
        mp = run_local(g, FloodLeaderParity(), ids=ids)
        fn = proper_two_coloring(g, ids)
        assert mp.outputs == fn.colors


class TestRandomizedWeakColoring:
    def test_succeeds_where_determinism_cannot(self):
        # On the port-symmetric cycle every deterministic anonymous
        # algorithm is constant (tests/test_anonymity_gaps.py); the
        # randomized retry algorithm weakly 2-colors it.
        from repro.algorithms import RandomizedWeakColoring
        from repro.graphs import symmetric_cycle
        from repro.lcl import WeakColoring

        g = symmetric_cycle(12)
        for seed in range(10):
            result = run_local(g, RandomizedWeakColoring(), rng=random.Random(seed))
            assert WeakColoring(2).is_feasible(g, result.outputs)

    def test_on_trees_and_regular_graphs(self):
        from repro.algorithms import RandomizedWeakColoring
        from repro.lcl import WeakColoring

        rng = random.Random(1)
        for g in (
            balanced_regular_tree(4, 3),
            random_regular_graph(24, 4, rng=rng),
            star(5),
        ):
            result = run_local(
                g, RandomizedWeakColoring(), rng=random.Random(rng.getrandbits(64))
            )
            assert WeakColoring(2).is_feasible(g, result.outputs)

    def test_isolated_node(self):
        from repro.algorithms import RandomizedWeakColoring

        g = Graph(1)
        result = run_local(g, RandomizedWeakColoring(), rng=random.Random(0))
        assert result.rounds == 0

    def test_rounds_logarithmicish(self):
        from repro.algorithms import RandomizedWeakColoring

        g = balanced_regular_tree(3, 6)  # n = 190
        worst = max(
            run_local(g, RandomizedWeakColoring(), rng=random.Random(s)).rounds
            for s in range(10)
        )
        assert worst <= 30  # O(log n) w.h.p., generous constant

    def test_frozen_pairs_differ(self):
        # The safety argument: every node's committed color differs from
        # some neighbor's committed color; check the invariant directly.
        from repro.algorithms import RandomizedWeakColoring

        g = balanced_regular_tree(4, 3)
        result = run_local(g, RandomizedWeakColoring(), rng=random.Random(9))
        for v in g.nodes():
            assert any(
                result.outputs[u] != result.outputs[v] for u in g.neighbors(v)
            )
