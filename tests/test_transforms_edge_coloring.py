"""Tests for the distance-k and edge verifiers against graph powers and
line graphs, the cycle trichotomy, global failure, and the experiments
CLI."""

import itertools
import random

import pytest

from repro.algorithms import is_distance_k_weak
from repro.experiments import run_cycle_trichotomy, run_global_failure
from repro.experiments.__main__ import main as experiments_main
from repro.graphs import (
    Graph,
    balanced_regular_tree,
    caterpillar,
    cycle,
    edge_key,
    path,
    random_regular_graph,
    random_tree,
    star,
    toroidal_grid,
)
from repro.lcl import (
    MaximalIndependentSet,
    MaximalMatching,
    ProperColoring,
    ProperEdgeColoring,
    WeakColoring,
)


def distance_k_graph(graph, k):
    """``graph`` with an edge between every two nodes at distance 1..k."""
    power = Graph(graph.n)
    for v in graph.nodes():
        for u in graph.bfs_distances(v, cutoff=k):
            if v < u:
                power.add_edge(v, u)
    return power


def edge_adjacency_graph(graph):
    """One node per edge of ``graph`` (in ``graph.edges()`` order), two
    adjacent iff their edges share an endpoint."""
    edges = list(graph.edges())
    index = {e: i for i, e in enumerate(edges)}
    lines = Graph(len(edges))
    for v in graph.nodes():
        incident = [index[edge_key(v, u)] for u in graph.neighbors(v)]
        for a, b in itertools.combinations(incident, 2):
            lines.add_edge(a, b)
    return lines, edges


#: Connected instances with at least one edge: every node has a
#: neighbor, so the verifiers and ``is_distance_k_weak`` agree on what a
#: node must see.
INSTANCES = {
    "path9": lambda: path(9),
    "cycle10": lambda: cycle(10),
    "cycle11": lambda: cycle(11),
    "star5": lambda: star(5),
    "tree3-3": lambda: balanced_regular_tree(3, 3),
    "caterpillar4-2": lambda: caterpillar(4, 2),
    "random-tree20": lambda: random_tree(20, random.Random(20)),
    "random-regular16-3": lambda: random_regular_graph(16, 3, rng=random.Random(16)),
    "torus4-5": lambda: toroidal_grid(4, 5),
}


class TestGraphPower:
    def test_distance_k_weak_becomes_distance_1(self):
        g = path(7)
        colors = [(v // 3) % 2 for v in g.nodes()]
        assert WeakColoring(2, distance=3).is_feasible(g, colors)
        assert WeakColoring(2, distance=1).is_feasible(distance_k_graph(g, 3), colors)

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_distance_k_verifier_matches_power_graph(self, name):
        # Most nodes get color 0, so that both verdicts occur.
        g = INSTANCES[name]()
        rng = random.Random(name)
        verdicts = set()
        for k in (1, 2, 3):
            power = distance_k_graph(g, k)
            for _ in range(30):
                labels = [0 if rng.random() < 0.85 else rng.randrange(1, 3) for _ in g.nodes()]
                verdict = WeakColoring(3, distance=k).is_feasible(g, labels)
                assert WeakColoring(3).is_feasible(power, labels) == verdict
                assert is_distance_k_weak(g, labels, k) == verdict
                verdicts.add(verdict)
        assert verdicts == {True, False}


class TestLineGraph:
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_proper_edge_coloring_matches_node_coloring_of_edges(self, name):
        # A proper edge coloring of G is a proper coloring of L(G),
        # palette check included.  Half the labelings are greedy proper
        # colorings in a random edge order with one edge then redrawn,
        # half are uniform over one color more than the palette.
        g = INSTANCES[name]()
        lines, edges = edge_adjacency_graph(g)
        palette = 2 * g.max_degree() - 1
        rng = random.Random(name)
        verdicts = set()
        for trial in range(40):
            if trial % 2:
                labels = {e: rng.randrange(palette + 1) for e in edges}
            else:
                labels = {}
                used = [set() for _ in g.nodes()]
                for u, v in rng.sample(edges, len(edges)):
                    c = min(set(range(palette)) - used[u] - used[v])
                    labels[(u, v)] = c
                    used[u].add(c)
                    used[v].add(c)
                labels[rng.choice(edges)] = rng.randrange(palette + 1)
            verdict = ProperEdgeColoring(palette).is_feasible(g, labels)
            node_labels = [labels[e] for e in edges]
            assert ProperColoring(palette).is_feasible(lines, node_labels) == verdict
            verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_maximal_matching_matches_mis_of_edges(self, name):
        # A maximal matching of G is an MIS of L(G).  Half the labelings
        # are greedy maximal matchings in a random edge order, every
        # other one with one edge then flipped (which always breaks it);
        # half match each edge with probability 1/3.
        g = INSTANCES[name]()
        lines, edges = edge_adjacency_graph(g)
        rng = random.Random(name)
        verdicts = set()
        for trial in range(40):
            if trial % 2:
                labels = {e: rng.random() < 1 / 3 for e in edges}
            else:
                labels = dict.fromkeys(edges, False)
                matched = set()
                for u, v in rng.sample(edges, len(edges)):
                    if u not in matched and v not in matched:
                        labels[(u, v)] = True
                        matched.update((u, v))
                if trial % 4:
                    flip = rng.choice(edges)
                    labels[flip] = not labels[flip]
            verdict = MaximalMatching().is_feasible(g, labels)
            in_set = [labels[e] for e in edges]
            assert MaximalIndependentSet().is_feasible(lines, in_set) == verdict
            verdicts.add(verdict)
        assert verdicts == {True, False}


class TestCycleTrichotomy:
    def test_rows_and_fits(self):
        result = run_cycle_trichotomy(sizes=(16, 64, 256, 1024))
        assert [row.fit.best for row in result.rows] == [
            "constant",
            "log_star",
            "linear",
        ]
        assert all(row.all_verified for row in result.rows)

    def test_global_row_tracks_half_n(self):
        result = run_cycle_trichotomy(sizes=(16, 64, 256))
        global_row = result.rows[2]
        for n, rounds in global_row.measurements:
            assert rounds == n // 2  # cycle diameter


class TestGlobalFailureExperiment:
    def test_success_decays_and_respects_ceiling(self):
        result = run_global_failure(sizes=(3, 6, 9), trials=100)
        assert result.success_decays()
        for point in result.points:
            # Measured success cannot consistently beat the ceiling; give
            # Monte Carlo 3-sigma slack.
            sigma = (point.analytic_ceiling * (1 - point.analytic_ceiling) / 100) ** 0.5
            assert point.measured_success <= point.analytic_ceiling + 3 * sigma + 0.05

    def test_radius_validation(self):
        with pytest.raises(ValueError, match="radius 1"):
            run_global_failure(
                algorithm=_radius2_algorithm(), sizes=(3,), trials=1
            )

    def test_format_table(self):
        result = run_global_failure(sizes=(3,), trials=10)
        assert "local failure" in result.format_table()


def _radius2_algorithm():
    from repro.speedup import NodeAlgorithm

    return NodeAlgorithm(2, 2, 1, 2, lambda a: 0, name="radius2")


class TestExperimentsCLI:
    def test_quick_run_exits_zero(self, capsys):
        assert experiments_main(["--quick"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] Table 1 verified" in out
        assert "[FAIL]" not in out
