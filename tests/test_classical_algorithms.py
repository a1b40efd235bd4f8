"""Tests for Linial coloring, MIS as weak 2-coloring, 2-coloring and
sinkless orientation."""

import functools
import random
import time
from typing import Dict, Optional, Tuple

import pytest

from repro.algorithms import (
    LubyMIS,
    linial_coloring,
    polynomial_color_reduction_step,
    polynomial_step_parameters,
    proper_two_coloring,
    sinkless_from_pstar,
    sinkless_random_repair,
    smallest_prime_at_least,
)
from repro.core import SimRequest, simulate
from repro.graphs import (
    Graph,
    balanced_regular_tree,
    cycle,
    path,
    random_permutation_ids,
    random_regular_graph,
    regular_tree_of_depth_at_least,
    sequential_ids,
    star,
    toroidal_grid,
)
from repro.graphs.graph import edge_key
from repro.lcl import (
    MaximalIndependentSet,
    ProperColoring,
    SinklessOrientation,
    WeakColoring,
)


class TestPrimesAndParameters:
    def test_smallest_prime(self):
        assert smallest_prime_at_least(1) == 2
        assert smallest_prime_at_least(2) == 2
        assert smallest_prime_at_least(8) == 11
        assert smallest_prime_at_least(14) == 17
        assert smallest_prime_at_least(97) == 97

    def test_parameters_satisfy_constraints(self):
        for palette in (16, 100, 10_000, 10**6):
            for delta in (3, 4, 6):
                d, p = polynomial_step_parameters(palette, delta)
                assert p >= delta * d + 1
                assert p ** (d + 1) >= palette

    def test_invalid_palette(self):
        with pytest.raises(ValueError):
            polynomial_step_parameters(1, 3)


def reference_step_parameters(palette: int, delta: int) -> Tuple[int, int]:
    """``polynomial_step_parameters`` as first written, kept verbatim.

    Float roots and a prime search at every degree: it trial-divides
    near the square root of the palette, so it is run on small ones.
    """
    if palette < 2:
        raise ValueError("palette must be at least 2")
    best: Optional[Tuple[int, int, int]] = None  # (p*p, d, p)
    d = 1
    while True:
        # Smallest p satisfying both constraints for this degree.
        root = int(palette ** (1.0 / (d + 1)))
        while (root + 1) ** (d + 1) <= palette:
            root += 1
        if root ** (d + 1) < palette:
            root += 1
        p = smallest_prime_at_least(max(delta * d + 1, root))
        if best is None or p * p < best[0]:
            best = (p * p, d, p)
        # Larger d only helps while the root constraint dominates.
        if p == smallest_prime_at_least(delta * d + 1) or d > 64:
            break
        d += 1
    return best[1], best[2]


def reference_reduction_step(graph, colors, palette, delta):
    """``polynomial_color_reduction_step`` as first written: one code per
    (node, neighbor) pair.  Kept verbatim, with the reference parameters."""
    d, p = reference_step_parameters(palette, delta)

    def code(color: int):
        # Base-p digits of the color are the polynomial's coefficients.
        coeffs = []
        value = color
        for _ in range(d + 1):
            coeffs.append(value % p)
            value //= p
        return [sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p for x in range(p)]

    new_colors = []
    for v in graph.nodes():
        mine = code(colors[v])
        taken = set()
        for u in graph.neighbors(v):
            their = code(colors[u])
            for x in range(p):
                if their[x] == mine[x]:
                    taken.add(x)
        free = next(x for x in range(p) if x not in taken)
        new_colors.append(free * p + mine[free])
    return new_colors, p * p


def _random_proper_coloring(graph, palette, rng):
    """Each node draws a color its already-colored neighbors do not have."""
    colors = [None] * graph.n
    for v in graph.nodes():
        used = {colors[u] for u in graph.neighbors(v)}
        while colors[v] is None or colors[v] in used:
            colors[v] = rng.randrange(palette)
    return colors


class TestStepParametersMatchReference:
    @pytest.mark.parametrize("delta", range(1, 7))
    def test_equal_on_small_and_structured_palettes(self, delta):
        palettes = list(range(2, 401))
        palettes += [2**k + o for k in range(9, 41) for o in (-1, 0, 1)]
        palettes += [q**k + o for q in (3, 5, 7, 11, 13) for k in range(4, 12) for o in (-1, 0, 1)]
        for palette in palettes:
            assert polynomial_step_parameters(palette, delta) == reference_step_parameters(
                palette, delta
            ), palette

    @pytest.mark.parametrize("bits", [1000, 1024, 1100])
    @pytest.mark.parametrize("delta", [1, 2, 6])
    def test_huge_palettes_return_valid_pairs_fast(self, bits, delta):
        # The reference never returns at 2**1000 (it trial-divides near
        # 2**500) and raises OverflowError in its float root from 2**1024.
        start = time.perf_counter()
        d, p = polynomial_step_parameters(2**bits, delta)
        assert time.perf_counter() - start < 0.1
        assert smallest_prime_at_least(p) == p
        assert p >= delta * d + 1
        assert p ** (d + 1) >= 2**bits

    def test_linial_on_a_huge_id_space(self):
        g = cycle(16)
        out = linial_coloring(g, sequential_ids(g), id_space=2**1000)
        assert ProperColoring(3).is_feasible(g, out.colors)
        assert out.palette_trajectory[0] == 2**1000


class TestPolynomialStepMatchesReference:
    @pytest.mark.parametrize(
        "graph",
        [cycle(9), cycle(40), balanced_regular_tree(3, 3), balanced_regular_tree(4, 3),
         toroidal_grid(4, 5)],
        ids=["cycle-9", "cycle-40", "tree-3-3", "tree-4-3", "torus-4x5"],
    )
    def test_equal_on_random_colorings(self, graph):
        rng = random.Random(graph.n)
        delta = graph.max_degree()
        for palette in (graph.n, 100, 10**4, 10**6, 2**40):
            for _ in range(3):
                colors = _random_proper_coloring(graph, palette, rng)
                assert polynomial_color_reduction_step(
                    graph, colors, palette, delta
                ) == reference_reduction_step(graph, colors, palette, delta)


class TestPolynomialStep:
    def test_step_preserves_properness(self):
        rng = random.Random(0)
        g = random_regular_graph(30, 4, rng=rng)
        colors = [i for i in range(30)]
        new_colors, new_palette = polynomial_color_reduction_step(g, colors, 30, 4)
        assert all(c < new_palette for c in new_colors)
        for u, v in g.edges():
            assert new_colors[u] != new_colors[v]

    def test_step_shrinks_large_palettes(self):
        g = cycle(40)
        _, new_palette = polynomial_color_reduction_step(g, list(range(40)), 10**6, 2)
        assert new_palette < 10**6


class TestLinialColoring:
    @pytest.mark.parametrize(
        "graph",
        [cycle(30), balanced_regular_tree(4, 3), toroidal_grid(4, 5), path(17)],
    )
    def test_proper_delta_plus_one(self, graph):
        out = linial_coloring(graph, sequential_ids(graph))
        assert ProperColoring(graph.max_degree() + 1).is_feasible(graph, out.colors)

    def test_palette_trajectory_monotone(self):
        g = balanced_regular_tree(4, 4)
        out = linial_coloring(g, sequential_ids(g))
        assert all(b <= a for a, b in zip(out.palette_trajectory, out.palette_trajectory[1:]))

    def test_edgeless_graph(self):
        g = Graph(5)
        out = linial_coloring(g, [1, 2, 3, 4, 5])
        assert out.colors == [0] * 5
        assert out.rounds == 0

    def test_random_ids(self):
        g = random_regular_graph(26, 3, rng=random.Random(2))
        out = linial_coloring(g, random_permutation_ids(g, random.Random(3)))
        assert ProperColoring(4).is_feasible(g, out.colors)


class TestMIS:
    """Lemma 2's "natural way": on a graph without isolated nodes an
    MIS, read as black (1) and white (0), is a weak 2-coloring."""

    def test_weak_two_coloring_from_mis(self):
        g = cycle(10)
        out = simulate(SimRequest(kind="local", graph=g, algorithm=LubyMIS(),
                                  rng=random.Random(10)))
        assert MaximalIndependentSet().is_feasible(g, out.outputs)
        labels = [1 if x else 0 for x in out.outputs]
        assert WeakColoring(2).is_feasible(g, labels)

    @pytest.mark.parametrize(
        "graph",
        [cycle(12), balanced_regular_tree(3, 3), star(6), path(9)],
    )
    def test_every_mis_is_weak(self, graph):
        for seed in range(5):
            out = simulate(SimRequest(kind="local", graph=graph, algorithm=LubyMIS(),
                                      rng=random.Random(seed)))
            assert MaximalIndependentSet().is_feasible(graph, out.outputs)
            labels = [1 if x else 0 for x in out.outputs]
            assert WeakColoring(2).is_feasible(graph, labels)


class TestTwoColoring:
    def test_on_trees(self):
        g = balanced_regular_tree(3, 4)
        out = proper_two_coloring(g, sequential_ids(g))
        assert ProperColoring(2).is_feasible(g, out.colors)
        assert out.rounds == g.diameter()

    def test_on_even_cycle(self):
        g = cycle(10)
        out = proper_two_coloring(g, sequential_ids(g))
        assert ProperColoring(2).is_feasible(g, out.colors)

    def test_odd_cycle_rejected(self):
        with pytest.raises(ValueError, match="bipartite"):
            proper_two_coloring(cycle(5), sequential_ids(cycle(5)))

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            proper_two_coloring(g, [1, 2, 3, 4])

    def test_leader_is_global_min(self):
        g = path(5)
        out = proper_two_coloring(g, [9, 2, 7, 1, 5])
        assert out.leader == 3


class TestSinkless:
    def test_deterministic_on_trees(self):
        for delta, depth in ((3, 4), (4, 3), (6, 2)):
            g = balanced_regular_tree(delta, depth)
            out = sinkless_from_pstar(g, delta, sequential_ids(g))
            assert SinklessOrientation().is_feasible(g, out.orientation)
            assert not out.sinks(g)

    def test_deterministic_on_torus(self):
        g = toroidal_grid(4, 5)
        out = sinkless_from_pstar(g, 4, sequential_ids(g))
        assert SinklessOrientation().is_feasible(g, out.orientation)

    def test_random_repair_terminates_and_is_valid(self):
        rng = random.Random(11)
        for trial in range(5):
            g = balanced_regular_tree(4, 4)
            out = sinkless_random_repair(g, random.Random(rng.getrandbits(64)))
            assert SinklessOrientation().is_feasible(g, out.orientation)

    def test_random_repair_on_regular_graph(self):
        g = random_regular_graph(30, 4, rng=random.Random(5))
        out = sinkless_random_repair(g, random.Random(6))
        assert not out.sinks(g)

    def test_every_edge_oriented(self):
        g = balanced_regular_tree(3, 3)
        out = sinkless_from_pstar(g, 3, sequential_ids(g))
        assert set(out.orientation) == set(g.edges())


def reference_sinks(graph, orientation) -> list:
    """``SinklessResult.sinks`` as first written, kept verbatim."""
    out = []
    for v in graph.nodes():
        if graph.degree(v) < 3:
            continue
        if all(orientation[edge_key(v, u)] == v for u in graph.neighbors(v)):
            out.append(v)
    return out


def reference_random_repair(graph, rng=None, max_rounds=10_000):
    """``sinkless_random_repair`` as first written: a full sink scan per
    round.  Kept verbatim; returns ``(orientation, rounds)``."""
    rng = rng or random.Random(0)
    orientation: Dict = {}
    for u, v in graph.edges():
        orientation[edge_key(u, v)] = v if rng.random() < 0.5 else u
    rounds = 0
    while True:
        sinks = reference_sinks(graph, orientation)
        if not sinks:
            break
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(f"sink repair did not converge in {max_rounds} rounds")
        flips: Dict = {}
        for v in sinks:
            u = graph.neighbors(v)[rng.randrange(graph.degree(v))]
            key = edge_key(v, u)
            # Simultaneous flips on one edge settle toward the larger node.
            if key in flips:
                flips[key] = max(flips[key], u)
            else:
                flips[key] = u
        orientation.update(flips)
    return orientation, rounds


def _repair_outcome(function, graph, seed, **kwargs):
    try:
        out = function(graph, random.Random(seed), **kwargs)
    except RuntimeError as exc:
        return ("RuntimeError", str(exc))
    if isinstance(out, tuple):
        return ("ok", out)
    return ("ok", (out.orientation, out.rounds))


@functools.lru_cache(maxsize=None)
def _table1_trees():
    """Table 1's four Δ = 4 trees, built once for every seed."""
    return tuple(regular_tree_of_depth_at_least(4, n)[0] for n in (50, 200, 800, 3200))


def _table1_repair_seeds(trees, rng_seed):
    """The repair seeds ``run_table1`` derives: row 1 shuffles one
    permutation per tree, then row 2 draws 64 bits per tree."""
    rng = random.Random(rng_seed)
    for tree in trees:
        random_permutation_ids(tree, rng)
    return [rng.getrandbits(64) for _ in trees]


class TestSinkRepairMatchesReference:
    @pytest.mark.parametrize("delta", [3, 4])
    def test_equal_on_trees(self, delta):
        rounds = set()
        for depth in range(1, 7):
            tree = balanced_regular_tree(delta, depth)
            for seed in range(50):
                got = _repair_outcome(sinkless_random_repair, tree, seed)
                assert got == _repair_outcome(reference_random_repair, tree, seed)
                rounds.add(got[1][1])
        assert len(rounds) >= 3  # several rounds of repair, not only zero

    @pytest.mark.parametrize("rng_seed", range(10))
    def test_equal_on_table1_trees(self, rng_seed):
        trees = _table1_trees()
        for tree, seed in zip(trees, _table1_repair_seeds(trees, rng_seed)):
            assert _repair_outcome(sinkless_random_repair, tree, seed) == _repair_outcome(
                reference_random_repair, tree, seed
            )

    def test_equal_on_a_torus(self):
        g = toroidal_grid(6, 7)
        for seed in range(20):
            assert _repair_outcome(sinkless_random_repair, g, seed) == _repair_outcome(
                reference_random_repair, g, seed
            )

    def test_max_rounds_still_raises(self):
        tree = balanced_regular_tree(4, 4)
        raised = 0
        for seed in range(20):
            for max_rounds in (0, 1):
                got = _repair_outcome(sinkless_random_repair, tree, seed, max_rounds=max_rounds)
                assert got == _repair_outcome(
                    reference_random_repair, tree, seed, max_rounds=max_rounds
                )
                raised += got[0] == "RuntimeError"
        assert raised >= 10
