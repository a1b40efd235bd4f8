"""Integration tests: cross-module stories the paper tells end to end."""

import random
from fractions import Fraction

from repro.algorithms import (
    odd_degree_weak_two_coloring,
    solve_all_pstar,
    solve_pstar,
    weak_two_coloring_from_ids,
    weak_two_coloring_from_weak_coloring,
)
from repro.analysis import (
    claim10_set_size_bound,
    independent_execution_set,
    lemma9_evaluate,
    tower,
)
from repro.experiments import plant_distance_k_weak_coloring
from repro.graphs import (
    balanced_regular_tree,
    lemma18_pair,
    orient_tree,
    random_regular_high_girth,
    sequential_ids,
)
from repro.lcl import (
    HomogeneousLCL,
    PStar,
    WeakColoring,
)
from repro.local_model import gather_view
from repro.speedup import (
    local_maximum_coloring,
    node_local_failure,
    run_speedup_pipeline,
    zero_round_uniform,
)


class TestMinimalityStory:
    """Section 3: any nontrivial homogeneous output weakly 2-colors."""

    def test_any_planted_weak_coloring_reduces(self):
        # Whatever (k, c) a hypothetical fast algorithm produced, Lemma 2
        # turns it into a weak 2-coloring in rounds independent of n.
        rounds_by_params = {}
        for k, c in ((1, 2), (2, 3), (3, 5)):
            rounds = set()
            for depth in (3, 4, 5):
                tree = balanced_regular_tree(4, depth)
                phi = plant_distance_k_weak_coloring(tree, k, c)
                out = weak_two_coloring_from_weak_coloring(tree, phi, k=k, c=c)
                assert WeakColoring(2).is_feasible(tree, out.labels)
                rounds.add(out.rounds)
            rounds_by_params[(k, c)] = rounds
            assert len(rounds) == 1  # constant in n for each (k, c)

    def test_high_girth_graphs_also_work(self):
        g = random_regular_high_girth(60, 3, girth_at_least=5, rng=random.Random(2))
        out = weak_two_coloring_from_ids(g, sequential_ids(g))
        assert WeakColoring(2).is_feasible(g, out.labels)


class TestOddEvenDichotomy:
    """Table 1 rows 3-4: odd degree is constant, even degree is not."""

    def test_odd_constant_even_growing_with_id_space(self):
        odd_rounds = set()
        for depth in (2, 3, 4):
            tree = balanced_regular_tree(3, depth)
            out = odd_degree_weak_two_coloring(tree, sequential_ids(tree))
            odd_rounds.add(out.rounds)
        assert len(odd_rounds) == 1

        # Even-degree pipeline rounds grow with the identifier space
        # (the log* mechanism); the odd pipeline would not change.
        tree = balanced_regular_tree(4, 3)
        small = weak_two_coloring_from_ids(
            tree, sequential_ids(tree), id_space=tree.n**2
        ).rounds
        rng = random.Random(1)
        big_ids = sorted(rng.sample(range(1, 1 << 40), tree.n))
        big = weak_two_coloring_from_ids(tree, big_ids, id_space=1 << 40).rounds
        assert big >= small


class TestHomogeneousUpperBounds:
    """Theorem 5's universal O(log n) fallback, across inner problems."""

    def test_all_pstar_solution_serves_every_verifier(self):
        tree = balanced_regular_tree(4, 4)
        sol = solve_all_pstar(tree, 4, sequential_ids(tree))
        for inner in (WeakColoring(2), WeakColoring(3, distance=2)):
            assert HomogeneousLCL(inner, 4).is_feasible(tree, sol.labels)


class TestLowerBoundStory:
    """Sections 4-7 assembled: speedup + amplification + calibration."""

    def test_speedup_then_zero_round_floor(self):
        # Run the pipeline to 0 rounds; the endpoint's failure cannot be
        # below the uniform floor over its achievable palette — the
        # anchor Claim 12 drives the contradiction with.
        seed = local_maximum_coloring(2, bits=1)
        result = run_speedup_pipeline(seed, method="exact")
        final_failure = result.final_failure()
        # Uniform floor over even the *nominal* palette is tiny, so the
        # informative check is achievability-based; at minimum, the
        # failure must be positive: 0-round algorithms cannot win.
        assert final_failure > 0
        assert result.all_bounds_hold()

    def test_uniform_zero_round_matches_claim12_floor(self):
        for c in (2, 4):
            alg = zero_round_uniform(2, c)
            measured = node_local_failure(alg, method="exact")
            assert measured.probability == Fraction(1, c**4)
            assert float(measured.probability) == float(c) ** -4

    def test_claim10_set_inside_real_tree(self):
        tree = balanced_regular_tree(4, 9)
        orientation = orient_tree(tree, 2)
        result = independent_execution_set(
            tree, orientation, 0, t=1, ball_radius=8, seed_radius=2, verify=True
        )
        effective_n = len(tree.ball(0, 8)) ** 3
        assert result.size >= claim10_set_size_bound(effective_n, 1)

    def test_theorem13_regime(self):
        assert lemma9_evaluate(tower(12), b=1).below_half
        assert lemma9_evaluate(tower(6), b=1).below_half is None


class TestTheorem4Story:
    """P* upper/lower bounds interlock."""

    def test_solver_radius_grows_while_views_pin_lower_bound(self):
        radii = []
        for depth in (3, 4, 5):
            tree = balanced_regular_tree(4, depth)
            sol = solve_pstar(tree, 4, sequential_ids(tree))
            assert not PStar(4).verify(tree, sol.labels)
            radii.append(sol.radius)
        assert radii == sorted(radii) and radii[-1] > radii[0]

        t, t_prime, center = lemma18_pair(4, 5)
        # Any algorithm faster than depth-1 sees identical views...
        assert gather_view(t, center, 3).key() == gather_view(t_prime, center, 3).key()
        # ...but the chains force different d values on the two inputs:
        # T ends at leaves (degree 1), T' at degree-3 nodes.
        sol_t = solve_pstar(t, 4, sequential_ids(t))
        sol_tp = solve_pstar(t_prime, 4, sequential_ids(t_prime))
        assert sol_t.labels[center].d != sol_tp.labels[center].d
