"""Tests for the speedup engine: algorithms, failure evaluation,
transformations, and the full pipeline (Lemmas 7/8/14/15 executable)."""

import random
from fractions import Fraction

import pytest

from repro.speedup import (
    EdgeAlgorithm,
    NodeAlgorithm,
    OrientedBall,
    edge_local_failure,
    first_lemma_bound,
    first_speedup,
    local_maximum_coloring,
    node_local_failure,
    paper_threshold_first,
    paper_threshold_second,
    parity_coloring,
    run_speedup_pipeline,
    second_lemma_bound,
    second_speedup,
    smaller_count_coloring,
    zero_round_uniform,
)


class TestStarterAlgorithms:
    def test_uniform_failure_exact(self):
        # Uniform c-coloring: failure = c^-Delta exactly.
        for k, c in ((2, 2), (2, 4), (3, 2)):
            alg = zero_round_uniform(k, c)
            p = node_local_failure(alg, method="exact")
            assert p.exact
            assert p.probability == Fraction(1, c ** (2 * k))

    def test_uniform_requires_divisible_space(self):
        with pytest.raises(ValueError, match="evenly"):
            zero_round_uniform(2, 3, bits=1)

    def test_local_maximum_properties(self):
        alg = local_maximum_coloring(2, bits=2)
        ball = OrientedBall(2, 1)
        # All-equal values: nobody is a strict max.
        assert alg.evaluate((3,) * ball.size) == 0
        # Center strictly above all neighbors.
        assert alg.evaluate((3, 0, 0, 0, 0)) == 1

    def test_smaller_count_range(self):
        alg = smaller_count_coloring(2, bits=2)
        assert alg.palette == 5
        assert alg.evaluate((3, 0, 1, 2, 0)) == 4
        assert alg.evaluate((0, 1, 2, 3, 1)) == 0

    def test_parity(self):
        alg = parity_coloring(2, bits=1)
        assert alg.evaluate((1, 0, 1, 0, 1)) == 1

    def test_evaluate_validates_length(self):
        alg = local_maximum_coloring(2)
        with pytest.raises(ValueError):
            alg.evaluate((0, 1))

    def test_memoization(self):
        calls = []

        def fn(a):
            calls.append(a)
            return 0

        alg = NodeAlgorithm(2, 0, 1, 1, fn)
        alg.evaluate((0,))
        alg.evaluate((0,))
        assert len(calls) == 1


class TestNodeFailure:
    def test_exact_matches_monte_carlo(self):
        alg = local_maximum_coloring(2, bits=1)
        exact = node_local_failure(alg, method="exact")
        mc = node_local_failure(alg, method="monte_carlo", samples=40_000,
                                rng=random.Random(0))
        assert abs(exact.as_float() - mc.as_float()) < 0.02

    def test_failure_decreases_with_more_bits(self):
        p1 = node_local_failure(local_maximum_coloring(2, bits=1), method="exact")
        p3 = node_local_failure(local_maximum_coloring(2, bits=3), method="exact")
        assert p3.as_float() < p1.as_float()

    def test_parity_fails_half(self):
        # Parity of the ball sum: neighbor outputs are coin flips
        # coupled through shared bits; the failure rate is exactly the
        # chance all four neighbor-parities equal the center's.
        alg = parity_coloring(2, bits=1)
        p = node_local_failure(alg, method="exact")
        assert 0 < p.as_float() < 1

    def test_constant_algorithm_always_fails(self):
        alg = NodeAlgorithm(2, 0, 1, 1, lambda a: 42, name="constant")
        p = node_local_failure(alg, method="exact")
        assert p.probability == 1

    def test_distinct_by_construction_never_fails(self):
        # t=1 algorithm echoing its own bits: fails only when all
        # neighbors hold the center's value.
        ball = OrientedBall(2, 1)
        alg = NodeAlgorithm(2, 1, 2, 4, lambda a: a[0], name="echo")
        p = node_local_failure(alg, method="exact")
        assert p.probability == Fraction(1, 4**4)

    def test_auto_switches_to_monte_carlo(self):
        alg = NodeAlgorithm(2, 2, 1, 2, lambda a: sum(a) % 2, name="big")
        p = node_local_failure(alg, method="auto", exact_cost_limit=10, samples=2000)
        assert not p.exact
        assert p.samples == 2000

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            node_local_failure(local_maximum_coloring(2), method="guess")


class TestEdgeFailure:
    def test_dimension_coloring_never_fails(self):
        # Edge outputs its own dimension: U/D share a color, L/R share a
        # color, but a *weak* edge coloring needs some dimension split —
        # every node fails.  Conversely, coloring by +/- sign splits
        # every dimension: never fails.
        alg_dim = EdgeAlgorithm(2, 0, 1, 2, lambda dim, a: dim, name="by-dim")
        p = edge_local_failure(alg_dim, method="exact")
        assert p.probability == 1

    def test_sign_coloring_always_succeeds(self):
        # Color = value at the low endpoint XOR'd...: use the edge's two
        # endpoint values ordered low->high: (a[0], a[1]) as color makes
        # e_+d and e_-d differ unless values collude; simplest guaranteed
        # split: color = index of the low endpoint == center test is not
        # expressible, so check a randomized variant statistically instead.
        alg = EdgeAlgorithm(2, 0, 1, 4, lambda dim, a: (a[0], a[1]), name="pair")
        p = edge_local_failure(alg, method="exact")
        # Fails only if both dimensions have (low,high) equal for both
        # incident edges.
        assert 0 < p.as_float() < 1

    def test_exact_matches_monte_carlo(self):
        alg = EdgeAlgorithm(2, 0, 2, 4, lambda dim, a: (a[0] + a[1]) % 3, name="sum")
        exact = edge_local_failure(alg, method="exact")
        mc = edge_local_failure(alg, method="monte_carlo", samples=40_000,
                                rng=random.Random(1))
        assert abs(exact.as_float() - mc.as_float()) < 0.02

    def test_six_regular(self):
        alg = EdgeAlgorithm(3, 0, 1, 2, lambda dim, a: a[0] ^ a[1], name="xor")
        p = edge_local_failure(alg, method="exact")
        assert 0 <= p.as_float() <= 1


class TestTransformations:
    def test_first_speedup_shrinks_radius(self):
        node = local_maximum_coloring(2, bits=1)
        edge = first_speedup(node, Fraction(1, 4))
        assert edge.r == 0
        assert edge.palette.to_float() == 2.0 ** (2 * node.palette.to_float())

    def test_first_speedup_output_shape(self):
        node = local_maximum_coloring(2, bits=1)
        edge = first_speedup(node, Fraction(1, 4))
        color = edge.evaluate(0, (0, 1))
        assert isinstance(color, tuple) and len(color) == 2
        assert all(isinstance(part, frozenset) for part in color)

    def test_first_speedup_rejects_zero_round(self):
        with pytest.raises(ValueError):
            first_speedup(zero_round_uniform(2, 2), Fraction(1, 2))

    def test_threshold_zero_includes_everything(self):
        node = local_maximum_coloring(2, bits=1)
        edge = first_speedup(node, Fraction(0))
        low, high = edge.evaluate(0, (0, 0))
        assert low == frozenset({0, 1}) or low == frozenset({0})
        # With threshold 0 every color with positive probability appears;
        # the center value 0 can never be a strict local max.
        assert 0 in low

    def test_threshold_one_keeps_only_certainties(self):
        node = local_maximum_coloring(2, bits=1)
        edge = first_speedup(node, Fraction(1))
        low, high = edge.evaluate(0, (0, 1))
        # Low endpoint has value 0 with a neighbor of value 1: it can
        # never be a local max -> output 0 with probability 1.
        assert low == frozenset({0})

    def test_second_speedup_shape(self):
        node = local_maximum_coloring(2, bits=1)
        edge = first_speedup(node, Fraction(1, 4))
        back = second_speedup(edge, Fraction(1, 4))
        assert back.t == 0
        assert back.palette.to_float() == 2.0 ** (4 * edge.palette.to_float())
        color = back.evaluate((1,))
        assert isinstance(color, tuple) and len(color) == 4

    def test_round_trip_loses_one_round(self):
        node = smaller_count_coloring(2, bits=1)
        assert node.t == 1
        edge = first_speedup(node, Fraction(1, 8))
        back = second_speedup(edge, Fraction(1, 8))
        assert back.t == node.t - 1


class TestThresholdFormulas:
    def test_paper_threshold_first_delta4(self):
        f = paper_threshold_first(0.001, 2, 4)
        assert abs(float(f) - (0.001 / 2) ** 0.2) < 1e-6

    def test_paper_threshold_second_delta4(self):
        f = paper_threshold_second(0.001, 16, 4)
        assert abs(float(f) - (0.001 / 16) ** 0.25) < 1e-6

    def test_bounds_formulas(self):
        assert abs(first_lemma_bound(1e-5, 2, 4) - 5 * (1e-5) ** 0.2 * 2**0.8) < 1e-9
        assert abs(second_lemma_bound(1e-4, 16, 4) - 4 * (1e-4) ** 0.25 * 16**0.75) < 1e-9

    def test_bounds_monotone_in_p(self):
        assert first_lemma_bound(1e-6, 4, 4) < first_lemma_bound(1e-3, 4, 4)
        assert second_lemma_bound(1e-6, 4, 4) < second_lemma_bound(1e-3, 4, 4)


class TestPipeline:
    def test_pipeline_reaches_zero_rounds(self):
        result = run_speedup_pipeline(local_maximum_coloring(2, bits=1), method="exact")
        assert result.stages[0].radius == 1
        assert result.stages[-1].radius == 0
        assert result.stages[-1].kind == "node"

    def test_lemma_bounds_hold_for_all_seeds(self):
        for seed in (
            local_maximum_coloring(2, bits=1),
            local_maximum_coloring(2, bits=2),
            smaller_count_coloring(2, bits=1),
            parity_coloring(2, bits=1),
        ):
            result = run_speedup_pipeline(seed, method="exact")
            assert result.all_bounds_hold(), seed.name

    def test_lemma_bounds_hold_at_delta_6(self):
        result = run_speedup_pipeline(local_maximum_coloring(3, bits=1), method="exact")
        assert result.all_bounds_hold()

    def test_palettes_follow_recurrence(self):
        result = run_speedup_pipeline(smaller_count_coloring(2, bits=1), method="exact")
        node0, edge1, node1 = result.stages
        assert edge1.nominal_palette.to_float() == 2.0 ** (
            2 * node0.nominal_palette.to_float()
        )
        assert node1.nominal_palette.log2().to_float() == (
            4 * edge1.nominal_palette.to_float()
        )

    def test_zero_round_floor(self):
        # The 0-round endpoint cannot beat uniform guessing over its
        # *achievable* colors: p >= m^-Delta with m distinct outputs.
        result = run_speedup_pipeline(local_maximum_coloring(2, bits=1), method="exact")
        final = result.stages[-1]
        # Enumerate achievable outputs of the final 0-round algorithm.
        seed = local_maximum_coloring(2, bits=1)
        edge = first_speedup(seed, result.stages[1].threshold)
        final_alg = second_speedup(edge, result.stages[2].threshold)
        outputs = {final_alg.evaluate((v,)) for v in range(final_alg.values)}
        floor = len(outputs) ** (-4.0)
        assert final.measured_failure.as_float() >= floor - 1e-12
