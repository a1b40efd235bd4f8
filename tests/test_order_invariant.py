"""Tests for the order-invariance framework and the finite runner."""

import random

import pytest

from repro.core import SimRequest, simulate
from repro.graphs import (
    cycle,
    path,
    sequential_ids,
    toroidal_grid,
    orient_torus,
    balanced_regular_tree,
    orient_tree,
)
from repro.local_model import (
    OrderInvariantProjection,
    ViewAlgorithm,
    gather_view,
    is_order_invariant,
    order_homogeneous_failure,
    order_projected_view,
)
from repro.speedup import (
    local_maximum_coloring,
    resolve_ball_tables,
    estimate_global_success,
    smaller_count_coloring,
    node_local_failure,
)


class LocalMaxById(ViewAlgorithm):
    """Color 1 iff the center's identifier tops its radius-1 view."""

    name = "local-max-by-id"
    radius = 1

    def output(self, view):
        return 1 if view.identifiers[0] == max(view.identifiers) else 0


class IdValueParity(ViewAlgorithm):
    """Color = identifier parity: the canonical NON-order-invariant rule."""

    name = "id-value-parity"
    radius = 1

    def output(self, view):
        return view.identifiers[0] % 2


class TestOrderProjection:
    def test_projection_replaces_ids_by_ranks(self):
        g = path(4)
        view = gather_view(g, 1, 1, ids=[40, 10, 30, 20])
        projected = order_projected_view(view)
        assert sorted(projected.identifiers) == [1, 2, 3]
        # Ranks preserve comparisons.
        for i in range(view.node_count):
            for j in range(view.node_count):
                assert (view.identifiers[i] < view.identifiers[j]) == (
                    projected.identifiers[i] < projected.identifiers[j]
                )

    def test_anonymous_views_pass_through(self):
        g = path(3)
        view = gather_view(g, 1, 1)
        assert order_projected_view(view) is view

    def test_projection_wrapper_forces_invariance(self):
        wrapped = OrderInvariantProjection(IdValueParity())
        g = cycle(10)
        assert is_order_invariant(wrapped, g, sequential_ids(g), rng=random.Random(0))


class TestInvarianceChecker:
    def test_order_invariant_algorithm_passes(self):
        g = cycle(12)
        assert is_order_invariant(
            LocalMaxById(), g, sequential_ids(g), rng=random.Random(1)
        )

    def test_value_dependent_algorithm_fails(self):
        g = cycle(12)
        assert not is_order_invariant(
            IdValueParity(), g, sequential_ids(g), rng=random.Random(2)
        )


class TestOrderHomogeneity:
    def test_every_order_invariant_rule_fails_on_increasing_cycles(self):
        # Theorem 21's engine: interior views are order-isomorphic, so
        # the outputs are constant on a long stretch.
        for alg in (LocalMaxById(), OrderInvariantProjection(IdValueParity())):
            failing = order_homogeneous_failure(alg, 24)
            assert failing  # some node's whole neighborhood is monochromatic

    def test_failure_count_grows_with_cycle_length(self):
        short = len(order_homogeneous_failure(LocalMaxById(), 12))
        long = len(order_homogeneous_failure(LocalMaxById(), 48))
        assert long > short


class TestFiniteRunner:
    def test_torus_run_is_sound_at_radius_1(self):
        g = toroidal_grid(5, 5)
        o = orient_torus(g, 5, 5)
        alg = local_maximum_coloring(2, bits=2)
        values = [random.Random(0).randrange(4) for _ in g.nodes()]
        rng = random.Random(0)
        values = [rng.randrange(alg.values) for _ in g.nodes()]
        run = simulate(SimRequest(kind="finite", graph=g, algorithm=alg, values=values,
                                  tables=resolve_ball_tables(alg, g, o)))
        assert len(run.outputs) == g.n
        assert set(run.outputs) <= {0, 1}

    def test_failing_nodes_detected(self):
        # Force all values equal: nobody is a local max, everyone fails.
        g = toroidal_grid(4, 4)
        o = orient_torus(g, 4, 4)
        alg = local_maximum_coloring(2, bits=1)
        run = simulate(SimRequest(kind="finite", graph=g, algorithm=alg, values=[0] * g.n,
                                  tables=resolve_ball_tables(alg, g, o)))
        assert run.failing_nodes == list(g.nodes())

    def test_value_validation(self):
        g = toroidal_grid(4, 4)
        o = orient_torus(g, 4, 4)
        alg = local_maximum_coloring(2, bits=1)
        tables = resolve_ball_tables(alg, g, o)
        for values in ([5] * g.n, [0] * (g.n - 1)):
            with pytest.raises(ValueError):
                simulate(SimRequest(kind="finite", graph=g, algorithm=alg, values=values,
                                    tables=tables))

    def test_tree_region_rejected_at_boundary(self):
        # A finite tree's leaves cannot resolve all directions.
        tree = balanced_regular_tree(4, 2)
        o = orient_tree(tree, 2)
        alg = local_maximum_coloring(2, bits=1)
        with pytest.raises(ValueError, match="leaves the oriented region"):
            resolve_ball_tables(alg, tree, o)

    def test_global_success_estimate_in_unit_interval(self):
        g = toroidal_grid(4, 4)
        o = orient_torus(g, 4, 4)
        alg = smaller_count_coloring(2, bits=2)
        rate = estimate_global_success(alg, g, o, trials=50, rng=random.Random(1))
        assert 0.0 <= rate <= 1.0

    def test_better_local_failure_better_global_success(self):
        g = toroidal_grid(6, 6)
        o = orient_torus(g, 6, 6)
        weak_alg = local_maximum_coloring(2, bits=1)
        strong_alg = smaller_count_coloring(2, bits=2)
        p_weak = node_local_failure(weak_alg, method="exact").as_float()
        p_strong = node_local_failure(strong_alg, method="exact").as_float()
        assert p_strong < p_weak
        rate_weak = estimate_global_success(weak_alg, g, o, 80, random.Random(2))
        rate_strong = estimate_global_success(strong_alg, g, o, 80, random.Random(2))
        assert rate_strong >= rate_weak
