"""Tests for anonymous-symmetry impossibility, explicit ports, and
d-dimensional tori."""

import itertools
import random

import pytest

from repro.core import SimRequest, simulate
from repro.graphs import (
    Graph,
    cycle,
    orient_torus_nd,
    symmetric_cycle,
    toroidal_grid_nd,
)
from repro.lcl import WeakColoring
from repro.local_model import ViewAlgorithm, gather_view
from repro.speedup import estimate_global_success, local_maximum_coloring


class TestExplicitPorts:
    def test_from_adjacency_roundtrip(self):
        adjacency = [[1, 2], [0, 2], [0, 1]]
        g = Graph.from_adjacency(adjacency)
        assert g.neighbors(0) == (1, 2)
        assert g.m == 3

    def test_asymmetry_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph.from_adjacency([[1], []])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_adjacency([[0]])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_adjacency([[1, 1], [0, 0]])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_adjacency([[5]])


class TestAnonymousSymmetry:
    def test_all_views_identical_at_every_radius(self):
        g = symmetric_cycle(9)
        for radius in (0, 1, 2, 3):
            keys = {gather_view(g, v, radius).key() for v in g.nodes()}
            assert len(keys) == 1

    def test_plain_cycle_is_not_port_symmetric(self):
        # The insertion-order cycle leaks asymmetry through node 0's ports.
        g = cycle(9)
        keys = {gather_view(g, v, 2).key() for v in g.nodes()}
        assert len(keys) > 1

    def test_deterministic_anonymous_algorithms_are_constant(self):
        g = symmetric_cycle(8)

        class AnyRule(ViewAlgorithm):
            name = "any-rule"
            radius = 2

            def output(self, view):
                # Arbitrary deterministic function of the (anonymous) view.
                return hash(view.key()) % 7

        result = simulate(SimRequest(kind="view", graph=g, algorithm=AnyRule()))
        assert len(set(result.outputs)) == 1  # constant output, forced
        # ... and therefore no weak 2-coloring: every node fails.
        violations = WeakColoring(7, palette=None).verify(g, result.outputs)
        assert len(violations) == g.n

    def test_symmetric_cycle_structure(self):
        g = symmetric_cycle(10)
        assert g.is_regular(2) and g.girth() == 10
        with pytest.raises(ValueError):
            symmetric_cycle(2)


class TestNdTorus:
    def test_structure(self):
        g = toroidal_grid_nd((3, 4, 5))
        assert g.n == 60
        assert g.is_regular(6)

    def test_matches_2d_torus_semantics(self):
        from repro.graphs import toroidal_grid

        a = toroidal_grid_nd((4, 5))
        b = toroidal_grid(4, 5)
        assert a.n == b.n and a.m == b.m

    def test_orientation_validates(self):
        dims = (3, 3, 4)
        g = toroidal_grid_nd(dims)
        o = orient_torus_nd(g, dims)
        o.validate()
        # Walking +axis wraps after dims[axis] steps.
        v = 0
        for _ in range(dims[0]):
            v = o.neighbor(v, 0, 1)
        assert v == 0

    @pytest.mark.parametrize(
        "dims", [(3,), (5,), (3, 4), (4, 3), (3, 4, 5), (3, 3, 3, 3)]
    )
    def test_orientation_steps_one_coordinate(self, dims):
        # Row-major coordinates: direction (axis, +1) adds 1 to the
        # axis coordinate mod its side, (axis, -1) subtracts 1, and
        # every other coordinate stays.
        g = toroidal_grid_nd(dims)
        o = orient_torus_nd(g, dims)
        coords = list(itertools.product(*(range(side) for side in dims)))
        index = {c: v for v, c in enumerate(coords)}
        for v, c in enumerate(coords):
            assert set(o.labeled_neighbors(v)) == {
                (axis, sign) for axis in range(len(dims)) for sign in (1, -1)
            }
            for axis, side in enumerate(dims):
                for sign in (1, -1):
                    step = list(c)
                    step[axis] = (step[axis] + sign) % side
                    u = index[tuple(step)]
                    assert o.neighbor(v, axis, sign) == u
                    assert g.has_edge(v, u)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            toroidal_grid_nd((2, 3))
        with pytest.raises(ValueError):
            toroidal_grid_nd(())

    def test_delta6_finite_run(self):
        dims = (3, 3, 3)
        g = toroidal_grid_nd(dims)
        o = orient_torus_nd(g, dims)
        rate = estimate_global_success(
            local_maximum_coloring(3, bits=2), g, o, trials=40,
            rng=random.Random(0),
        )
        assert 0.0 <= rate <= 1.0
