"""Tests for the weak-edge-coloring upper bound and engine orientation."""

import pytest

from repro.core import SimRequest, simulate
from repro.graphs import (
    balanced_regular_tree,
    edge_key,
    orient_torus,
    orient_torus_nd,
    orient_tree,
    toroidal_grid,
    toroidal_grid_nd,
)
from repro.lcl import ProperEdgeColoring, WeakEdgeColoring
from repro.local_model import LocalAlgorithm


def greedy_proper_edge_coloring(graph):
    """Each edge, in ``graph.edges()`` order, takes the smallest color
    unused at both endpoints: a proper coloring with at most
    ``2 * Delta - 1`` colors."""
    colors = {}
    used = [set() for _ in graph.nodes()]
    for u, v in graph.edges():
        c = 0
        while c in used[u] or c in used[v]:
            c += 1
        colors[edge_key(u, v)] = c
        used[u].add(c)
        used[v].add(c)
    return colors, max(colors.values()) + 1


def assert_proper_is_weak(graph, orientation, k):
    colors, palette = greedy_proper_edge_coloring(graph)
    assert palette <= 2 * graph.max_degree() - 1
    assert ProperEdgeColoring(palette).is_feasible(graph, colors)
    assert WeakEdgeColoring(palette, k=k).is_feasible(
        graph, colors, orientation=orientation
    )


class TestWeakEdgeColoringUpperBound:
    """Section 7's upper bound: two edges of one dimension share their
    node, so a proper edge coloring is a weak one."""

    def test_on_2d_torus(self):
        g = toroidal_grid(4, 5)
        assert_proper_is_weak(g, orient_torus(g, 4, 5), k=2)

    def test_on_3d_torus(self):
        dims = (3, 3, 4)
        g = toroidal_grid_nd(dims)
        assert_proper_is_weak(g, orient_torus_nd(g, dims), k=3)

    def test_on_oriented_tree(self):
        g = balanced_regular_tree(4, 3)
        assert_proper_is_weak(g, orient_tree(g, 2), k=2)

    @pytest.mark.parametrize(
        "dims", [(3,), (4,), (3, 4), (5, 5), (3, 3, 4), (3, 3, 3, 3)]
    )
    def test_on_nd_torus(self, dims):
        g = toroidal_grid_nd(dims)
        assert_proper_is_weak(g, orient_torus_nd(g, dims), k=len(dims))


class TestParityAlongOneDimension:
    """Coloring the edges of one dimension by their tail's coordinate
    parity (every other edge 0) is a weak 2-edge-coloring exactly when
    that dimension has even length; on odd length the nodes at
    coordinate 0 see both of its edges share parity 0."""

    @pytest.mark.parametrize(
        "dims, axis",
        [
            ((4, 4), 0),
            ((4, 4), 1),
            ((3, 4), 1),
            ((3, 4), 0),
            ((3, 4, 6), 2),
            ((5, 3, 3), 0),
        ],
    )
    def test_violations_are_the_wraparound_nodes(self, dims, axis):
        g = toroidal_grid_nd(dims)
        o = orient_torus_nd(g, dims)
        stride = 1
        for side in dims[axis + 1:]:
            stride *= side

        def coordinate(v):
            return v // stride % dims[axis]

        labeling = {}
        for u, v in g.edges():
            tail = u if o.sign_at(u, v) == 1 else v
            on_axis = o.dim_of(u, v) == axis
            labeling[edge_key(u, v)] = coordinate(tail) % 2 if on_axis else 0
        bad = {x.where for x in WeakEdgeColoring(2, k=len(dims)).verify(
            g, labeling, orientation=o
        )}
        if dims[axis] % 2 == 0:
            assert bad == set()
        else:
            assert bad == {v for v in g.nodes() if coordinate(v) == 0}
            assert len(bad) == g.n // dims[axis]


class DirectionEcho(LocalAlgorithm):
    """Outputs the (dim, sign) labels of its ports — engine orientation test."""

    name = "direction-echo"

    def send(self, ctx):
        return {}

    def receive(self, ctx, messages):
        ctx.halt(tuple(sorted(ctx.port_directions.items())))


class TestEngineOrientation:
    def test_contexts_receive_port_directions(self):
        g = toroidal_grid(3, 4)
        o = orient_torus(g, 3, 4)
        result = simulate(SimRequest(
            kind="local", graph=g, algorithm=DirectionEcho(), orientation=o,
        ))
        for v in g.nodes():
            directions = dict(result.outputs[v])
            assert set(directions.values()) == {(0, 1), (0, -1), (1, 1), (1, -1)}
            # Each port's direction matches the orientation's view.
            for port, (dim, sign) in directions.items():
                u = g.endpoint(v, port)
                assert o.direction_at(v, u) == (dim, sign)

    def test_unoriented_run_has_no_directions(self):
        g = toroidal_grid(3, 3)

        class NullCheck(LocalAlgorithm):
            name = "null-check"

            def send(self, ctx):
                return {}

            def receive(self, ctx, messages):
                ctx.halt(ctx.port_directions)

        result = simulate(SimRequest(kind="local", graph=g, algorithm=NullCheck()))
        assert all(out is None for out in result.outputs)

    def test_partial_orientation_on_tree(self):
        g = balanced_regular_tree(4, 2)
        o = orient_tree(g, 2)
        result = simulate(SimRequest(
            kind="local", graph=g, algorithm=DirectionEcho(), orientation=o,
        ))
        # Leaves see exactly one labeled port.
        for v in g.sphere(0, 2):
            assert len(result.outputs[v]) == 1
