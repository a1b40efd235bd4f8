"""Tests for the LCL problem catalog and verifier framework."""

import pytest

from repro.graphs import (
    Graph,
    balanced_regular_tree,
    cycle,
    edge_key,
    orient_torus,
    orient_tree,
    path,
    star,
    toroidal_grid,
)
from repro.lcl import (
    MaximalIndependentSet,
    MaximalMatching,
    ProperColoring,
    ProperEdgeColoring,
    SinklessOrientation,
    WeakColoring,
    WeakEdgeColoring,
)


class TestWeakColoring:
    def test_valid_weak_two_coloring(self):
        g = path(4)
        assert WeakColoring(2).is_feasible(g, [0, 1, 0, 1])

    def test_all_same_color_fails(self):
        g = path(3)
        violations = WeakColoring(2).verify(g, [1, 1, 1])
        assert len(violations) == 3

    def test_one_node_surrounded_fails(self):
        g = star(3)
        violations = WeakColoring(2).verify(g, [0, 0, 0, 1])
        bad = {v.where for v in violations}
        assert 1 in bad and 2 in bad and 0 not in bad

    def test_isolated_node_vacuous(self):
        g = Graph(2)
        assert WeakColoring(2).is_feasible(g, [0, 0])

    def test_palette_enforced(self):
        g = path(2)
        violations = WeakColoring(2).verify(g, [0, 5])
        assert any("palette" in v.reason for v in violations)

    def test_open_palette(self):
        g = path(2)
        assert WeakColoring(2, palette=None).is_feasible(g, ["a", "b"])

    def test_distance_k(self):
        g = path(5)
        # Colors 0 0 0 0 1: node 0 has a differing node at distance 4.
        assert not WeakColoring(2, distance=3).is_feasible(g, [0, 0, 0, 0, 1])
        assert WeakColoring(2, distance=4).is_feasible(g, [0, 0, 0, 0, 1])

    def test_unlabeled_node_fails(self):
        g = path(2)
        violations = WeakColoring(2).verify(g, [None, 1])
        assert violations and violations[0].where == 0

    def test_restricted_sweep(self):
        g = path(3)
        violations = WeakColoring(2).verify(g, [1, 1, 1], nodes=[1])
        assert len(violations) == 1

    def test_labeling_length_checked(self):
        with pytest.raises(ValueError):
            WeakColoring(2).verify(path(3), [0, 1])

    def test_custom_palette(self):
        g = path(2)
        lcl = WeakColoring(2, palette=("black", "white"))
        assert lcl.is_feasible(g, ["black", "white"])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WeakColoring(0)
        with pytest.raises(ValueError):
            WeakColoring(2, distance=0)
        with pytest.raises(ValueError):
            WeakColoring(3, palette=(1, 2))


class TestProperColoring:
    def test_valid(self):
        assert ProperColoring(2).is_feasible(cycle(6), [0, 1] * 3)

    def test_adjacent_same_color(self):
        violations = ProperColoring(2).verify(path(3), [0, 0, 1])
        assert {v.where for v in violations} == {0, 1}

    def test_odd_cycle_needs_three(self):
        g = cycle(5)
        assert not ProperColoring(2).is_feasible(g, [0, 1, 0, 1, 0])
        assert ProperColoring(3).is_feasible(g, [0, 1, 0, 1, 2])


class TestMIS:
    def test_valid_mis(self):
        g = path(5)
        assert MaximalIndependentSet().is_feasible(g, [1, 0, 1, 0, 1])

    def test_not_independent(self):
        g = path(3)
        violations = MaximalIndependentSet().verify(g, [1, 1, 0])
        assert any("adjacent" in v.reason for v in violations)

    def test_not_maximal(self):
        g = path(5)
        violations = MaximalIndependentSet().verify(g, [1, 0, 0, 0, 1])
        assert any(v.where == 2 for v in violations)

    def test_empty_set_on_edgeless_graph_fails_nothing(self):
        g = Graph(3)
        violations = MaximalIndependentSet().verify(g, [0, 0, 0])
        assert len(violations) == 3  # all non-dominated

    def test_center_of_star(self):
        g = star(4)
        assert MaximalIndependentSet().is_feasible(g, [1, 0, 0, 0, 0])
        assert MaximalIndependentSet().is_feasible(g, [0, 1, 1, 1, 1])


class TestWeakEdgeColoring:
    def _torus(self):
        g = toroidal_grid(4, 4)
        return g, orient_torus(g, 4, 4)

    def test_requires_orientation(self):
        g, _ = self._torus()
        with pytest.raises(ValueError, match="orientation"):
            WeakEdgeColoring(2).verify(g, {})

    def test_alternating_columns_satisfy(self):
        g, o = self._torus()
        # Color horizontal edges by column parity: every node's L and R
        # edges differ.
        labeling = {}
        for u, v in g.edges():
            if o.dim_of(u, v) == 0:
                low = u if o.sign_at(u, v) == 1 else v
                labeling[edge_key(u, v)] = (low % 4) % 2
            else:
                labeling[edge_key(u, v)] = 0
        assert WeakEdgeColoring(2).is_feasible(g, labeling, orientation=o)

    def test_monochromatic_fails_everywhere(self):
        g, o = self._torus()
        labeling = {e: 0 for e in g.edges()}
        violations = WeakEdgeColoring(2).verify(g, labeling, orientation=o)
        assert len(violations) == g.n

    def test_missing_label_is_violation(self):
        g, o = self._torus()
        labeling = {e: 0 for e in g.edges()}
        labeling.pop(next(iter(g.edges())))
        violations = WeakEdgeColoring(2).verify(g, labeling, orientation=o)
        assert any("unlabeled" in v.reason for v in violations)

    def test_boundary_nodes_vacuous_on_trees(self):
        tree = balanced_regular_tree(4, 2)
        o = orient_tree(tree, 2)
        labeling = {e: 0 for e in tree.edges()}
        violations = WeakEdgeColoring(2).verify(tree, labeling, orientation=o)
        bad = {v.where for v in violations}
        assert 0 in bad  # the center has complete dimensions, all mono
        leaves = set(tree.sphere(0, 2))
        assert not (bad & leaves)  # leaves are vacuously satisfied

    def test_strict_mode_flags_boundary(self):
        tree = balanced_regular_tree(4, 1)
        o = orient_tree(tree, 2)
        labeling = {e: i for i, e in enumerate(tree.edges())}
        violations = WeakEdgeColoring(8, strict=True).verify(
            tree, labeling, orientation=o
        )
        assert len(violations) == 4  # the four leaves


class TestProperEdgeColoring:
    def test_alternating_even_cycle_is_proper(self):
        g = cycle(8)
        labeling = {edge_key(v, (v + 1) % 8): v % 2 for v in g.nodes()}
        assert ProperEdgeColoring(2).is_feasible(g, labeling)

    def test_odd_cycle_needs_three(self):
        g = cycle(7)
        two = {edge_key(v, (v + 1) % 7): v % 2 for v in g.nodes()}
        # Edges {6, 0} and {0, 1} both get color 0: node 0 alone fails.
        assert [x.where for x in ProperEdgeColoring(2).verify(g, two)] == [0]
        three = dict(two)
        three[edge_key(6, 0)] = 2
        assert ProperEdgeColoring(3).is_feasible(g, three)

    def test_shared_color_names_both_edges(self):
        g = path(3)
        labeling = {edge_key(0, 1): 1, edge_key(1, 2): 1}
        violations = ProperEdgeColoring(2).verify(g, labeling)
        assert [x.where for x in violations] == [1]
        assert "share color 1" in violations[0].reason

    def test_star_needs_delta_colors(self):
        g = star(4)
        labeling = {edge_key(0, leaf): leaf - 1 for leaf in range(1, 5)}
        assert ProperEdgeColoring(4).is_feasible(g, labeling)
        assert not ProperEdgeColoring(3).is_feasible(g, labeling)

    def test_palette_enforced(self):
        g = path(2)
        for bad in (2, -1):
            violations = ProperEdgeColoring(2).verify(g, {edge_key(0, 1): bad})
            assert {x.where for x in violations} == {0, 1}
            assert all("outside the palette" in x.reason for x in violations)

    def test_unlabeled_edge_is_violation(self):
        g = path(3)
        violations = ProperEdgeColoring(2).verify(g, {edge_key(0, 1): 0})
        assert {x.where for x in violations} == {1, 2}
        assert all("unlabeled" in x.reason for x in violations)

    def test_isolated_nodes_vacuous(self):
        assert ProperEdgeColoring(1).is_feasible(Graph(3), {})

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ProperEdgeColoring(0)


class TestSinklessOrientation:
    def test_all_toward_larger_on_path_ok(self):
        g = path(4)  # degrees < 3: unconstrained
        labeling = {edge_key(u, v): max(u, v) for u, v in g.edges()}
        assert SinklessOrientation().is_feasible(g, labeling)

    def test_sink_detected(self):
        g = star(3)
        labeling = {edge_key(0, v): 0 for v in (1, 2, 3)}  # all into center
        violations = SinklessOrientation().verify(g, labeling)
        assert any("sink" in v.reason for v in violations)

    def test_center_with_one_out_edge_ok(self):
        g = star(3)
        labeling = {edge_key(0, 1): 1, edge_key(0, 2): 0, edge_key(0, 3): 0}
        assert SinklessOrientation().is_feasible(g, labeling)

    def test_invalid_head_rejected(self):
        g = path(2)
        violations = SinklessOrientation().verify(g, {edge_key(0, 1): 9})
        assert any("not an endpoint" in v.reason for v in violations)


class TestMaximalMatching:
    def test_perfect_matching_on_path4(self):
        g = path(4)
        labeling = {
            edge_key(0, 1): True,
            edge_key(1, 2): False,
            edge_key(2, 3): True,
        }
        assert MaximalMatching().is_feasible(g, labeling)

    def test_two_matched_at_one_node(self):
        g = path(3)
        labeling = {edge_key(0, 1): True, edge_key(1, 2): True}
        violations = MaximalMatching().verify(g, labeling)
        assert any("two matched" in v.reason for v in violations)

    def test_not_maximal(self):
        g = path(4)
        labeling = {e: False for e in g.edges()}
        violations = MaximalMatching().verify(g, labeling)
        assert violations

    def test_middle_edge_only_is_maximal(self):
        g = path(4)
        labeling = {
            edge_key(0, 1): False,
            edge_key(1, 2): True,
            edge_key(2, 3): False,
        }
        assert MaximalMatching().is_feasible(g, labeling)
