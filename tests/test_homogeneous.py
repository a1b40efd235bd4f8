"""Tests for homogeneous LCLs (Section 3.2) and their solvers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms import (
    solve_all_pstar,
    solve_weak2_homogeneous,
    solve_with_constant_label,
)
from repro.graphs import (
    balanced_regular_tree,
    caterpillar,
    sequential_ids,
    star,
    toroidal_grid,
)
from repro.lcl import (
    AlwaysAccept,
    HomogeneousLCL,
    HomogeneousLabel,
    ProperColoring,
    PStarLabel,
    WeakColoring,
)
from repro.lcl.problem import Violation


class TestHomogeneousLabel:
    def test_exactly_one_part(self):
        with pytest.raises(ValueError):
            HomogeneousLabel()
        with pytest.raises(ValueError):
            HomogeneousLabel(p_label=1, pstar_label=PStarLabel(0, None))

    def test_constructors(self):
        a = HomogeneousLabel.solve_p("x")
        assert a.p_label == "x" and a.pstar_label is None
        b = HomogeneousLabel.solve_pstar(PStarLabel(1, None))
        assert b.p_label is None and b.pstar_label is not None


class TestHomogeneousVerifier:
    def test_pstar_branch_checked(self):
        g = star(4)
        h = HomogeneousLCL(AlwaysAccept(), 4)
        labels = [HomogeneousLabel.solve_pstar(PStarLabel(1, 1))] + [
            HomogeneousLabel.solve_pstar(PStarLabel(1, None)) for _ in range(4)
        ]
        assert h.is_feasible(g, labels)

    def test_pstar_branch_violation_reported(self):
        g = star(4)
        h = HomogeneousLCL(AlwaysAccept(), 4)
        labels = [HomogeneousLabel.solve_pstar(PStarLabel(0, None))] + [
            HomogeneousLabel.solve_pstar(PStarLabel(1, None)) for _ in range(4)
        ]
        violations = h.verify(g, labels)
        assert any("P* branch" in v.reason for v in violations)

    def test_p_branch_checked(self):
        g = star(4)
        h = HomogeneousLCL(WeakColoring(2), 4)
        labels = [HomogeneousLabel.solve_p(0)] + [
            HomogeneousLabel.solve_p(1) for _ in range(4)
        ]
        assert h.is_feasible(g, labels)

    def test_p_branch_cannot_lean_on_pstar_nodes(self):
        # A P-labeled node whose only neighbors chose P* has no weakly
        # colored partner: the chain-termination mechanism of Section 3.2.
        g = star(4)
        h = HomogeneousLCL(WeakColoring(2), 4)
        labels = [HomogeneousLabel.solve_p(0)] + [
            HomogeneousLabel.solve_pstar(PStarLabel(1, None)) for _ in range(4)
        ]
        violations = h.verify(g, labels)
        assert any("P branch" in v.reason and v.where == 0 for v in violations)

    def test_unlabeled_node_fails(self):
        g = star(3)
        h = HomogeneousLCL(AlwaysAccept(), 4)
        labels = [None] * 4
        assert len(h.verify(g, labels)) == 4

    def test_foreign_label_type_rejected(self):
        g = star(3)
        h = HomogeneousLCL(AlwaysAccept(), 4)
        with pytest.raises(TypeError):
            h.verify(g, ["plain string"] * 4)

    def test_delta_minimum(self):
        with pytest.raises(ValueError):
            HomogeneousLCL(AlwaysAccept(), 2)

    def test_foreign_label_raises_only_at_a_labeled_node(self):
        # The projection is built at the first labeled node a sweep
        # reaches, so a sweep over unlabeled nodes never sees the foreign
        # label and reports them as violations instead of raising.
        g = star(3)
        h = HomogeneousLCL(AlwaysAccept(), 4)
        labels = [None, "plain string", None, None]
        assert h.verify(g, labels, nodes=[0]) == [
            Violation(0, "node has neither a P nor a P* label")
        ]
        with pytest.raises(TypeError):
            h.verify(g, labels, nodes=[1])
        with pytest.raises(TypeError):
            h.check_node(g, labels, 1)


# ----------------------------------------------------------------------
# One-pass verify == per-node check_node == the definition of P_H
# ----------------------------------------------------------------------
_GRAPHS = [
    star(3),
    star(4),
    caterpillar(3, 1),
    caterpillar(4, 2),
    balanced_regular_tree(3, 2),
    balanced_regular_tree(4, 2),
    toroidal_grid(4, 5),
]
_INNER = [AlwaysAccept(), WeakColoring(2), ProperColoring(3)]


def _delta(g):
    return max(3, g.max_degree())


@st.composite
def _homogeneous_instances(draw):
    """A graph, an inner problem, and a labeling mixing every kind of label.

    Each node keeps its all-P* solution label, or gets a P label (3 lies
    outside both colorings' palettes), ``None``, or a P* label whose
    pointer is a neighbor, a non-neighbor or empty and whose ``d`` may
    be out of range.  Random pointers and ``d`` values give non-neighbor
    pointers and ``d`` mismatches; a backtrack or a chain ending at the
    wrong degree may also be planted on one edge.
    """
    g = draw(st.sampled_from(_GRAPHS))
    delta = _delta(g)
    inner = draw(st.sampled_from(_INNER))
    solved = solve_all_pstar(g, delta, sequential_ids(g)).labels
    labels = []
    for v in g.nodes():
        kind = draw(st.sampled_from(["solved", "p", "none", "pstar"]))
        if kind == "solved":
            labels.append(solved[v])
        elif kind == "p":
            labels.append(HomogeneousLabel.solve_p(draw(st.integers(0, 3))))
        elif kind == "none":
            labels.append(None)
        else:
            target = draw(
                st.one_of(
                    st.none(),
                    st.sampled_from(list(g.neighbors(v))),
                    st.integers(0, g.n - 1),
                )
            )
            d = draw(st.integers(0, delta))
            labels.append(HomogeneousLabel.solve_pstar(PStarLabel(d, target)))
    # Independent draws rarely produce these two faults.
    plant = draw(st.sampled_from(["nothing", "backtrack", "wrong-chain-end"]))
    v, u = draw(st.sampled_from(list(g.edges())))
    if plant == "backtrack":
        d = draw(st.integers(0, delta - 1))
        labels[v] = HomogeneousLabel.solve_pstar(PStarLabel(d, u))
        labels[u] = HomogeneousLabel.solve_pstar(PStarLabel(d, v))
    elif plant == "wrong-chain-end":
        d = (g.degree(u) + 1) % delta
        labels[v] = HomogeneousLabel.solve_pstar(PStarLabel(d, u))
        labels[u] = HomogeneousLabel.solve_pstar(PStarLabel(d, None))
    return g, HomogeneousLCL(inner, delta), labels


def _per_node(h, g, labels, sweep):
    found = (h.check_node(g, labels, v) for v in sweep)
    return [bad for bad in found if bad is not None]


def _by_definition(h, g, labels, sweep):
    """The Section 3.2 verifier written out, independent of ``HomogeneousLCL``."""
    p_part = [None if label is None else label.p_label for label in labels]
    star_part = [None if label is None else label.pstar_label for label in labels]
    found = []
    for v in sweep:
        if labels[v] is None:
            found.append(Violation(v, "node has neither a P nor a P* label"))
        elif star_part[v] is not None:
            bad = h.pstar.check_node(g, star_part, v)
            if bad is not None:
                found.append(Violation(v, f"P* branch: {bad.reason}"))
        else:
            bad = h.inner.check_node(g, p_part, v)
            if bad is not None:
                found.append(Violation(v, f"P branch: {bad.reason}"))
    return found


class TestOnePassVerify:
    @given(_homogeneous_instances())
    def test_full_sweep_matches_per_node_checks(self, instance):
        g, h, labels = instance
        one_pass = h.verify(g, labels)
        assert one_pass == _per_node(h, g, labels, g.nodes())
        assert one_pass == _by_definition(h, g, labels, g.nodes())

    @given(_homogeneous_instances(), st.data())
    def test_node_subset_matches_per_node_checks(self, instance, data):
        g, h, labels = instance
        sweep = data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n))
        one_pass = h.verify(g, labels, nodes=sweep)
        assert one_pass == _per_node(h, g, labels, sweep)
        assert one_pass == _by_definition(h, g, labels, sweep)


class TestHomogeneousSolvers:
    def test_constant_label_solver_on_trees(self):
        g = balanced_regular_tree(4, 4)
        h = HomogeneousLCL(AlwaysAccept(), 4)
        sol = solve_with_constant_label(g, 4, "c", radius=2, ids=sequential_ids(g))
        assert h.is_feasible(g, sol.labels)
        assert sol.rounds == 4  # 2 * radius

    def test_constant_label_rounds_independent_of_n(self):
        rounds = set()
        for depth in (2, 3, 4, 5):
            g = balanced_regular_tree(4, depth)
            sol = solve_with_constant_label(g, 4, "c", radius=1, ids=sequential_ids(g))
            rounds.add(sol.rounds)
        assert len(rounds) == 1

    def test_constant_label_mixes_p_and_pstar(self):
        g = balanced_regular_tree(4, 4)
        sol = solve_with_constant_label(g, 4, "c", radius=1, ids=sequential_ids(g))
        kinds = {label.pstar_label is not None for label in sol.labels}
        assert kinds == {True, False}  # interior plays P, boundary plays P*

    def test_weak2_homogeneous_on_trees(self):
        g = balanced_regular_tree(4, 3)
        h = HomogeneousLCL(WeakColoring(2), 4)
        sol = solve_weak2_homogeneous(g, sequential_ids(g))
        assert h.is_feasible(g, sol.labels)

    def test_all_pstar_satisfies_any_inner_problem(self):
        g = balanced_regular_tree(4, 3)
        sol = solve_all_pstar(g, 4, sequential_ids(g))
        for inner in (AlwaysAccept(), WeakColoring(2), WeakColoring(7)):
            h = HomogeneousLCL(inner, 4)
            assert h.is_feasible(g, sol.labels)

    def test_all_pstar_on_torus(self):
        g = toroidal_grid(4, 5)
        sol = solve_all_pstar(g, 4, sequential_ids(g))
        h = HomogeneousLCL(AlwaysAccept(), 4)
        assert h.is_feasible(g, sol.labels)

    def test_all_pstar_on_caterpillar(self):
        g = caterpillar(6, 2)
        sol = solve_all_pstar(g, 4, sequential_ids(g))
        h = HomogeneousLCL(AlwaysAccept(), 4)
        assert h.is_feasible(g, sol.labels)
