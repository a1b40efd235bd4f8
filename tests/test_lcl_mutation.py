"""Mutation tests: every catalog verifier must pinpoint planted bugs.

A verifier that always passes (or blames the wrong node) makes every
downstream correctness claim vacuous — the registry contracts
(``tests/test_contracts.py``), the report's SUMMARY verdicts, and
the paper-facing tables all trust ``verify``.  For each LCL in
``repro/lcl/catalog.py``, and for the
pointer problem P* and the homogeneous LCLs behind Theorems 4/5, this
table feeds one known-good labeling (must verify clean) and
minimally-corrupted variants (must produce violations at *exactly* the
expected nodes, for the expected reason where one is pinned).
"""

import pytest

import repro.lcl.catalog as catalog
from repro.graphs.generators import (
    balanced_regular_tree,
    complete_graph,
    path,
    star,
    toroidal_grid,
)
from repro.graphs.graph import edge_key
from repro.graphs.orientation import orient_torus
from repro.lcl.catalog import (
    MaximalIndependentSet,
    MaximalMatching,
    ProperColoring,
    ProperEdgeColoring,
    SinklessOrientation,
    WeakColoring,
    WeakEdgeColoring,
)
from repro.lcl.homogeneous import AlwaysAccept, HomogeneousLabel, HomogeneousLCL
from repro.lcl.pointer import PStar, PStarLabel


def _torus_setup():
    """4x4 torus, its natural orientation, and a good weak edge coloring.

    Dimension-0 edges alternate color with the column of their low
    endpoint (columns are even in number, so the alternation closes);
    dimension-1 edges are monochromatic.  Every node then has a
    bichromatic dimension 0, so the labeling is feasible — and
    corrupting a single dimension-0 edge makes that dimension
    monochromatic at both its endpoints.
    """
    rows = cols = 4
    graph = toroidal_grid(rows, cols)
    orientation = orient_torus(graph, rows, cols)
    labeling = {}
    for u, v in graph.edges():
        dim = orientation.dim_of(u, v)
        if dim == 0:
            low = u if orientation.sign_at(u, v) == 1 else v
            labeling[edge_key(u, v)] = (low % cols) % 2
        else:
            labeling[edge_key(u, v)] = 0
    return graph, orientation, labeling


def _corrupt_node(labeling, node, value):
    mutated = list(labeling)
    mutated[node] = value
    return mutated


def _corrupt_edge(labeling, u, v, value):
    mutated = dict(labeling)
    mutated[edge_key(u, v)] = value
    return mutated


# Each row: (case id, problem, graph, orientation, good labeling,
#            corrupted labeling, nodes the violations must name — or a
#            dict from those nodes to a substring of their reason).
def _node_cases():
    p3, p5, s3 = path(3), path(5), star(3)
    return [
        (
            "weak-coloring/leaf-matches-center",
            WeakColoring(2), s3, None,
            [0, 1, 1, 1],
            _corrupt_node([0, 1, 1, 1], 1, 0),
            [1],
        ),
        (
            "weak-coloring/unlabeled-node",
            WeakColoring(2), s3, None,
            [0, 1, 1, 1],
            _corrupt_node([0, 1, 1, 1], 2, None),
            [2],
        ),
        (
            "weak-coloring/outside-palette",
            WeakColoring(2), s3, None,
            [0, 1, 1, 1],
            _corrupt_node([0, 1, 1, 1], 3, 7),
            [3],
        ),
        (
            "proper-coloring/adjacent-same",
            ProperColoring(2), p3, None,
            [0, 1, 0],
            _corrupt_node([0, 1, 0], 2, 1),
            [1, 2],
        ),
        (
            "proper-coloring/outside-palette",
            ProperColoring(2), p3, None,
            [0, 1, 0],
            _corrupt_node([0, 1, 0], 0, 5),
            [0],
        ),
        (
            "mis/not-maximal",
            MaximalIndependentSet(), p5, None,
            [True, False, True, False, True],
            _corrupt_node([True, False, True, False, True], 2, False),
            [2],
        ),
        (
            "mis/not-independent",
            MaximalIndependentSet(), p5, None,
            [True, False, True, False, True],
            _corrupt_node([True, False, True, False, True], 1, True),
            [0, 1, 2],
        ),
    ]


def _edge_cases():
    p4 = path(4)
    k4 = complete_graph(4)
    torus, torus_orientation, torus_good = _torus_setup()
    # K4 oriented as the cycle 0->1->2->3->0 plus chords 0->2 and 1->3:
    # every node has out-degree >= 1, so no sinks.
    k4_good = {
        edge_key(0, 1): 1,
        edge_key(1, 2): 2,
        edge_key(2, 3): 3,
        edge_key(0, 3): 0,
        edge_key(0, 2): 2,
        edge_key(1, 3): 3,
    }
    matching_good = {
        edge_key(0, 1): True,
        edge_key(1, 2): False,
        edge_key(2, 3): True,
    }
    return [
        (
            "weak-edge-coloring/monochromatic-dimension",
            WeakEdgeColoring(2), torus, torus_orientation,
            torus_good,
            _corrupt_edge(torus_good, 0, 1, 1),
            [0, 1],
        ),
        (
            "weak-edge-coloring/unlabeled-edge",
            WeakEdgeColoring(2), torus, torus_orientation,
            torus_good,
            _corrupt_edge(torus_good, 0, 1, None),
            [0, 1],
        ),
        (
            "sinkless-orientation/planted-sink",
            SinklessOrientation(), k4, None,
            k4_good,
            _corrupt_edge(k4_good, 0, 3, 3),
            [3],
        ),
        (
            "sinkless-orientation/head-not-endpoint",
            SinklessOrientation(), k4, None,
            k4_good,
            _corrupt_edge(k4_good, 0, 1, 9),
            [0, 1],
        ),
        (
            "proper-edge-coloring/shared-color",
            ProperEdgeColoring(3), p4, None,
            {edge_key(0, 1): 0, edge_key(1, 2): 1, edge_key(2, 3): 0},
            {edge_key(0, 1): 0, edge_key(1, 2): 0, edge_key(2, 3): 0},
            [1, 2],
        ),
        (
            "maximal-matching/dropped-edge",
            MaximalMatching(), p4, None,
            matching_good,
            _corrupt_edge(matching_good, 2, 3, False),
            [2, 3],
        ),
        (
            "maximal-matching/double-matched",
            MaximalMatching(), p4, None,
            matching_good,
            _corrupt_edge(matching_good, 1, 2, True),
            [1, 2],
        ),
    ]


def _pstar_tree_good():
    """A P* solution on the depth-2 balanced 3-regular tree (Delta = 3).

    Root 0 has children 1, 2, 3; node 1 has leaves 4, 5, node 2 has
    6, 7 and node 3 has 8, 9.  Every pointer chain runs root -> child ->
    leaf and ends at a leaf advertising its degree, d = 1.
    """
    labels = [PStarLabel(1, None) for _ in range(10)]
    labels[0] = PStarLabel(1, 1)
    for child, leaf in ((1, 4), (2, 6), (3, 8)):
        labels[child] = PStarLabel(1, leaf)
    return labels


def _pstar_cases():
    tree, good = balanced_regular_tree(3, 2), _pstar_tree_good()
    return [
        (
            "pstar/cond1-empty-pointer",
            PStar(3), tree, None, good,
            _corrupt_node(good, 2, PStarLabel(1, None)),
            {2: "empty pointer (cond. 1)"},
        ),
        (
            "pstar/cond1-non-neighbor-pointer",
            PStar(3), tree, None, good,
            _corrupt_node(good, 0, PStarLabel(1, 4)),
            {0: "pointer 4 is not a neighbor (cond. 1)"},
        ),
        (
            "pstar/cond2-low-degree-pointer",
            PStar(3), tree, None, good,
            _corrupt_node(good, 5, PStarLabel(1, 1)),
            {5: "low-degree node with nonempty pointer (cond. 2)"},
        ),
        (
            "pstar/cond2-wrong-advertised-degree",
            PStar(3), tree, None, good,
            _corrupt_node(good, 7, PStarLabel(2, None)),
            {7: "advertises d=2 != deg=1 (cond. 2)"},
        ),
        (
            "pstar/cond3-chain-label-mismatch",
            PStar(3), tree, None, good,
            _corrupt_node(good, 0, PStarLabel(2, 1)),
            {0: "d(v)=2, d(1)=1 (cond. 3)"},
        ),
        (
            "pstar/cond4-backtrack",
            PStar(3), tree, None, good,
            _corrupt_node(good, 1, PStarLabel(1, 0)),
            {0: "p(1) = 0 (cond. 4)", 1: "p(0) = 1 (cond. 4)"},
        ),
        (
            "pstar/cond5-wrong-chain-end",
            PStar(3), tree, None, good,
            _corrupt_node(good, 1, PStarLabel(1, None)),
            {0: "chain ends at 1 with deg=3 != d=1 (cond. 5)", 1: "(cond. 1)"},
        ),
        (
            "pstar/unlabeled-node",
            PStar(3), tree, None, good,
            _corrupt_node(good, 9, None),
            {9: "node has no P* label"},
        ),
    ]


def _homogeneous_cases():
    s4 = star(4)
    leaf = HomogeneousLabel.solve_pstar(PStarLabel(1, None))
    # Center 0 is weakly colored through leaf 1 alone; leaves 2-4 opted out.
    weak_good = [HomogeneousLabel.solve_p(0), HomogeneousLabel.solve_p(1)] + [leaf] * 3
    # Every node plays P*: the center points at leaf 1.
    star_good = [HomogeneousLabel.solve_pstar(PStarLabel(1, 1))] + [leaf] * 4
    return [
        (
            "homogeneous/p-branch-leans-on-pstar",
            HomogeneousLCL(WeakColoring(2), 4), s4, None, weak_good,
            _corrupt_node(weak_good, 1, leaf),
            {0: "P branch: "},
        ),
        (
            "homogeneous/pstar-chain-mismatch",
            HomogeneousLCL(AlwaysAccept(), 4), s4, None, star_good,
            _corrupt_node(star_good, 0, HomogeneousLabel.solve_pstar(PStarLabel(2, 1))),
            {0: "P* branch: pointer chain label mismatch"},
        ),
        (
            "homogeneous/pstar-points-into-p",
            HomogeneousLCL(AlwaysAccept(), 4), s4, None, star_good,
            _corrupt_node(star_good, 1, HomogeneousLabel.solve_p("x")),
            {0: "P* branch: pointer target 1 has no P* label"},
        ),
        (
            "homogeneous/unlabeled-node",
            HomogeneousLCL(AlwaysAccept(), 4), s4, None, star_good,
            _corrupt_node(star_good, 2, None),
            {2: "neither a P nor a P* label"},
        ),
    ]


ALL_CASES = _node_cases() + _edge_cases() + _pstar_cases() + _homogeneous_cases()


@pytest.mark.parametrize(
    "problem,graph,orientation,good,corrupted,expected",
    [case[1:] for case in ALL_CASES],
    ids=[case[0] for case in ALL_CASES],
)
def test_verifier_pinpoints_planted_violation(
    problem, graph, orientation, good, corrupted, expected
):
    assert problem.verify(graph, good, orientation) == []
    violations = problem.verify(graph, corrupted, orientation)
    assert sorted(v.where for v in violations) == sorted(expected)
    assert all(v.reason for v in violations)
    if isinstance(expected, dict):
        for v in violations:
            assert expected[v.where] in v.reason


def test_every_catalog_problem_is_mutation_tested():
    # Kills silent gaps: adding a problem to the catalog, or dropping
    # the rows of the verifiers behind Theorems 4/5, must fail loudly.
    tested = {type(case[1]).__name__ for case in ALL_CASES}
    assert tested == set(catalog.__all__) | {"PStar", "HomogeneousLCL"}


def test_node_verify_rejects_wrong_length_labeling():
    with pytest.raises(ValueError):
        WeakColoring(2).verify(path(3), [0, 1])


def test_isolated_node_is_vacuously_weakly_colored():
    from repro.graphs.graph import Graph

    lonely = Graph(1).freeze()
    assert WeakColoring(2).verify(lonely, [0]) == []
