"""Renumbering invariance: node names never reach a view.

A T-round algorithm is a function of its radius-T ball, and a node has
no name besides its identifier.  So renaming the nodes of a graph —
keeping every port, identifier and random value with its node — must
rename the engine's outputs and change nothing else.  This suite pins
that contract on the one gather each kind has
(:func:`~repro.local_model.views.gather_view`,
:func:`~repro.local_model.views.gather_edge_view`):

* the **node-model** grid of :mod:`tests.differential` (algorithm ×
  graph family × radius × labeling): each case runs on its graph and
  on a port-preserving renumbered copy, and outputs, halt rounds and
  rounds must permute exactly;
* the **edge-model** cases (``B_t(e)`` views over cycles, trees, tori,
  and random regular graphs), the same comparison with the outputs
  re-keyed by ``edge_key(pi(u), pi(v))``;
* **labelings of the wrong length**, the same named ``ValueError`` on
  every kind.

The permutation of each case is seeded from ``sha256`` of its case id
(:func:`tests.differential.renumbering`).  A gather that explores
neighbours in name order instead of port order fails the node grid.
"""

from __future__ import annotations

import pytest

from repro.algorithms.message_passing import ColeVishkinMP, FloodLeaderParity
from repro.algorithms.view_rules import make_view_rule
from repro.core import SimRequest, simulate
from repro.graphs import cycle
from repro.local_model.edge_model import EdgeViewAlgorithm

from .differential import (
    assert_renumbering_invariant,
    build_request,
    edge_cases,
    edge_request,
    grid,
)


# ----------------------------------------------------------------------
# Node model: the full differential grid, renumbered per case
# ----------------------------------------------------------------------

@pytest.mark.parametrize("case", grid(), ids=lambda c: c.case_id)
def test_backends_bit_identical_on_node_grid(case):
    assert_renumbering_invariant(build_request(case), case.case_id)


# ----------------------------------------------------------------------
# Edge model: every edge case, renumbered
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "graph_name,rounds", edge_cases(), ids=lambda p: str(p)
)
def test_backends_bit_identical_on_edge_model(graph_name, rounds):
    assert_renumbering_invariant(
        edge_request(graph_name, rounds), f"edge-t{rounds}-{graph_name}"
    )


# ----------------------------------------------------------------------
# Labelings of the wrong length: a named error on every kind
# ----------------------------------------------------------------------

def _edge_ball_size(view):
    return (view.node_count, len(view.edges))


@pytest.mark.parametrize("field", ["ids", "inputs"])
def test_local_label_length_errors(field):
    values = {
        "ids": {"ids": [1, 2, 3]},
        "inputs": {"inputs": [(0, 1)] * 7},
    }[field]
    request = SimRequest(
        kind="local",
        graph=cycle(6),
        algorithm=FloodLeaderParity() if field == "ids" else ColeVishkinMP(3),
        **values,
    )
    with pytest.raises(ValueError, match=f"^{field} must have one entry per node$"):
        simulate(request)


@pytest.mark.parametrize("field", ["ids", "inputs", "randomness"])
@pytest.mark.parametrize("kind", ["view", "edge"])
def test_view_label_length_errors(kind, field):
    graph = cycle(10)
    algorithm = (
        make_view_rule("local-max", radius=1) if kind == "view"
        else EdgeViewAlgorithm(1, _edge_ball_size, name="edge-ball-size")
    )
    for labels in ([5, 6, 7], list(range(11))):
        request = SimRequest(
            kind=kind, graph=graph, algorithm=algorithm, **{field: labels},
        )
        with pytest.raises(
            ValueError, match=f"^{field} must have one entry per node$"
        ):
            simulate(request)
