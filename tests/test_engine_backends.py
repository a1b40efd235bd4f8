"""Layout equivalence: the engine's layouts are interchangeable.

The engine seam's contract is that layout choice is a pure performance
knob — every ``view`` / ``edge`` layout produces a
:class:`~repro.core.SimReport` whose ``identity()`` (outputs, rounds,
halt rounds) is bit-identical to the reference path.  This suite pins
that contract:

* the **node-model** grid of :mod:`tests.differential` (algorithm ×
  graph family × radius × labeling), ``"csr"`` against ``"dict"`` per
  case;
* the **edge-model** cases (``B_t(e)`` views over cycles, trees, tori,
  and random regular graphs), both layouts per case;
* **labelings of the wrong length**, the same named ``ValueError`` on
  every kind and layout.
"""

from __future__ import annotations

import pytest

from repro.algorithms.message_passing import ColeVishkinMP, FloodLeaderParity
from repro.algorithms.view_rules import make_view_rule
from repro.core import SimRequest, simulate
from repro.graphs import cycle
from repro.local_model.edge_model import EdgeViewAlgorithm

from .differential import (
    LAYOUTS,
    assert_layout_reports_identical,
    edge_cases,
    grid,
    run_case_layouts,
    run_edge_case_layouts,
)


# ----------------------------------------------------------------------
# Node model: the full differential grid, every layout per case
# ----------------------------------------------------------------------

@pytest.mark.parametrize("case", grid(), ids=lambda c: c.case_id)
def test_backends_bit_identical_on_node_grid(case):
    reports = run_case_layouts(case)
    assert set(reports) == {"dict", "csr"}
    assert_layout_reports_identical(reports, case.case_id)


# ----------------------------------------------------------------------
# Edge model: every layout over every edge case
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "graph_name,rounds", edge_cases(), ids=lambda p: str(p)
)
def test_backends_bit_identical_on_edge_model(graph_name, rounds):
    reports = run_edge_case_layouts(graph_name, rounds)
    assert set(reports) == {"dict", "csr"}
    assert_layout_reports_identical(reports, f"edge-t{rounds}-{graph_name}")


# ----------------------------------------------------------------------
# Labelings of the wrong length: a named error on every kind and layout
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
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("kind", ["view", "edge"])
def test_view_label_length_errors(kind, layout, field):
    graph = cycle(10)
    algorithm = (
        make_view_rule("local-max", radius=1) if kind == "view"
        else EdgeViewAlgorithm(1, _edge_ball_size, name="edge-ball-size")
    )
    for labels in ([5, 6, 7], list(range(11))):
        request = SimRequest(
            kind=kind, graph=graph, algorithm=algorithm, layout=layout,
            **{field: labels},
        )
        with pytest.raises(
            ValueError, match=f"^{field} must have one entry per node$"
        ):
            simulate(request)
