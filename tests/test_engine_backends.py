"""Layout equivalence: the engine's layouts are interchangeable.

The engine seam's contract is that layout choice is a pure performance
knob — for every simulation kind, every layout produces a
:class:`~repro.core.SimReport` whose ``identity()`` (outputs, rounds,
halt rounds, failing nodes) is bit-identical to the reference path.
This suite pins that contract:

* the **node-model** grid of :mod:`tests.differential` (algorithm ×
  graph family × radius × labeling), ``"csr"`` and ``"kernel"`` against
  ``"dict"`` per case;
* the **edge-model** cases (``B_t(e)`` views over cycles, trees, tori,
  and random regular graphs), the same three layouts per case;
* **local** (message-passing) and **finite** (oriented-ball) kinds,
  whose registered kernels must reproduce the reference loop.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.algorithms.message_passing import LubyMIS
from repro.core import SimRequest, simulate
from repro.graphs import toroidal_grid, orient_torus
from repro.graphs.identifiers import random_permutation_ids
from repro.speedup import local_maximum_coloring

from .differential import (
    GRAPH_FAMILIES,
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
    assert_layout_reports_identical(reports, case.case_id)
    # The kernel layout really partitioned: its class count never
    # exceeds the node count.
    classes = reports["kernel"].info["distinct_classes"]
    assert 1 <= classes <= len(reports["dict"].outputs)


# ----------------------------------------------------------------------
# Edge model: every layout over every edge case
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "graph_name,rounds", edge_cases(), ids=lambda p: str(p)
)
def test_backends_bit_identical_on_edge_model(graph_name, rounds):
    reports = run_edge_case_layouts(graph_name, rounds)
    assert_layout_reports_identical(reports, f"edge-t{rounds}-{graph_name}")
    assert reports["kernel"].info["distinct_classes"] <= len(
        reports["dict"].outputs
    )


# ----------------------------------------------------------------------
# Local and finite kinds: the registered kernel against the loop
# ----------------------------------------------------------------------

def _assert_kernel_matches_reference(request: SimRequest, label: str):
    reference = simulate(request)
    kernel = simulate(replace(request, layout="kernel"))
    assert kernel.identity() == reference.identity(), (
        f"{label}: layout 'kernel' diverges from the reference loop"
    )
    assert kernel.info["kernel"] == "vectorized"
    assert "kernel" not in reference.info
    return reference


@pytest.mark.parametrize("seed", [0, 1])
def test_backends_bit_identical_on_local_kind(seed):
    graph = GRAPH_FAMILIES["tree3d3"]()
    ids = random_permutation_ids(graph, random.Random(seed))
    request = SimRequest(kind="local", graph=graph, algorithm=LubyMIS(),
                         ids=ids, seed=seed, label=f"luby-{seed}")
    reference = _assert_kernel_matches_reference(request, f"local-luby-{seed}")
    assert reference.all_halted()


def test_backends_bit_identical_on_finite_kind():
    graph = toroidal_grid(5, 5)
    orientation = orient_torus(graph, 5, 5)
    alg = local_maximum_coloring(2, bits=2)
    values = [random.Random(9).randrange(alg.values) for _ in graph.nodes()]
    request = SimRequest(kind="finite", graph=graph, algorithm=alg,
                         orientation=orientation, values=values,
                         label="finite-torus")
    reference = _assert_kernel_matches_reference(request, "finite-torus")
    assert reference.failing_nodes is not None
