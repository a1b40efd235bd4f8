"""Backend equivalence: direct and cached are interchangeable.

The engine seam's contract is that backend choice is a pure performance
knob — for every simulation kind, every backend produces a
:class:`~repro.core.SimReport` whose ``identity()`` (outputs, rounds,
halt rounds, failing nodes) is bit-identical to the direct reference.
This suite pins that contract:

* the **node-model** grid of :mod:`tests.differential` (algorithm ×
  graph family × radius × labeling), both backends per case;
* the **edge-model** cases (``B_t(e)`` views over cycles, trees, tori,
  and random regular graphs), both backends per case;
* **local** (message-passing) and **finite** (oriented-ball) kinds,
  which the cached backend must pass through untouched.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.message_passing import LubyMIS
from repro.core import SimRequest, simulate
from repro.graphs import toroidal_grid, orient_torus
from repro.graphs.identifiers import random_permutation_ids
from repro.speedup import local_maximum_coloring

from .differential import (
    BACKENDS,
    GRAPH_FAMILIES,
    assert_reports_identical,
    edge_cases,
    grid,
    run_case_backends,
    run_edge_case_backends,
)


# ----------------------------------------------------------------------
# Node model: the full differential grid, both backends per case
# ----------------------------------------------------------------------

@pytest.mark.parametrize("case", grid(), ids=lambda c: c.case_id)
def test_backends_bit_identical_on_node_grid(case):
    reports = run_case_backends(case)
    assert_reports_identical(reports, case.case_id)
    # The cached backend really deduplicated: its class count never
    # exceeds the node count.
    cached_classes = reports["cached"].info["distinct_classes"]
    assert 1 <= cached_classes <= len(reports["direct"].outputs)


# ----------------------------------------------------------------------
# Edge model: every backend over every edge case
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "graph_name,rounds", edge_cases(), ids=lambda p: str(p)
)
def test_backends_bit_identical_on_edge_model(graph_name, rounds):
    reports = run_edge_case_backends(graph_name, rounds)
    assert_reports_identical(reports, f"edge-t{rounds}-{graph_name}")
    assert reports["cached"].info["distinct_classes"] <= len(
        reports["direct"].outputs
    )


# ----------------------------------------------------------------------
# Local and finite kinds pass through every backend
# ----------------------------------------------------------------------

def _local_request(seed: int) -> SimRequest:
    graph = GRAPH_FAMILIES["tree3d3"]()
    ids = random_permutation_ids(graph, random.Random(seed))
    return SimRequest(kind="local", graph=graph, algorithm=LubyMIS(),
                      ids=ids, seed=seed, label=f"luby-{seed}")


@pytest.mark.parametrize("seed", [0, 1])
def test_backends_bit_identical_on_local_kind(seed):
    reports = {
        backend: simulate(_local_request(seed), engine=backend)
        for backend in BACKENDS
    }
    assert_reports_identical(reports, f"local-luby-{seed}")
    assert reports["direct"].all_halted()


def test_backends_bit_identical_on_finite_kind():
    graph = toroidal_grid(5, 5)
    orientation = orient_torus(graph, 5, 5)
    alg = local_maximum_coloring(2, bits=2)
    values = [random.Random(9).randrange(alg.values) for _ in graph.nodes()]
    request = SimRequest(kind="finite", graph=graph, algorithm=alg,
                         orientation=orientation, values=values,
                         label="finite-torus")
    reports = {
        backend: simulate(request, engine=backend) for backend in BACKENDS
    }
    assert_reports_identical(reports, "finite-torus")
    assert reports["direct"].failing_nodes is not None
