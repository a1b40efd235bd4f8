"""Differential harness: every engine backend must be *exact*.

The cache (:mod:`repro.local_model.cache`) claims that keying on the
canonical view signature and broadcasting one computed output per
distinct view class is indistinguishable from running the algorithm at
every node.  This module turns that claim into an executable oracle:

* :func:`grid` enumerates a (algorithm × graph family × radius ×
  labeling) case grid — id-driven, anonymous, and randomness-driven
  rules over cycles, paths, trees, tori, stars, caterpillars, cliques,
  and random regular graphs, at radii 0 through 3;
* :func:`run_case` executes one case twice, directly and through a
  fresh :class:`~repro.local_model.ViewCache`;
* :func:`assert_identical` demands the two
  :class:`~repro.local_model.ExecutionResult`s agree **bit for bit** —
  outputs, halt rounds, and round count;
* :func:`run_case_backends` / :func:`run_edge_case_backends` run the
  same case once per :mod:`repro.core` backend (direct, cached) and
  return the :class:`~repro.core.SimReport`s, whose ``identity()``
  projections must coincide;
* :func:`run_case_layouts` / :func:`run_edge_case_layouts` extend that
  comparison with the graph-layout axis: every (backend × layout)
  combination — the reference ``"dict"`` path and the batched
  ``"csr"`` expander — must reproduce the direct/dict report bit for
  bit (:func:`assert_layout_reports_identical`).

``tests/test_differential.py`` parametrizes over the full grid;
``tests/test_engine_backends.py`` adds the backend comparison;
``python -m tests.differential`` (with ``src`` on the path) runs both
standalone and prints a per-case table, which is handy when a cache or
backend change needs forensic rather than pass/fail output.

Every case derives its labelings from ``sha256(case_id)``, so the grid
is deterministic across processes, job counts, and Python hash seeds.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.algorithms.view_rules import make_view_rule
from repro.core import SimRequest, simulate
from repro.graphs import (
    balanced_regular_tree,
    caterpillar,
    complete_graph,
    cycle,
    path,
    random_regular_graph,
    star,
    toroidal_grid,
)
from repro.graphs.identifiers import random_permutation_ids
from repro.local_model import EdgeViewAlgorithm, ViewCache
from repro.local_model.batch_views import LAYOUTS
from repro.local_model.edge_model import run_edge_view_algorithm
from repro.local_model.network import run_view_algorithm

__all__ = [
    "Case",
    "BACKENDS",
    "LAYOUTS",
    "GRAPH_FAMILIES",
    "grid",
    "run_case",
    "run_case_backends",
    "run_case_layouts",
    "run_edge_case_backends",
    "run_edge_case_layouts",
    "assert_identical",
    "assert_reports_identical",
    "assert_layout_reports_identical",
    "run_grid",
]

#: Every interchangeable :mod:`repro.core` backend, in comparison order
#: (``direct`` first: it is the reference semantics).
BACKENDS = ("direct", "cached")

#: name -> zero-argument graph builder.  Sizes are chosen so the whole
#: grid stays in CI-friendly territory while still covering high-girth,
#: high-symmetry, irregular, and dense topologies.
GRAPH_FAMILIES = {
    "cycle24": lambda: cycle(24),
    "path17": lambda: path(17),
    "tree3d3": lambda: balanced_regular_tree(3, 3),
    "torus5x6": lambda: toroidal_grid(5, 6),
    "star8": lambda: star(8),
    "caterpillar6x2": lambda: caterpillar(6, 2),
    "clique7": lambda: complete_graph(7),
    "rr20d4": lambda: random_regular_graph(20, 4, rng=random.Random(7)),
}

#: labeling -> the view rules it can drive (rules needing ids or
#: randomness only appear under the labeling that provides them).
_RULES_BY_LABELING = {
    "anonymous": ("ball-signature", "degree-profile"),
    "ids": ("local-max", "ball-signature", "degree-profile"),
    "random": ("random-priority", "ball-signature", "degree-profile"),
}

RADII = (0, 1, 2, 3)


@dataclass(frozen=True)
class Case:
    """One point of the differential grid."""

    rule: str
    graph: str
    radius: int
    labeling: str

    @property
    def case_id(self) -> str:
        return f"{self.rule}-r{self.radius}-{self.graph}-{self.labeling}"


def grid() -> List[Case]:
    """The full differential grid, in deterministic order."""
    cases: List[Case] = []
    for labeling, rules in _RULES_BY_LABELING.items():
        for rule in rules:
            for radius in RADII:
                if radius < 1 and rule in ("local-max", "random-priority"):
                    continue  # comparison rules need at least one neighbor
                for graph in GRAPH_FAMILIES:
                    cases.append(Case(rule, graph, radius, labeling))
    return cases


def _case_rng(case: Case) -> random.Random:
    digest = hashlib.sha256(case.case_id.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _labelings(
    case: Case, graph
) -> Tuple[Optional[List[int]], Optional[List[int]]]:
    """(ids, randomness) for the case, derived from its identity."""
    rng = _case_rng(case)
    if case.labeling == "ids":
        return random_permutation_ids(graph, rng), None
    if case.labeling == "random":
        return None, [rng.getrandbits(12) for _ in graph.nodes()]
    return None, None


def run_case(case: Case) -> Tuple[Any, Any, Dict[str, Any]]:
    """Run one case directly and through a fresh cache.

    Returns ``(direct, cached, cache_stats_dict)``.
    """
    graph = GRAPH_FAMILIES[case.graph]()
    rule = make_view_rule(case.rule, radius=case.radius)
    ids, randomness = _labelings(case, graph)
    direct = run_view_algorithm(graph, rule, ids=ids, randomness=randomness)
    cache = ViewCache()
    cached = run_view_algorithm(
        graph, rule, ids=ids, randomness=randomness, view_cache=cache
    )
    return direct, cached, cache.stats.to_dict()


def assert_identical(direct: Any, cached: Any, case: Case) -> None:
    """Bit-identical or AssertionError naming the first divergence."""
    assert cached.outputs == direct.outputs, (
        f"{case.case_id}: outputs diverge at nodes "
        f"{[v for v, (a, b) in enumerate(zip(direct.outputs, cached.outputs)) if a != b][:5]}"
    )
    assert cached.halt_rounds == direct.halt_rounds, (
        f"{case.case_id}: halt rounds diverge"
    )
    assert cached.rounds == direct.rounds, (
        f"{case.case_id}: round counts diverge "
        f"({direct.rounds} direct vs {cached.rounds} cached)"
    )


# ----------------------------------------------------------------------
# Backend comparison (direct vs cached SimReports)
# ----------------------------------------------------------------------

def build_request(case: Case) -> SimRequest:
    """The :class:`~repro.core.SimRequest` for one grid case."""
    graph = GRAPH_FAMILIES[case.graph]()
    rule = make_view_rule(case.rule, radius=case.radius)
    ids, randomness = _labelings(case, graph)
    return SimRequest(
        kind="view",
        graph=graph,
        algorithm=rule,
        ids=ids,
        randomness=randomness,
        label=case.case_id,
    )


def run_case_backends(case: Case) -> Dict[str, Any]:
    """Run one case through every backend; backend name -> SimReport."""
    return {
        backend: simulate(build_request(case), engine=backend)
        for backend in BACKENDS
    }


def assert_reports_identical(reports: Dict[str, Any], label: str) -> None:
    """All reports share the direct report's ``identity()`` projection."""
    reference = reports["direct"].identity()
    for backend, report in reports.items():
        assert report.backend == backend, (
            f"{label}: report from {backend!r} claims backend {report.backend!r}"
        )
        assert report.identity() == reference, (
            f"{label}: backend {backend!r} diverges from direct"
        )


def run_case_layouts(case: Case) -> Dict[Tuple[str, str], Any]:
    """One case over the full (backend × layout) grid.

    Returns ``(backend, layout) -> SimReport``.  Every grid graph is
    frozen by its generator, so the ``"csr"`` layout is legal on all of
    them.
    """
    request = build_request(case)
    return {
        (backend, layout): simulate(
            replace(request, layout=layout), engine=backend
        )
        for backend in BACKENDS
        for layout in LAYOUTS
    }


def assert_layout_reports_identical(
    reports: Dict[Tuple[str, str], Any], label: str
) -> None:
    """Every (backend, layout) report matches direct/dict bit for bit."""
    reference = reports[("direct", "dict")].identity()
    for (backend, layout), report in reports.items():
        assert report.identity() == reference, (
            f"{label}: backend {backend!r} with layout {layout!r} "
            f"diverges from direct/dict"
        )


# ----------------------------------------------------------------------
# Edge-model differential cases (B_t(e) = B_{t-1}(u) ∪ B_{t-1}(v))
# ----------------------------------------------------------------------

def edge_cases() -> List[Tuple[str, int]]:
    """(graph family, rounds) pairs for the edge-engine differential."""
    return [
        (graph, rounds)
        for rounds in (1, 2, 3)
        for graph in ("cycle24", "tree3d3", "torus5x6", "rr20d4")
    ]


def _edge_profile_output(view: Any) -> Tuple[int, int, int]:
    """Edge output: ball size, edge count, minimum randomness."""
    return (view.node_count, len(view.edges), min(view.randomness))


def _edge_case_inputs(graph_name: str, rounds: int):
    graph = GRAPH_FAMILIES[graph_name]()
    rng = random.Random(rounds * 1009 + len(graph_name))
    randomness = [rng.getrandbits(12) for _ in graph.nodes()]
    alg = EdgeViewAlgorithm(
        rounds, _edge_profile_output, name=f"edge-profile-t{rounds}"
    )
    return graph, alg, randomness


def run_edge_case(graph_name: str, rounds: int) -> Tuple[Any, Any]:
    """One edge-view algorithm, cached vs direct, on one graph."""
    graph, alg, randomness = _edge_case_inputs(graph_name, rounds)
    direct = run_edge_view_algorithm(graph, alg, randomness=randomness)
    cached = run_edge_view_algorithm(
        graph, alg, randomness=randomness, view_cache=True
    )
    return direct, cached


def run_edge_case_backends(graph_name: str, rounds: int) -> Dict[str, Any]:
    """One edge case through every backend; backend name -> SimReport."""
    graph, alg, randomness = _edge_case_inputs(graph_name, rounds)
    request = SimRequest(
        kind="edge",
        graph=graph,
        algorithm=alg,
        randomness=randomness,
        label=f"edge-t{rounds}-{graph_name}",
    )
    return {backend: simulate(request, engine=backend) for backend in BACKENDS}


def run_edge_case_layouts(
    graph_name: str, rounds: int
) -> Dict[Tuple[str, str], Any]:
    """One edge case over the full (backend × layout) grid."""
    graph, alg, randomness = _edge_case_inputs(graph_name, rounds)
    request = SimRequest(
        kind="edge",
        graph=graph,
        algorithm=alg,
        randomness=randomness,
        label=f"edge-t{rounds}-{graph_name}",
    )
    return {
        (backend, layout): simulate(
            replace(request, layout=layout), engine=backend
        )
        for backend in BACKENDS
        for layout in LAYOUTS
    }


# ----------------------------------------------------------------------
# Standalone runner
# ----------------------------------------------------------------------

def run_grid(verbose: bool = True) -> int:
    """Run every case; return the number of failures."""
    failures = 0
    for case in grid():
        direct, cached, stats = run_case(case)
        try:
            assert_identical(direct, cached, case)
            status = "ok"
        except AssertionError as exc:
            failures += 1
            status = f"FAIL ({exc})"
        if verbose:
            print(
                f"  {case.case_id:<48s} classes={stats['distinct_classes']:>4d} "
                f"hit={stats['hit_rate']:.2f}  {status}"
            )
    for graph_name, rounds in edge_cases():
        direct, cached = run_edge_case(graph_name, rounds)
        ok = cached.outputs == direct.outputs and cached.rounds == direct.rounds
        failures += 0 if ok else 1
        if verbose:
            print(
                f"  edge-t{rounds}-{graph_name:<32s} "
                f"{'ok' if ok else 'FAIL'}"
            )
        try:
            assert_reports_identical(
                run_edge_case_backends(graph_name, rounds),
                f"edge-t{rounds}-{graph_name}",
            )
            backend_status = "backends ok"
        except AssertionError as exc:
            failures += 1
            backend_status = f"backends FAIL ({exc})"
        if verbose:
            print(f"  edge-t{rounds}-{graph_name:<32s} {backend_status}")
    return failures


if __name__ == "__main__":
    import sys

    n_failures = run_grid()
    total = len(grid()) + len(edge_cases())
    print(f"{total - n_failures}/{total} differential cases identical")
    sys.exit(1 if n_failures else 0)
