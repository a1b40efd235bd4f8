"""Differential harness: every way of running a view algorithm is *exact*.

A T-round algorithm is a map from radius-T balls to outputs, so
evaluating it once per canonical view class and broadcasting the
output must be indistinguishable from running it at every node.  And
a node has no name besides its identifier, so renaming the nodes of a
graph — keeping every port, identifier and random value with its
node — must rename the outputs and change nothing else.  This module
turns both claims into executable oracles:

* :func:`grid` enumerates a (algorithm × graph family × radius ×
  labeling) case grid — id-driven, anonymous, and randomness-driven
  rules over cycles, paths, trees, tori, stars, caterpillars, cliques,
  and random regular graphs, at radii 0 through 3;
* :func:`run_case` executes one case twice: through the engine, and as
  a memo table built here (:func:`run_memoized` — a dict with one
  lookup per node, keyed by
  :func:`~repro.local_model.views.view_signature`, one gather per key);
* :func:`assert_identical` demands the two reports agree **bit for
  bit** — outputs, halt rounds, and round count;
* :func:`assert_renumbering_invariant` runs a case's
  :class:`~repro.core.SimRequest` twice, on its graph and on a
  port-preserving renumbered copy (:func:`renumbered`), and demands
  that outputs, halt rounds and rounds permute exactly.  A gather
  that reads node names (for example, one that explores neighbours in
  sorted rather than port order) fails it.

``tests/test_differential.py`` parametrizes the memo comparison over
the full grid; ``tests/test_engine_backends.py`` adds the renumbering
comparison; ``python -m tests.differential`` (with ``src`` on the
path) runs both standalone and prints a per-case table, which is handy
when a gather change needs forensic rather than pass/fail output.

Every case derives its labelings and its renumbering from
``sha256(case_id)``, so the grid is deterministic across processes,
job counts, and Python hash seeds.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import ALGORITHMS, SimReport, SimRequest, ensure_builtins, simulate
from repro.graphs import (
    Graph,
    balanced_regular_tree,
    caterpillar,
    complete_graph,
    cycle,
    path,
    random_regular_graph,
    star,
    toroidal_grid,
)
from repro.graphs.graph import edge_key
from repro.graphs.identifiers import random_permutation_ids
from repro.local_model import EdgeViewAlgorithm
from repro.local_model.views import (
    edge_view_signature,
    gather_edge_view,
    gather_view,
    view_signature,
)

__all__ = [
    "Case",
    "GRAPH_FAMILIES",
    "grid",
    "run_memoized",
    "run_edge_memoized",
    "run_case",
    "build_request",
    "edge_request",
    "renumbering",
    "renumbered",
    "assert_renumbering_invariant",
    "run_edge_case",
    "assert_identical",
    "run_grid",
]

ensure_builtins()  # the view rules, created by registry name

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


def run_memoized(
    graph, rule, ids=None, randomness=None
) -> Tuple[SimReport, Dict[Any, Any]]:
    """A view run as a memo table: one evaluation per view class.

    Each node is looked up by its canonical signature; a miss gathers
    that node's ball and evaluates the rule, a hit reuses the stored
    output.  Returns the result and the memo (one entry per class).
    """
    memo: Dict[Any, Any] = {}
    radius, labels = rule.radius, {"ids": ids, "randomness": randomness}
    outputs = []
    for v in graph.nodes():
        key = view_signature(graph, v, radius, **labels)
        if key not in memo:
            memo[key] = rule.output(gather_view(graph, v, radius, **labels))
        outputs.append(memo[key])
    report = SimReport("view", outputs, radius, halt_rounds=[radius] * len(outputs))
    return report, memo


def run_edge_memoized(
    graph, algorithm, randomness=None
) -> Tuple[SimReport, Dict[Any, Any]]:
    """:func:`run_memoized` for an edge algorithm, keyed per edge ball."""
    memo: Dict[Any, Any] = {}
    radius = algorithm.view_radius()
    outputs = {}
    for u, v in graph.edges():
        key = edge_view_signature(graph, (u, v), radius, randomness=randomness)
        if key not in memo:
            memo[key] = algorithm.output_fn(
                gather_edge_view(graph, (u, v), radius, randomness=randomness)
            )
        outputs[edge_key(u, v)] = memo[key]
    return SimReport("edge", outputs, algorithm.rounds), memo


def run_case(case: Case) -> Tuple[Any, Any, Dict[str, int]]:
    """Run one case through the engine and as a memo table.

    Returns ``(direct, memoized, stats)``: ``stats`` holds the memo's
    ``lookups`` (one per node) and ``distinct_classes`` (its size).
    """
    request = build_request(case)
    direct = simulate(request)
    memoized, memo = run_memoized(
        request.graph, request.algorithm,
        ids=request.ids, randomness=request.randomness,
    )
    return direct, memoized, {"lookups": request.graph.n, "distinct_classes": len(memo)}


def assert_identical(direct: Any, memoized: Any, case: Case) -> None:
    """Bit-identical or AssertionError naming the first divergence."""
    assert memoized.outputs == direct.outputs, (
        f"{case.case_id}: outputs diverge at nodes "
        f"{[v for v, (a, b) in enumerate(zip(direct.outputs, memoized.outputs)) if a != b][:5]}"
    )
    assert memoized.halt_rounds == direct.halt_rounds, (
        f"{case.case_id}: halt rounds diverge"
    )
    assert memoized.rounds == direct.rounds, (
        f"{case.case_id}: round counts diverge "
        f"({direct.rounds} direct vs {memoized.rounds} memoized)"
    )


# ----------------------------------------------------------------------
# Renumbering comparison: node names must not reach any view
# ----------------------------------------------------------------------

def build_request(case: Case) -> SimRequest:
    """The :class:`~repro.core.SimRequest` for one grid case."""
    graph = GRAPH_FAMILIES[case.graph]()
    rule = ALGORITHMS.create(case.rule, radius=case.radius)
    ids, randomness = _labelings(case, graph)
    return SimRequest(
        kind="view",
        graph=graph,
        algorithm=rule,
        ids=ids,
        randomness=randomness,
        label=case.case_id,
    )


def renumbering(label: str, n: int) -> List[int]:
    """A permutation ``pi`` of ``range(n)``, seeded by ``sha256(label)``.

    The seed string extends the case id, so the permutation is not the
    shuffle the case's own labelings drew.
    """
    digest = hashlib.sha256(f"{label}:renumber".encode("utf-8")).digest()
    pi = list(range(n))
    random.Random(int.from_bytes(digest[:8], "big")).shuffle(pi)
    return pi


def renumbered(request: SimRequest, pi: Sequence[int]) -> SimRequest:
    """``request`` with node ``v`` renamed ``pi[v]``, nothing else changed.

    The copy is built with :meth:`~repro.graphs.Graph.from_adjacency`:
    port ``i`` of ``pi[v]`` leads to ``pi`` of port ``i``'s neighbour
    of ``v``, and ``v``'s identifier, input and random value move to
    ``pi[v]``.
    """
    graph = request.graph
    adjacency: List[List[int]] = [[] for _ in graph.nodes()]
    for v in graph.nodes():
        adjacency[pi[v]] = [pi[u] for u in graph.neighbors(v)]

    def carry(labels: Optional[Sequence[Any]]) -> Optional[List[Any]]:
        if labels is None:
            return None
        moved: List[Any] = [None] * len(labels)
        for v, value in enumerate(labels):
            moved[pi[v]] = value
        return moved

    return replace(
        request,
        graph=Graph.from_adjacency(adjacency).freeze(),
        ids=carry(request.ids),
        inputs=carry(request.inputs),
        randomness=carry(request.randomness),
    )


def assert_renumbering_invariant(request: SimRequest, label: str) -> None:
    """Outputs, halt rounds and rounds follow a renumbering exactly.

    Node outputs and halt rounds must satisfy ``moved[pi[v]] ==
    base[v]``; edge outputs are re-keyed by ``edge_key(pi[u], pi[v])``.
    """
    pi = renumbering(label, request.graph.n)
    base = simulate(request)
    moved = simulate(renumbered(request, pi))
    if base.kind == "edge":
        expected = {
            edge_key(pi[u], pi[v]): out for (u, v), out in base.outputs.items()
        }
        assert moved.outputs == expected, (
            f"{label}: edge outputs do not follow the renumbering"
        )
    else:
        diverging = [
            v for v in request.graph.nodes()
            if moved.outputs[pi[v]] != base.outputs[v]
        ]
        assert not diverging, (
            f"{label}: outputs do not follow the renumbering at nodes "
            f"{diverging[:5]}"
        )
        assert [moved.halt_rounds[pi[v]] for v in request.graph.nodes()] == (
            base.halt_rounds
        ), f"{label}: halt rounds do not follow the renumbering"
    assert moved.rounds == base.rounds, f"{label}: round counts diverge"


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


def edge_request(graph_name: str, rounds: int) -> SimRequest:
    """The :class:`~repro.core.SimRequest` for one edge case."""
    graph = GRAPH_FAMILIES[graph_name]()
    rng = random.Random(rounds * 1009 + len(graph_name))
    return SimRequest(
        kind="edge",
        graph=graph,
        algorithm=EdgeViewAlgorithm(
            rounds, _edge_profile_output, name=f"edge-profile-t{rounds}"
        ),
        randomness=[rng.getrandbits(12) for _ in graph.nodes()],
        label=f"edge-t{rounds}-{graph_name}",
    )


def run_edge_case(graph_name: str, rounds: int) -> Tuple[Any, Any]:
    """One edge-view algorithm, engine vs memo table, on one graph."""
    request = edge_request(graph_name, rounds)
    direct = simulate(request)
    memoized, _ = run_edge_memoized(
        request.graph, request.algorithm, randomness=request.randomness
    )
    return direct, memoized


# ----------------------------------------------------------------------
# Standalone runner
# ----------------------------------------------------------------------

def run_grid(verbose: bool = True) -> int:
    """Run every case; return the number of failures."""
    failures = 0
    for case in grid():
        direct, memoized, stats = run_case(case)
        try:
            assert_identical(direct, memoized, case)
            assert_renumbering_invariant(build_request(case), case.case_id)
            status = "ok"
        except AssertionError as exc:
            failures += 1
            status = f"FAIL ({exc})"
        if verbose:
            print(
                f"  {case.case_id:<48s} classes={stats['distinct_classes']:>4d}"
                f"/{stats['lookups']:<4d} {status}"
            )
    for graph_name, rounds in edge_cases():
        direct, memoized = run_edge_case(graph_name, rounds)
        ok = memoized == direct
        failures += 0 if ok else 1
        if verbose:
            print(
                f"  edge-t{rounds}-{graph_name:<32s} "
                f"{'ok' if ok else 'FAIL'}"
            )
        label = f"edge-t{rounds}-{graph_name}"
        try:
            assert_renumbering_invariant(
                edge_request(graph_name, rounds), label
            )
            renumber_status = "renumbering ok"
        except AssertionError as exc:
            failures += 1
            renumber_status = f"renumbering FAIL ({exc})"
        if verbose:
            print(f"  {label:<39s} {renumber_status}")
    return failures


if __name__ == "__main__":
    import sys

    n_failures = run_grid()
    total = len(grid()) + len(edge_cases())
    print(f"{total - n_failures}/{total} differential cases identical")
    sys.exit(1 if n_failures else 0)
