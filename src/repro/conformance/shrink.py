"""Delta-debugging shrinker: reduce a failing case to a minimal one.

Classic ddmin over the graph's nodes, then greedy single-edge removal,
driven by a predicate that re-runs *only the originally failing
checks*.  Two properties make shrinking converge instead of chasing
its own tail:

* the case is made **explicit** first (adjacency, ids, randomness all
  pinned — :func:`~repro.conformance.fuzzer.explicit_case`), and every
  reduction *projects* the existing labels onto the survivors rather
  than re-deriving them, so a shrink step changes exactly the graph;
* projection preserves port order (each adjacency row keeps its
  original order restricted to surviving neighbors), the same
  guarantee :meth:`~repro.graphs.graph.Graph.induced_subgraph`
  documents.

An evaluation budget bounds the whole search; the best case found so
far is always returned, minimal or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

from .contracts import Contract
from .fuzzer import CaseSpec, CheckFailure, explicit_case, run_case

__all__ = ["ShrinkResult", "shrink_case", "minimal_repro"]


@dataclass
class ShrinkResult:
    """The reduced case, the failures it still exhibits, and the cost."""

    case: CaseSpec
    failures: List[CheckFailure]
    nodes: int
    edges: int
    evaluations: int

    def summary(self) -> str:
        return (
            f"{self.case.algorithm}: shrunk to {self.nodes} nodes / "
            f"{self.edges} edges in {self.evaluations} evaluations"
        )


def _project_nodes(case: CaseSpec, keep: Iterable[int]) -> CaseSpec:
    """The sub-case induced by ``keep``, labels projected, ports kept."""
    survivors = sorted(set(keep))
    mapping = {old: new for new, old in enumerate(survivors)}
    adjacency = [
        [mapping[u] for u in case.adjacency[old] if u in mapping]
        for old in survivors
    ]
    return CaseSpec(
        algorithm=case.algorithm,
        seed=case.seed,
        graph_family=case.graph_family,
        graph_params=dict(case.graph_params),
        algorithm_params=dict(case.algorithm_params),
        adjacency=adjacency,
        ids=[case.ids[old] for old in survivors] if case.ids else None,
        randomness=(
            [case.randomness[old] for old in survivors]
            if case.randomness
            else None
        ),
    )


def _drop_edge(case: CaseSpec, u: int, v: int) -> CaseSpec:
    """The case with edge ``{u, v}`` removed (ports otherwise kept)."""
    adjacency = [list(row) for row in case.adjacency]
    adjacency[u] = [w for w in adjacency[u] if w != v]
    adjacency[v] = [w for w in adjacency[v] if w != u]
    return CaseSpec(
        algorithm=case.algorithm,
        seed=case.seed,
        graph_family=case.graph_family,
        graph_params=dict(case.graph_params),
        algorithm_params=dict(case.algorithm_params),
        adjacency=adjacency,
        ids=list(case.ids) if case.ids else None,
        randomness=list(case.randomness) if case.randomness else None,
    )


def _edges_of(case: CaseSpec) -> List[Tuple[int, int]]:
    return [
        (v, u)
        for v, row in enumerate(case.adjacency)
        for u in row
        if v < u
    ]


def shrink_case(
    contract: Contract,
    case: CaseSpec,
    target_checks: Set[str],
    max_evaluations: int = 400,
) -> ShrinkResult:
    """Reduce ``case`` while at least one ``target_checks`` still fails.

    ``target_checks`` should be the failing case's
    :meth:`~repro.conformance.fuzzer.CaseResult.failed_checks`.
    """
    spent = [0]
    last_failures: List[List[CheckFailure]] = [[]]

    def still_fails(candidate: CaseSpec) -> bool:
        if spent[0] >= max_evaluations:
            return False
        spent[0] += 1
        result = run_case(contract, candidate, checks=set(target_checks))
        hits = [f for f in result.failures if f.check in target_checks]
        if hits:
            last_failures[0] = result.failures
        return bool(hits)

    current = explicit_case(contract, case)
    if not still_fails(current):
        # Not reproducible under the restricted predicate; return as-is.
        return ShrinkResult(
            case=current,
            failures=last_failures[0],
            nodes=len(current.adjacency),
            edges=len(_edges_of(current)),
            evaluations=spent[0],
        )
    best_failures = list(last_failures[0])

    # -- ddmin over nodes ------------------------------------------------
    granularity = 2
    while len(current.adjacency) >= 2 and spent[0] < max_evaluations:
        n = len(current.adjacency)
        granularity = min(granularity, n)
        chunk = max(1, n // granularity)
        reduced = False
        start = 0
        while start < n and spent[0] < max_evaluations:
            keep = [
                v for v in range(n) if not (start <= v < start + chunk)
            ]
            if not keep:
                start += chunk
                continue
            candidate = _project_nodes(current, keep)
            if still_fails(candidate):
                current = candidate
                best_failures = list(last_failures[0])
                n = len(current.adjacency)
                granularity = max(granularity - 1, 2)
                reduced = True
                start = 0
            else:
                start += chunk
        if not reduced:
            if granularity >= n:
                break
            granularity = min(n, granularity * 2)

    # -- greedy single-edge removal -------------------------------------
    progress = True
    while progress and spent[0] < max_evaluations:
        progress = False
        for u, v in _edges_of(current):
            candidate = _drop_edge(current, u, v)
            if still_fails(candidate):
                current = candidate
                best_failures = list(last_failures[0])
                progress = True
                break

    return ShrinkResult(
        case=current,
        failures=best_failures,
        nodes=len(current.adjacency),
        edges=len(_edges_of(current)),
        evaluations=spent[0],
    )


def minimal_repro(
    contract: Contract,
    case: CaseSpec,
    max_evaluations: int = 400,
) -> Optional[ShrinkResult]:
    """Convenience: run, and if the case fails, shrink what failed."""
    result = run_case(contract, case)
    if result.ok:
        return None
    return shrink_case(
        contract,
        case,
        result.failed_checks(),
        max_evaluations=max_evaluations,
    )
