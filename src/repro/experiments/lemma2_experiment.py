"""Lemma 2: the minimality reduction runs in O(1) rounds — measured.

For fixed constants ``(k, c)``, the round count of the
distance-k-weak-c-coloring -> weak-2-coloring pipeline must be
*independent of n*.  The experiment plants synthetic distance-k weak
c-colorings on trees of growing size and records the pipeline's exact
round count, phase by phase; the flat series is the executable content
of "weak 2-coloring is a minimal symmetry-breaking problem".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..algorithms.weak_coloring import weak_two_coloring_from_weak_coloring
from ..graphs.graph import Graph
from ..lcl.catalog import WeakColoring
from .solvers import DEFAULT_SIZES, Series, measure

__all__ = [
    "plant_distance_k_weak_coloring",
    "Lemma2Point",
    "Lemma2Result",
    "run_lemma2",
]


def plant_distance_k_weak_coloring(graph: Graph, k: int, c: int) -> List[int]:
    """A synthetic distance-k weak c-coloring, the same on every call.

    Blocks of a BFS layering get constant colors: layer ``j`` takes
    color ``(j // k) mod c`` — within distance ``k`` of any node there
    is a node in a different block (layers extend both ways), except
    possibly near the extremes, which are patched by recoloring.  The
    result is validated before being returned.
    """
    if c < 2:
        raise ValueError("need at least two colors")
    dist = graph.bfs_distances(0)
    if len(dist) != graph.n:
        raise ValueError("graph must be connected")
    colors = [(dist[v] // k) % c for v in graph.nodes()]
    verifier = WeakColoring(c, distance=k)
    for _ in range(graph.n):
        violations = verifier.verify(graph, colors)
        if not violations:
            return colors
        for violation in violations:
            v = violation.where
            colors[v] = (colors[v] + 1) % c
    raise AssertionError("failed to plant a distance-k weak coloring (bug)")


@dataclass
class Lemma2Point:
    """One (n, rounds) measurement."""

    n: int
    rounds: int
    phase_rounds: Dict[str, int]
    verified: bool


@dataclass
class Lemma2Result:
    """The sweep for one (k, c)."""

    k: int
    c: int
    points: List[Lemma2Point] = field(default_factory=list)

    def rounds_are_constant(self) -> bool:
        rounds = {p.rounds for p in self.points}
        return len(rounds) == 1


def run_lemma2(
    k: int = 2,
    c: int = 4,
    delta: int = 4,
    sizes: Sequence[int] = DEFAULT_SIZES,
    rng_seed: int = 0,
) -> Lemma2Result:
    """Sweep n at fixed (k, c) and record the reduction's round count.

    ``rng_seed`` has no effect: the planted coloring draws nothing, so
    every seed measures the same input per n.  It stays because the
    paper benchmark (``paperbench/child.py``) passes it; ROADMAP item 1
    removes ``lemma2`` from the benchmark's ``SEEDED`` exhibits.
    """
    (reduction,) = measure([
        Series(f"distance-{k} weak {c}-coloring to weak 2-coloring", "O(1)", "tree", delta,
               lambda g, phi: weak_two_coloring_from_weak_coloring(g, phi, k=k, c=c),
               lambda g, _: plant_distance_k_weak_coloring(g, k, c),
               WeakColoring(2), "labels", detail="phase_rounds"),
    ], sizes)
    points = [
        Lemma2Point(n=p.n, rounds=p.rounds, phase_rounds=p.detail, verified=p.verified)
        for p in reduction.points
    ]
    return Lemma2Result(k=k, c=c, points=points)
