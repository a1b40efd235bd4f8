"""One series table behind every round count.

Table 1, Theorem 4, the Theorem 5 classification, Lemma 2 and the cycle
trichotomy measure a complexity class the same way: sweep n, run a
solver on each graph, verify its output, and fit the rounds against n.
Each of those runners declares its columns as :class:`Series` rows and
reads back the :class:`Measured` columns that :func:`measure` returns.

A row calls its solver through a lambda or a def over a module-level
name, never through a stored function object, so that whatever rebinds
the module-level name (a tracer, a test's plant) sees every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..graphs.generators import balanced_regular_tree_size, cycle, regular_tree_of_depth_at_least
from ..graphs.graph import Graph
from ..graphs.identifiers import random_permutation_ids, sequential_ids
from .fitting import GrowthFit, fit_growth

__all__ = ["DEFAULT_SIZES", "Series", "Point", "Measured", "measure", "sequential", "shuffled",
           "seeded"]

#: The tree runners' n-sweep targets (actual n snaps to balanced-tree sizes).
DEFAULT_SIZES = (50, 200, 800, 3200)


def _tree_size(delta: int, target: int) -> int:
    """Size of the smallest balanced delta-regular tree with ``target`` nodes or more."""
    depth = 0
    while balanced_regular_tree_size(delta, depth) < target:
        depth += 1
    return balanced_regular_tree_size(delta, depth)


def _sweep(family: str, delta: int, sizes: Sequence[int]) -> List[Graph]:
    """The family's graphs for the sizes: snapped, deduplicated, n ascending."""
    if family == "cycle":  # snapped up to even n, where 2-coloring is feasible
        return [cycle(n) for n in sorted({n + n % 2 for n in sizes})]
    snapped = sorted({_tree_size(delta, target) for target in sizes})
    return [regular_tree_of_depth_at_least(delta, n)[0] for n in snapped]


def sequential(graph: Graph, rng: Optional[random.Random]) -> List[int]:
    """Input scheme: identifiers ``1..n`` in node order."""
    return sequential_ids(graph)


def shuffled(graph: Graph, rng: random.Random) -> List[int]:
    """Input scheme: a random permutation of ``1..n`` drawn from ``rng``."""
    return random_permutation_ids(graph, rng)


def seeded(graph: Graph, rng: random.Random) -> random.Random:
    """Input scheme: a generator of its own, seeded by 64 bits drawn from ``rng``."""
    return random.Random(rng.getrandbits(64))


@dataclass(frozen=True)
class Series:
    """One measured column: which graphs, which solver on which input, what checks it.

    ``solve(graph, input)`` returns a result with a ``rounds`` attribute
    and the output in the attribute named ``output``; ``inputs(graph,
    rng)`` makes the input (an identifier scheme above, or a planted
    labeling); ``problem`` verifies the output.  ``detail`` names one
    more result attribute the runner keeps per point.
    """

    label: str
    paper_complexity: str
    family: str  # "tree" or "cycle"
    delta: int
    solve: Callable[[Graph, Any], Any]
    inputs: Callable[[Graph, Optional[random.Random]], Any]
    problem: Any
    output: str
    detail: Optional[str] = None
    flatness_tolerance: float = 1.0


class Point(NamedTuple):
    """One graph of a measured column."""

    n: int
    rounds: int
    verified: bool
    detail: Any = None


@dataclass
class Measured:
    """One column as measured: its label, the paper's class, the points, the fit."""

    label: str
    paper_complexity: str
    points: List[Point]
    flatness_tolerance: float = 1.0

    @cached_property
    def fit(self) -> Optional[GrowthFit]:
        """The growth fit of three or more points, made when first read."""
        if len(self.points) < 3:
            return None
        return fit_growth([p.n for p in self.points], [p.rounds for p in self.points],
                          self.flatness_tolerance)

    @property
    def measurements(self) -> List[Tuple[int, int]]:
        """The ``(n, rounds)`` series."""
        return [(p.n, p.rounds) for p in self.points]

    @property
    def all_verified(self) -> bool:
        """Whether every output passed its verifier."""
        return all(p.verified for p in self.points)


def _point(row: Series, graph: Graph, rng: Optional[random.Random]) -> Point:
    """Run one row on one graph; only the point outlives the solver's result."""
    result = row.solve(graph, row.inputs(graph, rng))
    return Point(
        graph.n,
        result.rounds,
        row.problem.is_feasible(graph, getattr(result, row.output)),
        getattr(result, row.detail) if row.detail else None,
    )


def measure(
    series: Sequence[Series],
    sizes: Sequence[int],
    rng: Optional[random.Random] = None,
) -> List[Measured]:
    """Run every row across its sweep; a column fits its points when its fit is read.

    Each (family, delta) sweep is built once per call: the sizes snap to
    the family's graphs, duplicates go, and n ascends.  It is dropped
    after its last row, so its graphs are freed before the next sweep's
    rows run.  The rows run in order, each graph by graph, so the input
    schemes draw from ``rng`` row by row and graph by graph.
    """
    last_row = {(row.family, row.delta): i for i, row in enumerate(series)}
    sweeps: Dict[Tuple[str, int], List[Graph]] = {}
    columns = []
    for i, row in enumerate(series):
        key = (row.family, row.delta)
        if key not in sweeps:
            sweeps[key] = _sweep(row.family, row.delta, sizes)
        points = [_point(row, graph, rng) for graph in sweeps[key]]
        if i == last_row[key]:
            del sweeps[key]
        columns.append(Measured(row.label, row.paper_complexity, points,
                                row.flatness_tolerance))
    return columns
