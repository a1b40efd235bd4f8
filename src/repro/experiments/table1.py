"""Table 1: the four complexity classes of homogeneous LCLs, measured.

The paper's Table 1:

    ============== =================== =========================================
    Deterministic  Randomized          Example
    ============== =================== =========================================
    Theta(log n)   Theta(log n)        2-coloring
    Theta(log n)   Theta(log log n)    sinkless orientation
    Theta(log* n)  Theta(log* n)       weak 2-coloring in even-degree graphs
    Theta(1)       Theta(1)            weak 2-coloring in odd-degree graphs
    ============== =================== =========================================

Each row is regenerated by running the corresponding algorithm across a
sweep of balanced regular trees and recording rounds-to-completion plus
a verifier pass.  Randomized columns run the same measurements with
randomized identifier permutations (and, for sinkless orientation, the
random-repair baseline — see EXPERIMENTS.md for the log log n caveat).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..algorithms.naor_stockmeyer import odd_degree_weak_two_coloring
from ..algorithms.sinkless import sinkless_from_pstar, sinkless_random_repair
from ..algorithms.two_coloring import proper_two_coloring
from ..algorithms.weak_coloring import weak_two_coloring_from_ids
from ..graphs.generators import balanced_regular_tree, regular_tree_of_depth_at_least
from ..graphs.graph import Graph
from ..graphs.identifiers import random_permutation_ids, sequential_ids
from ..lcl.catalog import ProperColoring, SinklessOrientation, WeakColoring
from .fitting import GrowthFit, fit_growth

__all__ = ["Table1Row", "Table1Result", "run_table1", "DEFAULT_SIZES"]

#: Default n-sweep targets (actual n snaps to balanced-tree sizes).
DEFAULT_SIZES = (50, 200, 800, 3200, 12800)


@dataclass
class Table1Row:
    """One measured row of Table 1."""

    example: str
    paper_deterministic: str
    paper_randomized: str
    measurements: List[Tuple[int, int]]  # (n, rounds), deterministic IDs
    randomized_measurements: List[Tuple[int, int]]
    all_verified: bool
    fit: Optional[GrowthFit] = None

    def measured_class(self) -> str:
        """The growth class the deterministic series tracks."""
        if self.fit is None:
            return "unfitted"
        return self.fit.best


@dataclass
class Table1Result:
    """All four rows."""

    rows: List[Table1Row] = field(default_factory=list)

    def format_table(self) -> str:
        """A paper-style text rendering with measured columns appended."""
        lines = [
            f"{'example':42s} {'paper det':14s} {'paper rand':16s} "
            f"{'measured rounds':24s} {'fit':9s} {'ok'}"
        ]
        for row in self.rows:
            series = ", ".join(f"{n}:{r}" for n, r in row.measurements)
            lines.append(
                f"{row.example:42s} {row.paper_deterministic:14s} "
                f"{row.paper_randomized:16s} {series:24s} "
                f"{row.measured_class():9s} {row.all_verified}"
            )
        return "\n".join(lines)


def _tree_sweep(delta: int, sizes: Sequence[int]) -> List[Graph]:
    """Balanced delta-regular trees with at least the requested sizes."""
    trees = []
    seen = set()
    for target in sizes:
        tree, _depth = regular_tree_of_depth_at_least(delta, target)
        if tree.n not in seen:
            seen.add(tree.n)
            trees.append(tree)
    return trees


def run_table1(
    sizes: Sequence[int] = DEFAULT_SIZES,
    rng_seed: int = 0,
) -> Table1Result:
    """Measure all four rows and fit their growth classes."""
    rng = random.Random(rng_seed)
    result = Table1Result()
    two_coloring, sinkless, weak_two = ProperColoring(2), SinklessOrientation(), WeakColoring(2)

    # Row 1: 2-coloring — global, Theta(diameter) = Theta(log n) on trees.
    measurements, randomized, verified = [], [], True
    for tree in _tree_sweep(4, sizes):
        out = proper_two_coloring(tree, sequential_ids(tree))
        verified &= not two_coloring.verify(tree, out.colors)
        measurements.append((tree.n, out.rounds))
        out_r = proper_two_coloring(tree, random_permutation_ids(tree, rng))
        randomized.append((tree.n, out_r.rounds))
    result.rows.append(
        Table1Row(
            example="2-coloring",
            paper_deterministic="Theta(log n)",
            paper_randomized="Theta(log n)",
            measurements=measurements,
            randomized_measurements=randomized,
            all_verified=verified,
            fit=fit_growth([n for n, _ in measurements], [r for _, r in measurements]),
        )
    )

    # Row 2: sinkless orientation — deterministic via P*, randomized repair.
    measurements, randomized, verified = [], [], True
    for tree in _tree_sweep(4, sizes):
        det = sinkless_from_pstar(tree, 4, sequential_ids(tree))
        verified &= not sinkless.verify(tree, det.orientation)
        measurements.append((tree.n, det.rounds))
        rand = sinkless_random_repair(tree, random.Random(rng.getrandbits(64)))
        verified &= not sinkless.verify(tree, rand.orientation)
        randomized.append((tree.n, rand.rounds))
    result.rows.append(
        Table1Row(
            example="sinkless orientation",
            paper_deterministic="Theta(log n)",
            paper_randomized="Theta(log log n)",
            measurements=measurements,
            randomized_measurements=randomized,
            all_verified=verified,
            fit=fit_growth([n for n, _ in measurements], [r for _, r in measurements]),
        )
    )

    # Row 3: weak 2-coloring in even-degree graphs — Theta(log* n).
    measurements, randomized, verified = [], [], True
    for tree in _tree_sweep(4, sizes):
        out = weak_two_coloring_from_ids(tree, sequential_ids(tree))
        verified &= not weak_two.verify(tree, out.labels)
        measurements.append((tree.n, out.rounds))
        out_r = weak_two_coloring_from_ids(tree, random_permutation_ids(tree, rng))
        verified &= not weak_two.verify(tree, out_r.labels)
        randomized.append((tree.n, out_r.rounds))
    result.rows.append(
        Table1Row(
            example="weak 2-coloring in even-degree graphs",
            paper_deterministic="Theta(log* n)",
            paper_randomized="Theta(log* n)",
            measurements=measurements,
            randomized_measurements=randomized,
            all_verified=verified,
            fit=fit_growth([n for n, _ in measurements], [r for _, r in measurements]),
        )
    )

    # Row 4: weak 2-coloring in odd-degree graphs — Theta(1).
    measurements, randomized, verified = [], [], True
    for tree in _tree_sweep(3, sizes):
        out = odd_degree_weak_two_coloring(tree, sequential_ids(tree))
        verified &= not weak_two.verify(tree, out.labels)
        measurements.append((tree.n, out.rounds))
        out_r = odd_degree_weak_two_coloring(tree, random_permutation_ids(tree, rng))
        verified &= not weak_two.verify(tree, out_r.labels)
        randomized.append((tree.n, out_r.rounds))
    result.rows.append(
        Table1Row(
            example="weak 2-coloring in odd-degree graphs",
            paper_deterministic="Theta(1)",
            paper_randomized="Theta(1)",
            measurements=measurements,
            randomized_measurements=randomized,
            all_verified=verified,
            fit=fit_growth(
                [n for n, _ in measurements],
                [r for _, r in measurements],
                flatness_tolerance=2.0,
            ),
        )
    )
    return result
