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
from typing import List, Optional, Sequence, Tuple

from ..algorithms.naor_stockmeyer import odd_degree_weak_two_coloring
from ..algorithms.sinkless import sinkless_from_pstar, sinkless_random_repair
from ..algorithms.two_coloring import proper_two_coloring
from ..algorithms.weak_coloring import weak_two_coloring_from_ids
from ..lcl.catalog import ProperColoring, SinklessOrientation, WeakColoring
from .fitting import GrowthFit
from .solvers import DEFAULT_SIZES, Series, measure, seeded, sequential, shuffled

__all__ = ["Table1Row", "Table1Result", "run_table1"]


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


def run_table1(
    sizes: Sequence[int] = DEFAULT_SIZES,
    rng_seed: int = 0,
) -> Table1Result:
    """Measure all four rows and fit their growth classes.

    Each row is two series on the same trees: sequential identifiers (the
    deterministic column, which the fit reads), then a random draw.
    """
    two_coloring, sinkless, weak_two = ProperColoring(2), SinklessOrientation(), WeakColoring(2)
    color = lambda g, ids: proper_two_coloring(g, ids)
    weak_even = lambda g, ids: weak_two_coloring_from_ids(g, ids)
    weak_odd = lambda g, ids: odd_degree_weak_two_coloring(g, ids)
    even, odd = "weak 2-coloring in even-degree graphs", "weak 2-coloring in odd-degree graphs"
    columns = measure([
        # Row 1: 2-coloring — global, Theta(diameter) = Theta(log n) on trees.
        Series("2-coloring", "Theta(log n)", "tree", 4, color, sequential, two_coloring, "colors"),
        Series("2-coloring", "Theta(log n)", "tree", 4, color, shuffled, two_coloring, "colors"),
        # Row 2: sinkless orientation — deterministic via P*, randomized repair.
        Series("sinkless orientation", "Theta(log n)", "tree", 4,
               lambda g, ids: sinkless_from_pstar(g, 4, ids), sequential, sinkless, "orientation"),
        Series("sinkless orientation", "Theta(log log n)", "tree", 4,
               lambda g, rng: sinkless_random_repair(g, rng), seeded, sinkless, "orientation"),
        # Row 3: weak 2-coloring in even-degree graphs — Theta(log* n).
        Series(even, "Theta(log* n)", "tree", 4, weak_even, sequential, weak_two, "labels"),
        Series(even, "Theta(log* n)", "tree", 4, weak_even, shuffled, weak_two, "labels"),
        # Row 4: weak 2-coloring in odd-degree graphs — Theta(1).
        Series(odd, "Theta(1)", "tree", 3, weak_odd, sequential, weak_two, "labels",
               flatness_tolerance=2.0),
        Series(odd, "Theta(1)", "tree", 3, weak_odd, shuffled, weak_two, "labels"),
    ], sizes, random.Random(rng_seed))
    return Table1Result([
        Table1Row(
            example=deterministic.label,
            paper_deterministic=deterministic.paper_complexity,
            paper_randomized=randomized.paper_complexity,
            measurements=deterministic.measurements,
            randomized_measurements=randomized.measurements,
            all_verified=deterministic.all_verified and randomized.all_verified,
            fit=deterministic.fit,
        )
        for deterministic, randomized in zip(columns[::2], columns[1::2])
    ])
