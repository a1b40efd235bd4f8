"""The introduction's cycle trichotomy, measured.

"Distributed symmetry breaking in cycles is nowadays completely
understood": every cycle LCL is (1) trivial — O(1); (2) local —
Theta(log* n); or (3) global — Theta(n).  This experiment exhibits one
representative per class on an n-sweep of cycles:

* trivial: the constant labeling (valid for the always-accept LCL);
* local: proper 3-coloring via Linial's reduction;
* global: proper 2-coloring (needs the whole cycle's parity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import List, Sequence

from ..algorithms.proper_coloring import linial_coloring
from ..algorithms.two_coloring import proper_two_coloring
from ..lcl.catalog import ProperColoring
from ..lcl.homogeneous import AlwaysAccept
from .solvers import Measured, Series, measure, sequential

__all__ = ["CycleTrichotomyResult", "run_cycle_trichotomy"]


@dataclass
class CycleTrichotomyResult:
    """All three classes."""

    rows: List[Measured] = field(default_factory=list)

    def format_table(self) -> str:
        lines = [f"{'class':26s} {'paper':14s} {'measured':32s} {'fit'}"]
        for row in self.rows:
            series = ", ".join(f"{n}:{r}" for n, r in row.measurements)
            fit = row.fit.best if row.fit else "-"
            lines.append(
                f"{row.label:26s} {row.paper_complexity:14s} {series:32s} {fit}"
            )
        return "\n".join(lines)


def run_cycle_trichotomy(
    sizes: Sequence[int] = (16, 64, 256, 1024),
) -> CycleTrichotomyResult:
    """Measure the three classes on even cycles of the given sizes."""
    return CycleTrichotomyResult(measure([
        # (1) trivial: one label everywhere, zero rounds.
        Series("(1) trivial (constant label)", "O(1)", "cycle", 2,
               lambda g, ids: SimpleNamespace(labels=[0] * g.n, rounds=0), sequential,
               AlwaysAccept(), "labels"),
        # (2) local: 3-coloring via Linial.
        Series("(2) local (3-coloring)", "Theta(log* n)", "cycle", 2,
               lambda g, ids: linial_coloring(g, ids), sequential, ProperColoring(3), "colors",
               flatness_tolerance=3.0),
        # (3) global: 2-coloring needs Theta(n) (diameter = n/2 on a cycle).
        Series("(3) global (2-coloring)", "Theta(n)", "cycle", 2,
               lambda g, ids: proper_two_coloring(g, ids), sequential, ProperColoring(2),
               "colors"),
    ], sizes))
