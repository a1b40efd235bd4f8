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
from typing import List, Optional, Sequence, Tuple

from ..algorithms.proper_coloring import linial_coloring
from ..algorithms.two_coloring import proper_two_coloring
from ..graphs.generators import cycle
from ..graphs.identifiers import sequential_ids
from ..lcl.catalog import ProperColoring
from .fitting import GrowthFit, fit_growth

__all__ = ["TrichotomyRow", "CycleTrichotomyResult", "run_cycle_trichotomy"]


@dataclass
class TrichotomyRow:
    """One class of the trichotomy."""

    label: str
    paper_complexity: str
    measurements: List[Tuple[int, int]]
    all_verified: bool
    fit: Optional[GrowthFit] = None


@dataclass
class CycleTrichotomyResult:
    """All three classes."""

    rows: List[TrichotomyRow] = field(default_factory=list)

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
    result = CycleTrichotomyResult()
    graphs = [cycle(n if n % 2 == 0 else n + 1) for n in sizes]

    # (1) trivial: constant output, zero rounds by definition.
    measurements = [(g.n, 0) for g in graphs]
    result.rows.append(
        TrichotomyRow(
            label="(1) trivial (constant label)",
            paper_complexity="O(1)",
            measurements=measurements,
            all_verified=True,
            fit=fit_growth([n for n, _ in measurements], [r for _, r in measurements]),
        )
    )

    # (2) local: 3-coloring via Linial.
    measurements, ok = [], True
    for g in graphs:
        out = linial_coloring(g, sequential_ids(g))
        ok &= ProperColoring(3).is_feasible(g, out.colors)
        measurements.append((g.n, out.rounds))
    result.rows.append(
        TrichotomyRow(
            label="(2) local (3-coloring)",
            paper_complexity="Theta(log* n)",
            measurements=measurements,
            all_verified=ok,
            fit=fit_growth(
                [n for n, _ in measurements],
                [r for _, r in measurements],
                flatness_tolerance=3.0,
            ),
        )
    )

    # (3) global: 2-coloring needs Theta(n) (diameter = n/2 on a cycle).
    measurements, ok = [], True
    for g in graphs:
        out = proper_two_coloring(g, sequential_ids(g))
        ok &= ProperColoring(2).is_feasible(g, out.colors)
        measurements.append((g.n, out.rounds))
    result.rows.append(
        TrichotomyRow(
            label="(3) global (2-coloring)",
            paper_complexity="Theta(n)",
            measurements=measurements,
            all_verified=ok,
            fit=fit_growth([n for n, _ in measurements], [r for _, r in measurements]),
        )
    )
    return result
