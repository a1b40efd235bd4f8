"""Theorem 5: the four complexity classes of homogeneous LCLs, realized.

One solver per class runs across an n-sweep of balanced Delta-regular
trees; the measured round counts are fitted to growth shapes:

* class (1): constant-label inner problem + P* fallback — O(1);
* class (2): homogeneous weak 2-coloring — Theta(log* n) (constant at
  feasible n; see :mod:`repro.experiments.logstar_sweep` for the log*
  mechanism made visible);
* classes (3)/(4): the universal all-P* solver — Theta(log n).

Every output is verified by the homogeneous verifier, which is the
executable content of "all of the classes are nonempty".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..algorithms.homogeneous_solver import (
    solve_all_pstar,
    solve_weak2_homogeneous,
    solve_with_constant_label,
)
from ..lcl.catalog import WeakColoring
from ..lcl.homogeneous import AlwaysAccept, HomogeneousLCL
from .solvers import DEFAULT_SIZES, Measured, Series, measure, sequential

__all__ = [
    "ClassificationResult",
    "run_classification",
]


@dataclass
class ClassificationResult:
    """All measured classes."""

    rows: List[Measured] = field(default_factory=list)

    def format_table(self) -> str:
        lines = [f"{'class':34s} {'paper':16s} {'measured':30s} {'fit':9s} ok"]
        for row in self.rows:
            series = ", ".join(f"{n}:{r}" for n, r in row.measurements)
            fit = row.fit.best if row.fit else "-"
            lines.append(
                f"{row.label:34s} {row.paper_complexity:16s} {series:30s} "
                f"{fit:9s} {row.all_verified}"
            )
        return "\n".join(lines)


def run_classification(
    delta: int = 4,
    sizes: Sequence[int] = DEFAULT_SIZES,
) -> ClassificationResult:
    """Measure one representative solver per Theorem 5 class."""
    h_const = HomogeneousLCL(AlwaysAccept(), delta)
    return ClassificationResult(measure([
        # Class (1): constant label valid inside regular trees.
        Series("(1) constant-label + P* fallback", "O(1)", "tree", delta,
               lambda g, ids: solve_with_constant_label(g, delta, "go", radius=1, ids=ids),
               sequential, h_const, "labels"),
        # Class (2): homogeneous weak 2-coloring.
        Series("(2) homogeneous weak 2-coloring", "Theta(log* n)", "tree", delta,
               lambda g, ids: solve_weak2_homogeneous(g, ids), sequential,
               HomogeneousLCL(WeakColoring(2), delta), "labels", flatness_tolerance=2.0),
        # Classes (3)/(4): the universal all-P* upper bound, which
        # satisfies any P_H, so the class (1) problem checks it.
        Series("(3)/(4) universal all-P* solver", "Theta(log n)", "tree", delta,
               lambda g, ids: solve_all_pstar(g, delta, ids), sequential, h_const, "labels"),
    ], sizes))
