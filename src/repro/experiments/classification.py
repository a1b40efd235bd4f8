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
from typing import List, Optional, Sequence, Tuple

from ..algorithms.homogeneous_solver import (
    solve_all_pstar,
    solve_weak2_homogeneous,
    solve_with_constant_label,
)
from ..graphs.generators import regular_tree_of_depth_at_least
from ..graphs.identifiers import sequential_ids
from ..lcl.catalog import WeakColoring
from ..lcl.homogeneous import AlwaysAccept, HomogeneousLCL
from .fitting import GrowthFit, fit_growth

__all__ = [
    "ClassRow",
    "ClassificationResult",
    "run_classification",
]


@dataclass
class ClassRow:
    """One Theorem 5 class."""

    label: str
    paper_complexity: str
    measurements: List[Tuple[int, int]]
    all_verified: bool
    fit: Optional[GrowthFit] = None


@dataclass
class ClassificationResult:
    """All measured classes."""

    rows: List[ClassRow] = field(default_factory=list)

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
    sizes: Sequence[int] = (50, 200, 800, 3200),
) -> ClassificationResult:
    """Measure one representative solver per Theorem 5 class."""
    result = ClassificationResult()
    trees = []
    seen = set()
    for target in sizes:
        tree, _ = regular_tree_of_depth_at_least(delta, target)
        if tree.n not in seen:
            seen.add(tree.n)
            trees.append(tree)

    # Class (1): constant label valid inside regular trees.
    h_const = HomogeneousLCL(AlwaysAccept(), delta)
    measurements, ok = [], True
    for tree in trees:
        sol = solve_with_constant_label(tree, delta, "go", radius=1, ids=sequential_ids(tree))
        ok &= h_const.is_feasible(tree, sol.labels)
        measurements.append((tree.n, sol.rounds))
    result.rows.append(
        ClassRow(
            label="(1) constant-label + P* fallback",
            paper_complexity="O(1)",
            measurements=measurements,
            all_verified=ok,
            fit=fit_growth([n for n, _ in measurements], [r for _, r in measurements]),
        )
    )

    # Class (2): homogeneous weak 2-coloring.
    h_weak = HomogeneousLCL(WeakColoring(2), delta)
    measurements, ok = [], True
    for tree in trees:
        sol = solve_weak2_homogeneous(tree, sequential_ids(tree))
        ok &= h_weak.is_feasible(tree, sol.labels)
        measurements.append((tree.n, sol.rounds))
    result.rows.append(
        ClassRow(
            label="(2) homogeneous weak 2-coloring",
            paper_complexity="Theta(log* n)",
            measurements=measurements,
            all_verified=ok,
            fit=fit_growth(
                [n for n, _ in measurements],
                [r for _, r in measurements],
                flatness_tolerance=2.0,
            ),
        )
    )

    # Classes (3)/(4): the universal all-P* upper bound.
    measurements, ok = [], True
    for tree in trees:
        sol = solve_all_pstar(tree, delta, sequential_ids(tree))
        ok &= h_const.is_feasible(tree, sol.labels)  # all-P* satisfies any P_H
        measurements.append((tree.n, sol.rounds))
    result.rows.append(
        ClassRow(
            label="(3)/(4) universal all-P* solver",
            paper_complexity="Theta(log n)",
            measurements=measurements,
            all_verified=ok,
            fit=fit_growth([n for n, _ in measurements], [r for _, r in measurements]),
        )
    )
    return result
