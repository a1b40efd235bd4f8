"""Solvers for homogeneous LCLs — the four classes of Theorem 5.

* Class (1), O(1): if a constant label is valid for the inner problem
  inside Delta-regular trees, output it wherever the local view is
  clean and fall back to P* pointer chains wherever an irregularity
  sits within the checking radius (:func:`solve_with_constant_label`).
* Class (2), Theta(log* n): the inner problem reduces to weak
  2-coloring; solve it with the Lemma 2 pipeline
  (:func:`solve_weak2_homogeneous`).
* Classes (3)/(4), Theta(log n): the universal fallback — label *every*
  node with P* via Lemma 17 (:func:`solve_all_pstar`).  Any homogeneous
  LCL accepts an all-P* labeling, which is exactly why O(log n) upper
  bounds every homogeneous problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from ..graphs.graph import Graph
from ..lcl.homogeneous import HomogeneousLabel
from .pointer_solver import solve_pstar, solve_pstar_partial
from .weak_coloring import weak_two_coloring_from_ids

__all__ = [
    "HomogeneousSolution",
    "solve_with_constant_label",
    "solve_weak2_homogeneous",
    "solve_all_pstar",
]


@dataclass
class HomogeneousSolution:
    """A homogeneous labeling plus round accounting."""

    labels: List[Optional[HomogeneousLabel]]
    rounds: int


def solve_with_constant_label(
    graph: Graph,
    delta: int,
    constant_label: Any,
    radius: int,
    ids: Sequence[int],
) -> HomogeneousSolution:
    """Theorem 5 class (1): constant label + P* near irregularities.

    Every node whose ``radius``-ball contains an irregularity gets a P*
    label (Lemma 3); everyone else outputs ``constant_label`` for the
    inner problem.  Runs in O(radius) rounds — constant for constant
    checking radius.
    """
    partial = solve_pstar_partial(graph, delta, radius, ids)
    labels: List[Optional[HomogeneousLabel]] = []
    for v in graph.nodes():
        star = partial.labels[v]
        if star is not None:
            labels.append(HomogeneousLabel.solve_pstar(star))
        else:
            labels.append(HomogeneousLabel.solve_p(constant_label))
    return HomogeneousSolution(labels=labels, rounds=partial.rounds)


def solve_weak2_homogeneous(graph: Graph, ids: Sequence[int]) -> HomogeneousSolution:
    """Theorem 5 class (2): homogeneous weak 2-coloring in Theta(log* n).

    Weak 2-coloring is solvable outright on any graph of minimum degree
    1, so the all-P labeling from the Lemma 2 pipeline is feasible for
    the homogeneous problem with no P* fallback at all.
    """
    result = weak_two_coloring_from_ids(graph, ids)
    labels = [HomogeneousLabel.solve_p(c) for c in result.labels]
    return HomogeneousSolution(labels=labels, rounds=result.rounds)


def solve_all_pstar(graph: Graph, delta: int, ids: Sequence[int]) -> HomogeneousSolution:
    """The universal O(log n) homogeneous solver: every node plays P*."""
    solution = solve_pstar(graph, delta, ids)
    labels = [
        HomogeneousLabel.solve_pstar(lab) if lab is not None else None
        for lab in solution.labels
    ]
    return HomogeneousSolution(labels=labels, rounds=solution.rounds)
