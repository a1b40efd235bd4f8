"""Homogeneous LCLs: ``P_H = P ∪ P*`` (Section 3.2).

A homogeneous labeling gives every node *either* a label for the inner
problem P *or* a P* label (a pointer toward an irregularity).  The
verifier accepts at ``v`` iff

* ``v`` has a nonempty P* label and is P*-happy, or
* ``v`` has an empty P* label and P's verifier accepts at ``v``.

P's verifier runs against the *partial* P labeling in which P*-labeled
nodes count as unlabeled — so a node cannot discharge its P constraint
through neighbors that opted out into P*.  This is what makes pointer
chains unable to terminate anywhere except at genuine irregularities.

The two projections (the partial P labeling and the P* labeling) are
built once per sweep, in the per-sweep hook of
:class:`~repro.lcl.problem.NodeLCL`, so ``verify`` costs O(n * Delta^r)
rather than O(n^2); a single ``check_node`` call builds them for its
one node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from ..graphs.graph import Graph
from ..graphs.orientation import Orientation
from .pointer import PStar, PStarLabel
from .problem import NodeLCL, NodeLabeling, Violation

__all__ = ["HomogeneousLabel", "HomogeneousLCL", "AlwaysAccept"]


@dataclass(frozen=True)
class HomogeneousLabel:
    """A P_H output: exactly one of the two parts must be set."""

    p_label: Any = None
    pstar_label: Optional[PStarLabel] = None

    def __post_init__(self) -> None:
        if (self.p_label is None) == (self.pstar_label is None):
            raise ValueError(
                "exactly one of p_label / pstar_label must be set, got "
                f"p_label={self.p_label!r}, pstar_label={self.pstar_label!r}"
            )

    @classmethod
    def solve_p(cls, label: Any) -> "HomogeneousLabel":
        """A node answering the inner problem P."""
        return cls(p_label=label)

    @classmethod
    def solve_pstar(cls, label: PStarLabel) -> "HomogeneousLabel":
        """A node falling back to the pointer problem."""
        return cls(pstar_label=label)


class AlwaysAccept(NodeLCL):
    """The trivially-satisfiable inner problem (any label, even a constant).

    Wrapping it into a homogeneous LCL gives a class-(1) problem of
    Theorem 5: a constant label is valid inside Delta-regular trees, so
    ``P_H`` is solvable in O(1) rounds.
    """

    name = "always-accept"
    radius = 0

    def check_node(
        self,
        graph: Graph,
        labeling: NodeLabeling,
        v: int,
        orientation: Optional[Orientation] = None,
    ) -> Optional[Violation]:
        if labeling[v] is None:
            return Violation(v, "node is unlabeled")
        return None


class HomogeneousLCL(NodeLCL):
    """The Delta-homogeneous LCL ``P_H = P ∪ P*`` for an inner node LCL P."""

    def __init__(self, inner: NodeLCL, delta: int):
        if delta < 3:
            raise ValueError("homogeneous LCLs assume Delta >= 3")
        self.inner = inner
        self.delta = delta
        self.pstar = PStar(delta, require_all=False)
        self.radius = max(inner.radius, 1)
        self.name = f"homogeneous[{inner.name}] (Delta={delta})"

    # ------------------------------------------------------------------
    def _split(
        self, labeling: NodeLabeling
    ) -> "tuple[List[Any], List[Optional[PStarLabel]]]":
        """Project a homogeneous labeling into its P and P* components."""
        p_part: List[Any] = []
        star_part: List[Optional[PStarLabel]] = []
        for label in labeling:
            if label is None:
                p_part.append(None)
                star_part.append(None)
            elif isinstance(label, HomogeneousLabel):
                p_part.append(label.p_label)
                star_part.append(label.pstar_label)
            else:
                raise TypeError(f"expected HomogeneousLabel or None, got {label!r}")
        return p_part, star_part

    def _checker(
        self,
        graph: Graph,
        labeling: NodeLabeling,
        orientation: Optional[Orientation] = None,
    ) -> Callable[[int], Optional[Violation]]:
        """Project the labeling into its P and P* parts once, then dispatch.

        The projection is built lazily, at the first labeled node the
        sweep reaches: a sweep that only meets unlabeled nodes never
        inspects the rest of the labeling, so a foreign label elsewhere
        raises ``TypeError`` exactly when a labeled node is checked.
        """
        branches = None

        def check(v: int) -> Optional[Violation]:
            nonlocal branches
            label = labeling[v]
            if label is None:
                return Violation(v, "node has neither a P nor a P* label")
            if branches is None:
                p_part, star_part = self._split(labeling)
                branches = (
                    self.pstar._checker(graph, star_part, orientation),
                    self.inner._checker(graph, p_part, orientation),
                )
            check_pstar, check_p = branches
            if label.pstar_label is not None:
                bad = check_pstar(v)
                if bad is not None:
                    return Violation(v, f"P* branch: {bad.reason}")
                return None
            bad = check_p(v)
            if bad is not None:
                return Violation(v, f"P branch: {bad.reason}")
            return None

        return check

    def check_node(
        self,
        graph: Graph,
        labeling: NodeLabeling,
        v: int,
        orientation: Optional[Orientation] = None,
    ) -> Optional[Violation]:
        return self._checker(graph, labeling, orientation)(v)
