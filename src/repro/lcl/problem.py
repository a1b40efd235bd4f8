"""Locally checkable labelings (LCLs).

An LCL (Section 2.2) is a constant-size input alphabet, a constant-size
output alphabet, and a local constraint checkable within a constant
radius ``r``.  This module gives the base classes for node-labeled and
edge-labeled LCLs and a uniform violation report, so every problem in the
catalog exposes the same ``verify`` interface and every algorithm in the
library can be checked mechanically.

Labels may be ``None`` meaning "no output here" — partial labelings are
first-class because homogeneous LCLs (Section 3.2) mix two labelings, and
Lemma 3 only labels part of the graph.  Each concrete problem documents
how it treats unlabeled nodes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..graphs.graph import Graph, Edge, edge_key
from ..graphs.orientation import Orientation

__all__ = ["Violation", "NodeLCL", "EdgeLCL", "NodeLabeling", "EdgeLabeling"]

#: A node labeling: one label per node, ``None`` = unlabeled.
NodeLabeling = Sequence[Any]

#: An edge labeling: canonical edge key -> label.
EdgeLabeling = Dict[Edge, Any]


@dataclass(frozen=True)
class Violation:
    """One locally-detected constraint violation.

    Attributes
    ----------
    where:
        The node (or canonical edge key) at which the constraint fails.
    reason:
        Human-readable explanation, phrased in the paper's vocabulary.
    """

    where: Any
    reason: str

    def __str__(self) -> str:
        return f"at {self.where}: {self.reason}"


class NodeLCL(abc.ABC):
    """A node-labeled LCL problem.

    Subclasses implement :meth:`check_node`, which inspects the constant
    radius ``self.radius`` around one node; it stays the single-node
    contract (one call, one node, one verdict).  ``verify`` sweeps all
    nodes through the per-sweep hook :meth:`_checker`, which it calls
    once per sweep and which by default binds ``check_node``.  Work that
    depends on the whole labeling rather than on one ball (projecting a
    mixed labeling, say) is hoisted into an override of the hook, so a
    full check stays O(n * Delta^r).
    """

    #: Problem name used in reports.
    name: str = "lcl"

    #: Checking radius ``r`` of the LCL.
    radius: int = 1

    @abc.abstractmethod
    def check_node(
        self,
        graph: Graph,
        labeling: NodeLabeling,
        v: int,
        orientation: Optional[Orientation] = None,
    ) -> Optional[Violation]:
        """Return a violation at ``v``, or ``None`` if ``v`` is satisfied."""

    def _checker(
        self,
        graph: Graph,
        labeling: NodeLabeling,
        orientation: Optional[Orientation] = None,
    ) -> Callable[[int], Optional[Violation]]:
        """Per-sweep hook: a node -> violation check for one labeling.

        The returned callable must agree with :meth:`check_node` on every
        node of ``graph``.
        """
        return lambda v: self.check_node(graph, labeling, v, orientation)

    def verify(
        self,
        graph: Graph,
        labeling: NodeLabeling,
        orientation: Optional[Orientation] = None,
        nodes: Optional[Iterable[int]] = None,
    ) -> List[Violation]:
        """All violations; restrict the sweep with ``nodes`` if given."""
        if len(labeling) != graph.n:
            raise ValueError(
                f"labeling has {len(labeling)} entries for a graph with {graph.n} nodes"
            )
        sweep = graph.nodes() if nodes is None else nodes
        check = self._checker(graph, labeling, orientation)
        violations = []
        for v in sweep:
            bad = check(v)
            if bad is not None:
                violations.append(bad)
        return violations

    def is_feasible(
        self,
        graph: Graph,
        labeling: NodeLabeling,
        orientation: Optional[Orientation] = None,
        nodes: Optional[Iterable[int]] = None,
    ) -> bool:
        """Whether the labeling satisfies every (selected) node."""
        return not self.verify(graph, labeling, orientation, nodes)


class EdgeLCL(abc.ABC):
    """An edge-labeled LCL problem (constraints may sit on nodes or edges)."""

    name: str = "edge-lcl"
    radius: int = 1

    @abc.abstractmethod
    def check_node(
        self,
        graph: Graph,
        labeling: EdgeLabeling,
        v: int,
        orientation: Optional[Orientation] = None,
    ) -> Optional[Violation]:
        """Return a violation charged to node ``v``, or ``None``."""

    def verify(
        self,
        graph: Graph,
        labeling: EdgeLabeling,
        orientation: Optional[Orientation] = None,
        nodes: Optional[Iterable[int]] = None,
    ) -> List[Violation]:
        """All violations; restrict the sweep with ``nodes`` if given."""
        sweep = graph.nodes() if nodes is None else nodes
        violations = []
        for v in sweep:
            bad = self.check_node(graph, labeling, v, orientation)
            if bad is not None:
                violations.append(bad)
        return violations

    def is_feasible(
        self,
        graph: Graph,
        labeling: EdgeLabeling,
        orientation: Optional[Orientation] = None,
        nodes: Optional[Iterable[int]] = None,
    ) -> bool:
        """Whether the labeling satisfies every (selected) node."""
        return not self.verify(graph, labeling, orientation, nodes)

    @staticmethod
    def label_of(labeling: EdgeLabeling, u: int, v: int) -> Any:
        """Label of the edge ``{u, v}`` (``None`` if absent)."""
        return labeling.get(edge_key(u, v))
