"""Catalog of concrete LCL problems used throughout the paper.

Node problems
-------------
* :class:`WeakColoring` — distance-k weak c-coloring (Definition 1); the
  central object of the paper.  ``WeakColoring(2)`` is weak 2-coloring.
* :class:`ProperColoring` — proper c-coloring (2-coloring is Table 1's
  global row; (Δ+1)-coloring is Section 2.2's running example).
* :class:`MaximalIndependentSet` — independence + domination.

Edge problems
-------------
* :class:`WeakEdgeColoring` — the paper's intermediate problem from
  Section 5 (and its k-dimensional generalization from Section 7): at
  every full-degree node some dimension's two incident edges get
  different colors.
* :class:`SinklessOrientation` — Table 1's exponential-separation row.
* :class:`MaximalMatching` — a classical Θ(log* n) symmetry-breaking
  problem on bounded-degree graphs.

Unlabeled (``None``) nodes/edges: every class documents its policy; the
default is that a missing label is itself a violation, except where the
paper's construction explicitly works with partial labelings.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.registry import register_problem
from ..graphs.graph import Graph, edge_key
from ..graphs.orientation import Orientation
from .problem import EdgeLCL, EdgeLabeling, NodeLCL, NodeLabeling, Violation

__all__ = [
    "WeakColoring",
    "ProperColoring",
    "MaximalIndependentSet",
    "WeakEdgeColoring",
    "SinklessOrientation",
    "ProperEdgeColoring",
    "MaximalMatching",
]


@register_problem("weak-coloring", model="node", params=("colors",))
class WeakColoring(NodeLCL):
    """Distance-k weak c-coloring (Definition 1).

    A labeling ``phi: V -> palette`` such that every node ``v`` has some
    node ``u`` within distance ``k`` with ``phi(u) != phi(v)``.

    Parameters
    ----------
    colors:
        Palette size ``c``.  Labels must come from ``palette``.
    distance:
        The ``k`` of Definition 1 (default 1: plain weak coloring).
    palette:
        Explicit allowed label set; defaults to ``range(colors)``.  Pass
        ``None`` to accept arbitrary hashable labels (used when palettes
        are huge bit-vector spaces, as in the speedup simulation, where
        only *distinctness* matters and the nominal palette size is
        tracked separately).
    """

    def __init__(
        self,
        colors: int,
        distance: int = 1,
        palette: Optional[Iterable[Any]] = (),
    ):
        if colors < 1:
            raise ValueError("palette size must be at least 1")
        if distance < 1:
            raise ValueError("distance must be at least 1")
        self.colors = colors
        self.distance = distance
        if palette == ():
            self.palette: Optional[Set[Any]] = set(range(colors))
        elif palette is None:
            self.palette = None
        else:
            self.palette = set(palette)
            if len(self.palette) != colors:
                raise ValueError("palette size disagrees with colors")
        self.radius = distance
        self.name = f"distance-{distance} weak {colors}-coloring" if distance > 1 else f"weak {colors}-coloring"

    def check_node(
        self,
        graph: Graph,
        labeling: NodeLabeling,
        v: int,
        orientation: Optional[Orientation] = None,
    ) -> Optional[Violation]:
        mine = labeling[v]
        if mine is None:
            return Violation(v, "node is unlabeled")
        if self.palette is not None and mine not in self.palette:
            return Violation(v, f"label {mine!r} outside the {self.colors}-color palette")
        if graph.degree(v) == 0:
            return None  # isolated nodes are vacuously weakly colored
        # At distance 1 the ball, v aside, is v's adjacency row.
        if self.distance == 1:
            ball = graph.adjacency_rows()[v]
        else:
            ball = graph.bfs_distances(v, cutoff=self.distance)
        for u in ball:
            if u != v and labeling[u] is not None and labeling[u] != mine:
                return None
        return Violation(
            v,
            f"all nodes within distance {self.distance} share label {mine!r}",
        )


@register_problem("proper-coloring", model="node", params=("colors",))
class ProperColoring(NodeLCL):
    """Proper c-coloring: adjacent nodes get distinct labels from [c]."""

    def __init__(self, colors: int, palette: Optional[Iterable[Any]] = ()):
        if colors < 1:
            raise ValueError("palette size must be at least 1")
        self.colors = colors
        if palette == ():
            self.palette: Optional[Set[Any]] = set(range(colors))
        elif palette is None:
            self.palette = None
        else:
            self.palette = set(palette)
        self.radius = 1
        self.name = f"proper {colors}-coloring"

    def check_node(
        self,
        graph: Graph,
        labeling: NodeLabeling,
        v: int,
        orientation: Optional[Orientation] = None,
    ) -> Optional[Violation]:
        mine = labeling[v]
        if mine is None:
            return Violation(v, "node is unlabeled")
        if self.palette is not None and mine not in self.palette:
            return Violation(v, f"label {mine!r} outside the {self.colors}-color palette")
        for u in graph.neighbors(v):
            if labeling[u] == mine:
                return Violation(v, f"neighbor {u} has the same color {mine!r}")
        return None


@register_problem("mis", model="node")
class MaximalIndependentSet(NodeLCL):
    """MIS: labels are truthy (in the set) / falsy; independent + dominating."""

    name = "maximal independent set"
    radius = 1

    def check_node(
        self,
        graph: Graph,
        labeling: NodeLabeling,
        v: int,
        orientation: Optional[Orientation] = None,
    ) -> Optional[Violation]:
        mine = labeling[v]
        if mine is None:
            return Violation(v, "node is unlabeled")
        if mine:
            for u in graph.neighbors(v):
                if labeling[u]:
                    return Violation(v, f"adjacent MIS nodes {v} and {u}")
            return None
        if not any(labeling[u] for u in graph.neighbors(v)):
            return Violation(v, "non-MIS node with no MIS neighbor (not maximal)")
        return None


@register_problem("weak-edge-coloring", model="edge", params=("colors",))
class WeakEdgeColoring(EdgeLCL):
    """Weak edge c-coloring on consistently oriented 2k-regular graphs.

    Section 5 (k = 2): for each node, either its U and D edges differ in
    color or its L and R edges do.  Section 7 (general k): for each node
    there exists a dimension ``d`` whose two incident edges have
    different colors.

    Policy for boundary nodes (some dimension missing an edge): by
    default they are *vacuously satisfied* unless ``strict`` is set —
    the paper's setting is the infinite regular tree, where no boundary
    exists, and the speedup machinery only ever measures interior nodes.
    """

    def __init__(self, colors: int, k: int = 2, strict: bool = False):
        if colors < 1:
            raise ValueError("palette size must be at least 1")
        if k < 1:
            raise ValueError("need at least one dimension")
        self.colors = colors
        self.k = k
        self.strict = strict
        self.radius = 1
        self.name = f"weak edge {colors}-coloring (k={k})"

    def check_node(
        self,
        graph: Graph,
        labeling: EdgeLabeling,
        v: int,
        orientation: Optional[Orientation] = None,
    ) -> Optional[Violation]:
        if orientation is None:
            raise ValueError("weak edge coloring requires a consistent orientation")
        slots = orientation.labeled_neighbors(v)
        saw_full_dimension = False
        for dim in range(self.k):
            plus = slots.get((dim, 1))
            minus = slots.get((dim, -1))
            if plus is None or minus is None:
                continue
            saw_full_dimension = True
            c_plus = labeling.get(edge_key(v, plus))
            c_minus = labeling.get(edge_key(v, minus))
            if c_plus is None or c_minus is None:
                return Violation(v, f"dimension {dim} has an unlabeled edge")
            if c_plus != c_minus:
                return None
        if not saw_full_dimension:
            if self.strict:
                return Violation(v, "boundary node with no complete dimension")
            return None
        return Violation(v, "every complete dimension is monochromatic")


@register_problem("sinkless-orientation", model="edge")
class SinklessOrientation(EdgeLCL):
    """Sinkless orientation: labels are head nodes; no node of degree >= 3
    may have all its edges oriented inward.

    The edge label for ``{u, v}`` must be ``u`` or ``v`` (the head).
    Nodes of degree < 3 are unconstrained (the standard formulation, which
    keeps the problem nontrivial exactly on high-degree parts).
    """

    name = "sinkless orientation"
    radius = 1

    def check_node(
        self,
        graph: Graph,
        labeling: EdgeLabeling,
        v: int,
        orientation: Optional[Orientation] = None,
    ) -> Optional[Violation]:
        for u in graph.neighbors(v):
            head = labeling.get(edge_key(u, v))
            if head is None:
                return Violation(v, f"edge to {u} is unoriented")
            if head not in (u, v):
                return Violation(v, f"edge to {u} has head {head!r} not an endpoint")
        if graph.degree(v) < 3:
            return None
        if all(labeling[edge_key(u, v)] == v for u in graph.neighbors(v)):
            return Violation(v, "node of degree >= 3 is a sink")
        return None


@register_problem("proper-edge-coloring", model="edge", params=("colors",))
class ProperEdgeColoring(EdgeLCL):
    """Proper edge c-coloring: edges sharing an endpoint get distinct labels.

    Vizing guarantees ``Delta + 1`` colors exist; the distributed
    classics work with ``2 Delta - 1`` (greedy on the line graph).
    Edge coloring with >= 3 colors is the introduction's example of a
    Theta(log* n) problem on cycles.
    """

    def __init__(self, colors: int):
        if colors < 1:
            raise ValueError("palette size must be at least 1")
        self.colors = colors
        self.radius = 1
        self.name = f"proper edge {colors}-coloring"

    def check_node(
        self,
        graph: Graph,
        labeling: EdgeLabeling,
        v: int,
        orientation: Optional[Orientation] = None,
    ) -> Optional[Violation]:
        seen: Dict[Any, int] = {}
        for u in graph.neighbors(v):
            label = labeling.get(edge_key(u, v))
            if label is None:
                return Violation(v, f"edge to {u} is unlabeled")
            if not 0 <= label < self.colors:
                return Violation(v, f"edge color {label!r} outside the palette")
            if label in seen:
                return Violation(
                    v, f"edges to {seen[label]} and {u} share color {label}"
                )
            seen[label] = u
        return None


@register_problem("maximal-matching", model="edge")
class MaximalMatching(EdgeLCL):
    """Maximal matching: labels truthy (matched) / falsy; matching + maximal."""

    name = "maximal matching"
    radius = 1

    def check_node(
        self,
        graph: Graph,
        labeling: EdgeLabeling,
        v: int,
        orientation: Optional[Orientation] = None,
    ) -> Optional[Violation]:
        matched_ports = []
        for u in graph.neighbors(v):
            lab = labeling.get(edge_key(u, v))
            if lab is None:
                return Violation(v, f"edge to {u} is unlabeled")
            if lab:
                matched_ports.append(u)
        if len(matched_ports) > 1:
            return Violation(v, f"two matched edges at one node: {matched_ports[:2]}")
        if not matched_ports:
            # Maximality: some neighbor must be matched, else {v, u} could join.
            for u in graph.neighbors(v):
                u_matched = any(
                    labeling.get(edge_key(u, w)) for w in graph.neighbors(u)
                )
                if not u_matched:
                    return Violation(
                        v, f"edge to {u} could be added (both endpoints unmatched)"
                    )
        return None
