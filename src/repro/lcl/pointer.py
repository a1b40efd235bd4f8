"""The pointer problem P* (Section 3.2) and irregularity machinery.

In P*, every node ``v`` outputs a number ``0 <= d(v) < Delta`` and a
possibly-empty pointer ``p(v)`` to a neighbor, and is *happy* iff

1. ``deg(v) = Delta``  implies  ``p(v)`` is a neighbor of ``v``;
2. ``deg(v) < Delta``  implies  ``p(v) = ⊥`` and ``d(v) = deg(v)``;
3. ``p(v) = u``        implies  ``d(v) = d(u)``            (consistency);
4. ``p(v) = u``        implies  ``p(u) != v``              (no backtrack);
5. ``p(v) = u``        implies  ``p(u) != ⊥ or deg(u) = d(v)``
   (chains terminate at a node of the advertised degree).

*Irregularities* are nodes of degree < Delta and cycles consisting of
degree-Delta nodes.  The distance from ``v`` to a cycle ``C`` is
``max_{u in C} dist(v, u)`` for even cycles and ``max + 1`` for odd ones
(the paper's convention, which makes the orientation trick of Lemma 3
work out).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..graphs.graph import Graph
from ..graphs.orientation import Orientation
from .problem import NodeLCL, NodeLabeling, Violation

__all__ = [
    "PStarLabel",
    "PStar",
    "LowDegreeIrregularity",
    "CycleIrregularity",
    "Irregularity",
    "enumerate_cycles",
    "degree_delta_cycles",
    "closest_irregularity",
]


@dataclass(frozen=True)
class PStarLabel:
    """A P* output: the advertised degree ``d`` and the pointer ``p``.

    ``p`` is the pointed-to *node* (the paper encodes pointers as port
    numbers; the encodings are in bijection, and node ids keep the
    verifier readable), or ``None`` for the empty pointer ⊥.
    """

    d: int
    p: Optional[int] = None

    def __str__(self) -> str:
        target = "⊥" if self.p is None else str(self.p)
        return f"(d={self.d}, p={target})"


class PStar(NodeLCL):
    """The LCL verifier for P*.

    Parameters
    ----------
    delta:
        The maximum-degree parameter Delta >= 3 of the construction.
    require_all:
        If true (the Theorem 4 setting) unlabeled nodes are violations;
        if false (the Lemma 3 partial setting) unlabeled nodes are
        vacuously fine and only labeled nodes are checked for happiness.
    """

    def __init__(self, delta: int, require_all: bool = True):
        if delta < 3:
            raise ValueError("P* is defined for Delta >= 3")
        self.delta = delta
        self.require_all = require_all
        self.radius = 1
        self.name = f"pointer problem P* (Delta={delta})"

    def check_node(
        self,
        graph: Graph,
        labeling: NodeLabeling,
        v: int,
        orientation: Optional[Orientation] = None,
    ) -> Optional[Violation]:
        label = labeling[v]
        if label is None:
            if self.require_all:
                return Violation(v, "node has no P* label")
            return None
        if not isinstance(label, PStarLabel):
            return Violation(v, f"label {label!r} is not a PStarLabel")
        if not 0 <= label.d < self.delta:
            return Violation(v, f"d={label.d} outside [0, {self.delta})")
        deg = graph.degree(v)
        if deg == self.delta:
            if label.p is None:
                return Violation(v, "degree-Delta node with empty pointer (cond. 1)")
            if label.p not in graph.neighbors(v):
                return Violation(v, f"pointer {label.p} is not a neighbor (cond. 1)")
        else:
            if label.p is not None:
                return Violation(v, "low-degree node with nonempty pointer (cond. 2)")
            if label.d != deg:
                return Violation(
                    v, f"low-degree node advertises d={label.d} != deg={deg} (cond. 2)"
                )
            return None
        u = label.p
        u_label = labeling[u]
        if u_label is None or not isinstance(u_label, PStarLabel):
            return Violation(v, f"pointer target {u} has no P* label")
        if u_label.d != label.d:
            return Violation(
                v, f"pointer chain label mismatch: d(v)={label.d}, d({u})={u_label.d} (cond. 3)"
            )
        if u_label.p == v:
            return Violation(v, f"pointer chain backtracks: p({u}) = {v} (cond. 4)")
        if u_label.p is None and graph.degree(u) != label.d:
            return Violation(
                v,
                f"chain ends at {u} with deg={graph.degree(u)} != d={label.d} (cond. 5)",
            )
        return None


# ----------------------------------------------------------------------
# Irregularities
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LowDegreeIrregularity:
    """A node of degree < Delta."""

    node: int
    degree: int


@dataclass(frozen=True)
class CycleIrregularity:
    """A cycle all of whose nodes have degree Delta.

    ``nodes`` lists the cycle in traversal order, starting at its
    smallest member and continuing toward that member's smaller-id cycle
    neighbor (a canonical form, so equal cycles compare equal).
    """

    nodes: Tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.nodes)


Irregularity = Union[LowDegreeIrregularity, CycleIrregularity]


def _canonical_cycle(nodes: Sequence[int]) -> Tuple[int, ...]:
    """Rotate/reflect a cycle node sequence into canonical form."""
    k = len(nodes)
    start = min(range(k), key=lambda i: nodes[i])
    forward = tuple(nodes[(start + i) % k] for i in range(k))
    backward = tuple(nodes[(start - i) % k] for i in range(k))
    return min(forward, backward)


def enumerate_cycles(
    graph: Graph,
    max_length: int,
    nodes: Optional[Iterable[int]] = None,
    limit: int = 100_000,
) -> List[Tuple[int, ...]]:
    """All simple cycles of length <= ``max_length``, canonicalized.

    Restricted to cycles whose nodes all lie in ``nodes`` when given.
    DFS roots at each candidate smallest-node; intermediate nodes must
    exceed the root, and the reflection duplicate is dropped by requiring
    the second node to be smaller than the last.

    Raises
    ------
    ValueError
        If more than ``limit`` cycles are found (a guard against graphs
        far outside this library's bounded-degree use cases).
    """
    if max_length < 3:
        return []
    allowed: Optional[Set[int]] = None if nodes is None else set(nodes)
    found: List[Tuple[int, ...]] = []

    candidates = graph.nodes() if allowed is None else sorted(allowed)
    for root in candidates:
        # DFS over paths root - x1 - x2 - ... with x_i > root.
        stack: List[Tuple[int, List[int]]] = [(root, [root])]
        while stack:
            v, pathway = stack.pop()
            for u in graph.neighbors(v):
                if allowed is not None and u not in allowed:
                    continue
                if u == root and len(pathway) >= 3:
                    if pathway[1] < pathway[-1]:  # drop the reflected duplicate
                        found.append(_canonical_cycle(pathway))
                        if len(found) > limit:
                            raise ValueError(
                                f"more than {limit} cycles; raise `limit` explicitly"
                            )
                    continue
                if u <= root or u in pathway:
                    continue
                if len(pathway) < max_length:
                    stack.append((u, pathway + [u]))
    return found


def degree_delta_cycles(
    graph: Graph,
    delta: int,
    max_length: int,
    nodes: Optional[Iterable[int]] = None,
    limit: int = 100_000,
) -> List[CycleIrregularity]:
    """Cycle irregularities: cycles consisting only of degree-``delta`` nodes."""
    full = [v for v in (graph.nodes() if nodes is None else nodes) if graph.degree(v) == delta]
    return [
        CycleIrregularity(c)
        for c in enumerate_cycles(graph, max_length, nodes=full, limit=limit)
    ]


def closest_irregularity(
    graph: Graph,
    v: int,
    delta: int,
    r: int,
    ids: Sequence[int],
    cycles: Optional[List[CycleIrregularity]] = None,
) -> Optional[Irregularity]:
    """The closest irregularity to ``v`` within distance ``r`` (Lemma 3's rule).

    Preference order: the closest *cycle*, tie-broken by smallest maximum
    identifier (then by the canonical node tuple); if there are no cycles
    in range, the closest low-degree node, tie-broken by smallest degree
    then smallest identifier.

    Deviation from the paper: cycle closeness uses the distance to the
    *nearest* cycle node, not the paper's max-based convention.  On the
    paper's tree-like instances the two orders coincide (the path to a
    locally-unique cycle shortens all cycle distances at once), and the
    min-based key is *strictly decreasing along pointer paths on any
    graph*, which is what rules out mutually-pointing neighbors
    (condition 4) outside the tree-like regime — dense instances exhibit
    genuine backtracking under the max-based order.  Cycles longer than
    ``2r + 1`` are skipped either way: a node cannot see all of a longer
    cycle within its radius-r view, so it cannot orient it.

    Parameters
    ----------
    cycles:
        Pre-enumerated degree-Delta cycles (as from
        :func:`degree_delta_cycles`); enumerated on demand if omitted.
    """
    if cycles is None:
        cycles = degree_delta_cycles(graph, delta, max_length=2 * r + 1)
    best_cycle: Optional[Tuple[int, int, Tuple[int, ...], CycleIrregularity]] = None
    if cycles:
        dist_v = graph.bfs_distances(v, cutoff=r)
        for c in cycles:
            in_range = [dist_v[u] for u in c.nodes if u in dist_v]
            if not in_range:
                continue
            d = min(in_range)
            max_id = max(ids[u] for u in c.nodes)
            key = (d, max_id, c.nodes)
            if best_cycle is None or key < best_cycle[:3]:
                best_cycle = (d, max_id, c.nodes, c)
    if best_cycle is not None:
        return best_cycle[3]

    ball = graph.bfs_distances(v, cutoff=r)
    best_node: Optional[Tuple[int, int, int, int]] = None
    for u, d in ball.items():
        if graph.degree(u) >= delta:
            continue
        key = (d, graph.degree(u), ids[u], u)
        if best_node is None or key < best_node:
            best_node = key
    if best_node is not None:
        return LowDegreeIrregularity(node=best_node[3], degree=best_node[1])
    return None
