"""Exact (centralized) solvers for small instances.

The LOCAL model solves everything in O(n) rounds by gathering the whole
graph and brute-forcing; this module is that brute force, used as a
ground-truth oracle in tests and experiments:

* :func:`find_feasible_labeling` — backtracking search for a node
  labeling satisfying a :class:`~repro.lcl.problem.NodeLCL`;
* :func:`exists_feasible` — decision version;
* :func:`count_feasible` — counting version (exponential; tiny inputs).

The searcher re-checks only the ball of the most recently assigned node,
so it prunes correctly for any LCL whose ``check_node`` is monotone
under extension of partial labelings when unlabeled nodes are treated
permissively — which holds for every catalog problem when
``partial=True`` style checks pass.  For safety a full verify runs on
every returned labeling.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from ..graphs.graph import Graph
from ..graphs.orientation import Orientation
from ..lcl.problem import NodeLCL

__all__ = ["find_feasible_labeling", "exists_feasible", "count_feasible"]


def _violates_locally(
    lcl: NodeLCL,
    graph: Graph,
    labeling: List[Any],
    v: int,
    orientation: Optional[Orientation],
) -> bool:
    """Whether the ball of ``v`` already contains a *definitive* violation.

    Only nodes whose entire checking ball is labeled are tested — a
    partial neighborhood may still be completed into a feasible one.
    """
    for u in graph.bfs_distances(v, cutoff=lcl.radius):
        ball_u = graph.bfs_distances(u, cutoff=lcl.radius)
        if any(labeling[w] is None for w in ball_u):
            continue
        if lcl.check_node(graph, labeling, u, orientation) is not None:
            return True
    return False


def find_feasible_labeling(
    graph: Graph,
    lcl: NodeLCL,
    palette: Sequence[Any],
    orientation: Optional[Orientation] = None,
    node_order: Optional[Sequence[int]] = None,
) -> Optional[List[Any]]:
    """A feasible labeling of ``graph`` for ``lcl``, or ``None``.

    Parameters
    ----------
    palette:
        Candidate labels tried at each node, in order.
    node_order:
        Assignment order (defaults to a BFS order, which keeps the
        frontier compact and pruning effective).
    """
    n = graph.n
    if node_order is None:
        dist = graph.bfs_distances(0) if n else {}
        if len(dist) == n:  # connected
            node_order = sorted(graph.nodes(), key=dist.__getitem__)
        else:
            node_order = list(graph.nodes())
    labeling: List[Any] = [None] * n

    def backtrack(idx: int) -> bool:
        if idx == len(node_order):
            return lcl.is_feasible(graph, labeling, orientation)
        v = node_order[idx]
        for label in palette:
            labeling[v] = label
            if not _violates_locally(lcl, graph, labeling, v, orientation):
                if backtrack(idx + 1):
                    return True
            labeling[v] = None
        return False

    if backtrack(0):
        return labeling
    return None


def exists_feasible(
    graph: Graph,
    lcl: NodeLCL,
    palette: Sequence[Any],
    orientation: Optional[Orientation] = None,
) -> bool:
    """Whether any feasible labeling exists."""
    return find_feasible_labeling(graph, lcl, palette, orientation) is not None


def count_feasible(
    graph: Graph,
    lcl: NodeLCL,
    palette: Sequence[Any],
    orientation: Optional[Orientation] = None,
    limit: int = 1_000_000,
) -> int:
    """Number of feasible labelings (exponential — tiny graphs only)."""
    n = graph.n
    labeling: List[Any] = [None] * n
    count = 0

    def backtrack(v: int) -> None:
        nonlocal count
        if count >= limit:
            return
        if v == n:
            if lcl.is_feasible(graph, labeling, orientation):
                count += 1
            return
        for label in palette:
            labeling[v] = label
            if not _violates_locally(lcl, graph, labeling, v, orientation):
                backtrack(v + 1)
            labeling[v] = None

    backtrack(0)
    return count
