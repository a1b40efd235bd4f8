"""Identifier assignment schemes.

The LOCAL model gives nodes unique identifiers from ``{1, ..., n^c}``.
Lower-bound arguments care about *which* assignment the adversary picks:

* :func:`sequential_ids` — IDs exactly ``1..n`` in node order (the paper's
  Theorem 6 holds "even if identifiers are exactly in {1, ..., n}");
* :func:`random_permutation_ids` — a uniformly random bijection onto
  ``1..n`` (the randomized-ID coupling used in Claim 10);
* :func:`random_ids` — independent uniform draws from ``{1..n^c}``
  (may collide; the birthday bound of Claim 10 quantifies how often);
* :func:`sorted_by_bfs_ids` — IDs increase along a BFS order from a root
  (the "nodes placed in increasing order" adversary of Naor-Stockmeyer
  style order-invariance arguments);
* :func:`adversarial_interval_ids` — IDs forming one contiguous run that
  makes comparison-based algorithms see isomorphic ordered neighborhoods.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from .graph import Graph

__all__ = [
    "IdAssignment",
    "sequential_ids",
    "random_permutation_ids",
    "random_ids",
    "sorted_by_bfs_ids",
    "adversarial_interval_ids",
    "validate_ids",
]

#: An ID assignment is a plain list: ``ids[v]`` is the identifier of node v.
IdAssignment = List[int]


def sequential_ids(graph: Graph) -> IdAssignment:
    """IDs ``1..n`` in node order."""
    return list(range(1, graph.n + 1))


def random_permutation_ids(graph: Graph, rng: Optional[random.Random] = None) -> IdAssignment:
    """A uniformly random bijection onto ``{1..n}``."""
    rng = rng or random.Random(0)
    ids = list(range(1, graph.n + 1))
    rng.shuffle(ids)
    return ids


def random_ids(
    graph: Graph, c: int = 2, rng: Optional[random.Random] = None
) -> IdAssignment:
    """Independent uniform draws from ``{1 .. n^c}`` (collisions possible).

    This is the model used in Claim 10's coupling argument: anonymous
    randomized nodes can generate such IDs locally, and they are globally
    unique except with probability at most ``binom(n,2)/n^c``.
    """
    rng = rng or random.Random(0)
    space = max(1, graph.n**c)
    return [rng.randint(1, space) for _ in graph.nodes()]


def sorted_by_bfs_ids(graph: Graph, root: int = 0) -> IdAssignment:
    """IDs increasing along BFS layers from ``root`` (ties by node index).

    On a cycle or path this realizes the "increasing along the cycle"
    adversary that defeats order-invariant algorithms.
    """
    dist = graph.bfs_distances(root)
    if len(dist) != graph.n:
        raise ValueError("graph must be connected for a BFS ID order")
    order = sorted(graph.nodes(), key=lambda v: (dist[v], v))
    ids = [0] * graph.n
    for rank, v in enumerate(order):
        ids[v] = rank + 1
    return ids


def adversarial_interval_ids(graph: Graph, start: int = 1) -> IdAssignment:
    """IDs ``start, start+1, ...`` in node order — a contiguous interval.

    With a contiguous interval every local comparison pattern is realized
    somewhere, which is the worst case for comparison-based (order
    invariant) algorithms.
    """
    if start < 1:
        raise ValueError("identifiers must be positive")
    return [start + v for v in graph.nodes()]


def validate_ids(graph: Graph, ids: IdAssignment, c: Optional[int] = None) -> bool:
    """Whether ``ids`` is a valid assignment: positive, unique, and (if
    ``c`` is given) within ``{1 .. n^c}``."""
    if len(ids) != graph.n:
        return False
    if any(i < 1 for i in ids):
        return False
    if len(set(ids)) != len(ids):
        return False
    if c is not None and any(i > graph.n**c for i in ids):
        return False
    return True
