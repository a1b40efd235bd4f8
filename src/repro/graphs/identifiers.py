"""Identifier assignment schemes.

The LOCAL model gives nodes unique identifiers from ``{1, ..., n^c}``.
Lower-bound arguments care about *which* assignment the adversary picks:

* :func:`sequential_ids` — IDs exactly ``1..n`` in node order (the paper's
  Theorem 6 holds "even if identifiers are exactly in {1, ..., n}");
* :func:`random_permutation_ids` — a uniformly random bijection onto
  ``1..n`` (the randomized-ID coupling used in Claim 10);
* :func:`sorted_by_bfs_ids` — IDs increase along a BFS order from a root
  (the "nodes placed in increasing order" adversary of Naor-Stockmeyer
  style order-invariance arguments).
"""

from __future__ import annotations

import random
from typing import List, Optional

from .graph import Graph

__all__ = [
    "IdAssignment",
    "sequential_ids",
    "random_permutation_ids",
    "sorted_by_bfs_ids",
]

#: An ID assignment is a plain list: ``ids[v]`` is the identifier of node v.
IdAssignment = List[int]


def sequential_ids(graph: Graph) -> IdAssignment:
    """IDs ``1..n`` in node order."""
    return list(range(1, graph.n + 1))


def random_permutation_ids(graph: Graph, rng: Optional[random.Random] = None) -> IdAssignment:
    """A uniformly random bijection onto ``{1..n}``.

    The list and the draws are those of ``rng.shuffle`` on ``1..n``:
    ``random.Random.shuffle`` swaps position ``i`` (from ``n - 1`` down
    to 1) with ``j <= i``, drawn by rejection from
    ``getrandbits((i + 1).bit_length())``.  Inlining that loop saves a
    Python call per element, and the bit count is worked out once per
    run of positions that share it.  The loop is replayed only when
    ``rng`` draws that way: a subclass that overrides ``random()`` but
    not ``getrandbits()`` gets another ``_randbelow``, and then
    ``rng.shuffle`` itself runs.
    """
    rng = rng or random.Random(0)
    ids = list(range(1, graph.n + 1))
    if getattr(type(rng), "_randbelow", None) is not random.Random._randbelow:
        rng.shuffle(ids)
        return ids
    getrandbits = rng.getrandbits
    top = graph.n - 1
    while top > 0:
        bits = (top + 1).bit_length()
        low = max(1, (1 << (bits - 1)) - 1)
        for i in range(top, low - 1, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            ids[i], ids[j] = ids[j], ids[i]
        top = low - 1
    return ids


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
