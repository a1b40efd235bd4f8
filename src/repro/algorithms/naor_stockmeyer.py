"""Naor-Stockmeyer: O(1)-round weak 2-coloring in odd-degree graphs.

Table 1's fourth row.  The pipeline:

1. **Order-type labeling** (2 rounds).  Each node labels itself with the
   *order type* of its radius-2 ball: the ball's structure (distances,
   degrees, ports) together with the relative order of the identifiers
   (ranks, not values).  The palette is finite — a function of Delta
   only — and the labeling is computable in 2 rounds.

   Why this is a weak coloring when every degree is odd: a node ``v``
   with odd degree has ``in(v) != out(v)`` under the identifier
   orientation, so its ordered ball is asymmetric; in particular its
   out-children are themselves ordered, and the smaller out-child's
   ball records its sibling *above* it while the larger records the
   sibling *below* — two adjacent nodes cannot all mirror ``v``'s type.
   On even-degree graphs the labeling genuinely fails (e.g. a cycle
   with increasing identifiers is order-homogeneous), which is exactly
   the asymmetry the paper's lower bound exploits; the library's test
   suite checks both directions.

2. **Lemma 2 reduction** (O(log* |palette|) = O_Delta(1) rounds).  The
   weak coloring with constantly many colors feeds
   :mod:`repro.algorithms.weak_coloring`.

The in-degree labeling often quoted as a shortcut is *also* provided
(:func:`in_degree_labeling`) but it is not worst-case correct — a
BFS-ordered balanced tree gives every non-root node in-degree 1 — and
the library keeps it as a documented negative result / ablation.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..graphs.graph import Graph
from .weak_coloring import (
    WeakTwoColoringResult,
    nearest_differing_distance,
    weak_two_coloring_from_weak_coloring,
)

__all__ = [
    "in_degree_labeling",
    "order_type_labeling",
    "is_distance_k_weak",
    "odd_degree_weak_two_coloring",
    "ORDER_TYPE_RADIUS",
]

#: Ball radius of the order-type labeling; radius 2 is what the sibling
#: asymmetry argument needs (an out-child must see its sibling).
ORDER_TYPE_RADIUS = 2

#: Cap on the bit length of encoded order types.  For constant Delta the
#: radius-2 ball description has constant size, so this is a (generous)
#: constant; the encoder asserts it.
ORDER_TYPE_BITS = 1 << 16


def in_degree_labeling(graph: Graph, ids: Sequence[int]) -> Tuple[List[int], int]:
    """In-degrees under the identifier orientation (1 round).

    **Not a worst-case weak coloring**: on a balanced tree with BFS-order
    identifiers every non-root node has in-degree exactly 1.  Kept as a
    baseline and as the negative result motivating order types.
    """
    if len(set(ids)) != graph.n:
        raise ValueError("identifiers must be unique")
    labels = [
        sum(1 for u in graph.neighbors(v) if ids[u] < ids[v]) for v in graph.nodes()
    ]
    return labels, 1


def order_type_labeling(
    graph: Graph, ids: Sequence[int], radius: int = ORDER_TYPE_RADIUS
) -> Tuple[List[int], int]:
    """Order types of radius-``radius`` balls, injectively encoded as ints.

    The type records the canonical ball (distances, degrees, ports) and
    the identifier *ranks*; two nodes get equal labels iff their labeled
    balls are order-isomorphic.  Round cost: ``radius``.

    The key is the one a :func:`~repro.local_model.views.gather_view`
    view gives, ``(distances, degrees, ranks, edges)`` with ball nodes
    numbered in port-order BFS order and edges ``(i, j, port_i, port_j,
    None)`` sorted, built from one cut-off BFS and the adjacency rows.
    The label is the integer of the key's ASCII ``repr``.  Only the ranks
    depend on the identifiers, so the text around them is written once
    per ball shape and each node ``repr``s its rank tuple alone.
    """
    if len(set(ids)) != graph.n:
        raise ValueError("identifiers must be unique")
    adj = graph.adjacency_rows()
    # (distances, degrees, edges) -> the key's text before and after the ranks.
    shape_text = {}
    labels = []
    for v in graph.nodes():
        dist = graph.bfs_distances(v, cutoff=radius)
        order = list(dist)
        local = {x: i for i, x in enumerate(order)}
        # Each induced edge is met from both ends: the smaller local end
        # records its port, the larger end completes the edge tuple.
        first_port = {}
        edges = []
        for i, x in enumerate(order):
            for p, u in enumerate(adj[x]):
                j = local.get(u)
                if j is None:
                    continue
                if i < j:
                    first_port[i, j] = p
                else:
                    edges.append((j, i, first_port[j, i], p, None))
        edges.sort()
        shape = (tuple(dist.values()), tuple([len(adj[x]) for x in order]), tuple(edges))
        text = shape_text.get(shape)
        if text is None:
            distances, degrees, edge_tuple = shape
            text = shape_text[shape] = (
                f"({distances!r}, {degrees!r}, ",
                f", {edge_tuple!r})",
            )
        ball_ids = [ids[x] for x in order]
        rank = [0] * len(order)
        for pos, i in enumerate(sorted(range(len(order)), key=ball_ids.__getitem__)):
            rank[i] = pos
        encoded = int.from_bytes(
            (text[0] + repr(tuple(rank)) + text[1]).encode("ascii"), "big"
        )
        if encoded.bit_length() >= ORDER_TYPE_BITS:
            raise AssertionError(
                "order-type encoding exceeded the constant-size cap; "
                "raise ORDER_TYPE_BITS for this Delta"
            )
        labels.append(encoded)
    return labels, radius


def is_distance_k_weak(graph: Graph, labels: Sequence[int], k: int) -> bool:
    """Whether every node has a differently-labeled node within distance k."""
    adj = graph.adjacency_rows()
    return all(nearest_differing_distance(adj, labels, v, k) is not None for v in graph.nodes())


def odd_degree_weak_two_coloring(
    graph: Graph, ids: Sequence[int]
) -> WeakTwoColoringResult:
    """Weak 2-coloring of an odd-degree graph in O_Delta(1) rounds.

    Parameters
    ----------
    graph:
        Every node must have odd degree.
    ids:
        Unique identifiers.

    Raises
    ------
    ValueError
        If some node has even degree, or (defensively) if the order-type
        labeling fails to be a weak coloring on this instance.
    """
    bad = [v for v in graph.nodes() if graph.degree(v) % 2 == 0]
    if bad:
        raise ValueError(
            f"odd-degree construction requires all degrees odd; node {bad[0]} "
            f"has degree {graph.degree(bad[0])}"
        )
    labels, r0 = order_type_labeling(graph, ids)
    if not is_distance_k_weak(graph, labels, 1):
        raise ValueError(
            "order-type labeling is not a weak coloring on this instance — "
            "this contradicts Naor-Stockmeyer; please report"
        )
    result = weak_two_coloring_from_weak_coloring(
        graph, labels, k=1, c=1 << ORDER_TYPE_BITS
    )
    result.rounds += r0
    result.phase_rounds["order_type"] = r0
    return result
