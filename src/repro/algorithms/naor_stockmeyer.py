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

from itertools import chain
from typing import List, Optional, Sequence, Tuple

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
    _check_ids(graph, ids)
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
    None)`` sorted.  The label is the integer of the key's ASCII
    ``repr``.  Each node runs one cut-off BFS and reads its ball's
    *shape* off the adjacency rows: the degrees, and each port's local
    number (``None`` outside the ball).  The shape fixes the distances,
    degrees and edges, so their text is derived once per shape, and each
    node ``repr``s its rank tuple alone.

    Equal order types share one int: the labels are interned by the key
    ``(shape text, ranks)``, and only a new key is encoded and checked
    against :data:`ORDER_TYPE_BITS`.  A tree with sequential identifiers
    has a few dozen types, so its labels are a few dozen ints, not ``n``.
    """
    _check_ids(graph, ids)
    adj = graph.adjacency_rows()
    row_of = adj.__getitem__
    id_of = ids.__getitem__
    # shape -> the key's text before and after the ranks.
    shape_text = {}
    # (text, ranks) -> the label of that order type.
    label_of = {}
    labels = []
    for v in graph.nodes():
        order = [v]
        local = {v: 0}
        start = 0
        for _ in range(radius):
            end = len(order)
            for i in range(start, end):
                for u in adj[order[i]]:
                    if u not in local:
                        local[u] = len(order)
                        order.append(u)
            if len(order) == end:
                break
            start = end
        rows = list(map(row_of, order))
        # Tuples go through lists: ``tuple()`` of a ``map`` guesses 10
        # slots and resizes, and a resized small tuple is freed into the
        # free list of its new size, where thousands of them would stay.
        shape = (
            tuple([*map(len, rows)]),
            tuple([*map(local.get, chain.from_iterable(rows))]),
        )
        text = shape_text.get(shape)
        if text is None:
            text = shape_text[shape] = _shape_text(*shape)
        ball_ids = list(map(id_of, order))
        ranks = tuple([*map(sorted(ball_ids).index, ball_ids)])
        encoded = label_of.get((text, ranks))
        if encoded is None:
            encoded = int.from_bytes((text[0] + repr(ranks) + text[1]).encode("ascii"), "big")
            if encoded.bit_length() >= ORDER_TYPE_BITS:
                raise AssertionError(
                    "order-type encoding exceeded the constant-size cap; "
                    "raise ORDER_TYPE_BITS for this Delta"
                )
            label_of[text, ranks] = encoded
        labels.append(encoded)
    return labels, radius


def _check_ids(graph: Graph, ids: Sequence[int]) -> None:
    """One identifier per node, no two equal."""
    if len(ids) != graph.n:
        raise ValueError(f"ids has {len(ids)} entries for a graph with {graph.n} nodes")
    if len(set(ids)) != graph.n:
        raise ValueError("identifiers must be unique")


def _shape_text(degrees: Tuple[int, ...], ports: Tuple[Optional[int], ...]) -> Tuple[str, str]:
    """The key's text around the ranks, from a ball's shape.

    ``ports`` lists, row by row in BFS order, each port's local number.
    Ball node 0 is the center, so a BFS over the local rows in index
    order gives the distances.  Each induced edge is met from both ends:
    the smaller local end records its port, the larger end completes the
    edge tuple.
    """
    rows = []
    start = 0
    for degree in degrees:
        rows.append(ports[start:start + degree])
        start += degree
    distances = [0] + [None] * (len(rows) - 1)
    first_port = {}
    edges = []
    for i, row in enumerate(rows):
        for p, j in enumerate(row):
            if j is None:
                continue
            if distances[j] is None:
                distances[j] = distances[i] + 1
            if i < j:
                first_port[i, j] = p
            else:
                edges.append((j, i, first_port[j, i], p, None))
    edges.sort()
    return f"({tuple(distances)!r}, {degrees!r}, ", f", {tuple(edges)!r})"


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
