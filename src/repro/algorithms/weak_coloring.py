"""The Lemma 2 reduction: distance-k weak c-coloring  ->  weak 2-coloring.

This is the paper's minimality engine.  Given *any* distance-k weak
c-coloring (constants ``k`` and ``c``), it produces a weak 2-coloring in
O(1) additional rounds:

1. **Distance-parity recoloring** (k rounds).  Each node ``v`` finds the
   distance ``D(v)`` to the closest differently-colored node and outputs
   ``phi'(v) = (phi(v), D(v) mod 2)``.  If ``v`` had no differing
   neighbor, its neighbor ``w`` on the shortest path toward the closest
   differing node has ``D(w) = D(v) - 1``, so the parity bit separates
   them: ``phi'`` is a (distance-1) weak 2c-coloring.
2. **Pseudoforest formation** (1 round).  Each node points at a neighbor
   with a different ``phi'`` (smallest color, then smallest port).
3. **Cole-Vishkin reduction** (O(log* c) rounds).  The proper coloring
   along the pointers is reduced to 3 colors
   (:func:`~repro.algorithms.cole_vishkin.reduce_to_three_colors`).
4. **Greedy MIS** (3 rounds).  Color classes join the independent set in
   turn; the result is an MIS *of the pseudoforest*.
5. **Weak 2-coloring** (0 rounds).  MIS nodes turn black, the rest
   white: every black node's successor is white (independence), every
   white node has a black pseudoforest neighbor (maximality), and all
   pseudoforest edges are graph edges.

The same pipeline run with ``phi = identifiers`` and ``k = 1`` is the
classical Theta(log* n) weak 2-coloring algorithm (Table 1, row 3): the
identifiers are trivially a distance-1 weak n-coloring wherever degrees
are positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..graphs.graph import Graph
from .cole_vishkin import reduce_to_three_colors

__all__ = [
    "WeakTwoColoringResult",
    "distance_parity_recoloring",
    "choose_successors",
    "mis_on_pseudoforest",
    "weak_two_coloring_from_weak_coloring",
    "weak_two_coloring_from_ids",
]

#: Output colors of the final weak 2-coloring.
WHITE, BLACK = 0, 1


@dataclass
class WeakTwoColoringResult:
    """Outcome of the Lemma 2 pipeline.

    Attributes
    ----------
    labels:
        The weak 2-coloring: ``labels[v]`` is ``BLACK`` (MIS member) or
        ``WHITE``.
    rounds:
        Total communication rounds consumed by all phases.
    phase_rounds:
        Per-phase round accounting (keys: ``recolor``, ``pointer``,
        ``cole_vishkin``, ``mis``).
    successor:
        The pseudoforest built in phase 2 (useful for inspection).
    """

    labels: List[int]
    rounds: int
    phase_rounds: Dict[str, int] = field(default_factory=dict)
    successor: Optional[List[int]] = None


def nearest_differing_distance(
    adj: Sequence[Sequence[int]], labels: Sequence, v: int, k: int
) -> Optional[int]:
    """``D(v)``: the distance from ``v`` to the closest node ``u`` with
    ``labels[u] != labels[v]``, or ``None`` if it exceeds ``k``.

    ``adj`` is the graph's adjacency rows.  The search is layer by layer
    and stops at the first layer that holds a differing node; at
    distance 1 it reads ``v``'s row and nothing else.
    """
    if k < 1:
        return None
    mine = labels[v]
    for u in adj[v]:
        if labels[u] != mine:
            return 1
    seen = {v}
    seen.update(adj[v])
    layer = adj[v]
    for d in range(2, k + 1):
        next_layer = []
        for x in layer:
            for u in adj[x]:
                if u not in seen:
                    if labels[u] != mine:
                        return d
                    seen.add(u)
                    next_layer.append(u)
        layer = next_layer
    return None


def distance_parity_recoloring(
    graph: Graph, phi: Sequence[int], k: int
) -> Tuple[List[Tuple[int, int]], int]:
    """Phase 1: ``phi'(v) = (phi(v), D(v) mod 2)``.

    ``D(v)`` is the distance to the closest node with a different
    ``phi``-color; the input must be a distance-k weak coloring, so
    ``D(v) <= k`` — otherwise this raises.

    Returns the new labels and the round cost (``k``).  The pipeline
    keeps each pair as the code ``2 * phi(v) + D(v) mod 2`` instead.
    """
    return [(phi[v], parity) for v, parity in enumerate(_parities(graph, phi, k))], k


def _parities(graph: Graph, phi: Sequence[int], k: int) -> Iterator[int]:
    """``D(v) mod 2`` node by node; raises at the first ``D(v) > k``."""
    adj = graph.adjacency_rows()
    for v in graph.nodes():
        d_best = nearest_differing_distance(adj, phi, v, k)
        if d_best is None:
            raise ValueError(
                f"node {v} has no differing color within distance {k}: "
                "input is not a distance-k weak coloring"
            )
        yield d_best % 2


def _parity_codes(graph: Graph, phi: Sequence[int], k: int) -> List[int]:
    """Phase 1 as the pipeline keeps it: ``2 * phi(v) + D(v) mod 2`` per node.

    Equal codes share one int.
    """
    code_of: Dict[int, int] = {}
    codes = []
    for color, parity in zip(phi, _parities(graph, phi, k)):
        code = 2 * color + parity
        codes.append(code_of.setdefault(code, code))
    return codes


def choose_successors(graph: Graph, labels: Sequence) -> List[int]:
    """Phase 2: point at a differently-labeled neighbor.

    Ties break toward the smallest label, then the smallest port — any
    deterministic local rule works.  Raises if some node has no
    differing neighbor (i.e. the input is not a weak coloring).  The
    labels are phase 1's pairs or their codes, which order alike.
    """
    adj = graph.adjacency_rows()
    successor: List[int] = []
    for v in graph.nodes():
        mine = labels[v]
        best = -1
        # As ``min`` over ``(label, port)`` pairs: a later port wins only
        # with a strictly smaller label, and equal labels never meet ``<``.
        for u in adj[v]:
            label = labels[u]
            if label != mine and (best < 0 or (label != best_label and label < best_label)):
                best, best_label = u, label
        if best < 0:
            raise ValueError(f"node {v} has no differing neighbor: not a weak coloring")
        successor.append(best)
    return successor


def mis_on_pseudoforest(
    successor: Sequence[int], colors3: Sequence[int]
) -> Tuple[List[bool], int]:
    """Phase 4: greedy MIS over the pseudoforest, by color class.

    Runs 3 rounds; in round ``j`` every so-far-undominated node of color
    ``j`` joins.  The 3-coloring is proper on the pseudoforest, so
    joining nodes of one class are pairwise non-adjacent.  A joining
    node blocks its successor, and a node whose successor has joined is
    blocked: between them the two rules cover every pseudoforest edge.
    """
    n = len(successor)
    in_mis = [False] * n
    blocked = [False] * n
    for j in (0, 1, 2):
        joining = [
            v
            for v, color, s in zip(range(n), colors3, successor)
            if color == j and not blocked[v] and not in_mis[s]
        ]
        for v in joining:
            in_mis[v] = True
            blocked[successor[v]] = True
    return in_mis, 3


def weak_two_coloring_from_weak_coloring(
    graph: Graph,
    phi: Sequence[int],
    k: int,
    c: int,
) -> WeakTwoColoringResult:
    """Run the full Lemma 2 pipeline.

    Parameters
    ----------
    graph:
        Any graph of minimum degree >= 1.
    phi:
        A distance-``k`` weak coloring with colors in ``{0, ..., c-1}``.
    k, c:
        Its parameters (both O(1) in the paper's setting; the round
        count returned is ``k + O(log* c)``).

    Raises
    ------
    ValueError
        If ``phi`` does not have one color per node, or is not actually
        a distance-k weak c-coloring.

    Notes
    -----
    Phase 1's pairs ``(phi(v), D(v) mod 2)`` are kept as the codes
    ``2 * phi(v) + D(v) mod 2`` below ``2c``, which order and compare
    exactly as the pairs do; phases 2 and 3 read the codes.  Equal codes
    share one int, so a few distinct colors cost a few ints however
    large they are.
    """
    if len(phi) != graph.n:
        raise ValueError(f"phi has {len(phi)} entries for a graph with {graph.n} nodes")
    if graph.min_degree() < 1:
        raise ValueError("weak 2-coloring needs minimum degree 1")
    if any(not 0 <= phi[v] < c for v in graph.nodes()):
        raise ValueError(f"phi uses colors outside 0..{c - 1}")

    phi_prime = _parity_codes(graph, phi, k)
    r1 = k
    successor = choose_successors(graph, phi_prime)
    r2 = 1

    bits = max(1, (2 * c - 1).bit_length())
    colors3, r3 = reduce_to_three_colors(phi_prime, successor, bits)

    in_mis, r4 = mis_on_pseudoforest(successor, colors3)
    labels = [BLACK if m else WHITE for m in in_mis]
    return WeakTwoColoringResult(
        labels=labels,
        rounds=r1 + r2 + r3 + r4,
        phase_rounds={"recolor": r1, "pointer": r2, "cole_vishkin": r3, "mis": r4},
        successor=successor,
    )


def weak_two_coloring_from_ids(
    graph: Graph, ids: Sequence[int], id_space: Optional[int] = None
) -> WeakTwoColoringResult:
    """The Theta(log* n) weak 2-coloring from identifiers (Table 1, row 3).

    Unique identifiers are a distance-1 weak coloring with palette size
    ``id_space`` (default ``n**2``); the pipeline's Cole-Vishkin phase
    then costs O(log* n) rounds and dominates the running time.
    """
    if len(ids) != graph.n:
        raise ValueError(f"ids has {len(ids)} entries for a graph with {graph.n} nodes")
    if id_space is None:
        id_space = max(graph.n**2, 2)
    if any(not 1 <= i <= id_space for i in ids):
        raise ValueError(f"ids must lie in 1..{id_space}")
    # Shift ids to 0-based colors for the pipeline.
    phi = [i - 1 for i in ids]
    return weak_two_coloring_from_weak_coloring(graph, phi, k=1, c=id_space)
