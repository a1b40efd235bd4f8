"""Solving the pointer problem P* (Lemma 3 and Lemma 17).

Lemma 3: in time O(r), P* can be solved in the 1-neighborhood of every
node that has an irregularity within distance r.  The algorithm (Section
8.1) makes every such node point toward its preferred irregularity:

* cycles are preferred, closest first, ties by smallest maximum
  identifier; a node *on* its chosen cycle follows the cycle's canonical
  orientation (the smallest-identifier cycle node points toward its
  smaller neighbor, everyone follows), labeled ``d = 0``;
* otherwise the closest low-degree node ``u`` wins (ties: smaller degree,
  then smaller identifier); nodes on the path advertise ``d = deg(u)``,
  except that a path node whose own preference is a cycle forces the
  advertisement down to ``d = 0``.

Lemma 17: every node of a graph of maximum degree Delta sees an
irregularity within O(log_Delta n) — a ball of larger radius with all
degrees Delta and no cycle would exceed n nodes — so growing ``r``
geometrically solves P* everywhere in O(log n) rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..graphs.graph import Graph
from ..lcl.pointer import (
    CycleIrregularity,
    Irregularity,
    LowDegreeIrregularity,
    PStarLabel,
    closest_irregularity,
    degree_delta_cycles,
)

__all__ = ["PStarSolution", "solve_pstar_partial", "solve_pstar"]


@dataclass
class PStarSolution:
    """Outcome of a P* solve.

    Attributes
    ----------
    labels:
        Per-node :class:`PStarLabel`, ``None`` where the radius did not
        reach an irregularity (possible only in the partial solve).
    radius:
        The look-ahead radius ``r`` used.
    rounds:
        Round cost: the algorithm inspects ``B_{2r}(v)`` (the extra ``r``
        is the cycle-diversion check on the path), so ``2 * r``.
    """

    labels: List[Optional[PStarLabel]]
    radius: int
    rounds: int

    def labeled_fraction(self) -> float:
        """Fraction of nodes that received a label."""
        if not self.labels:
            return 1.0
        return sum(1 for x in self.labels if x is not None) / len(self.labels)


def _cycle_pointer(
    cycle: CycleIrregularity, v: int, ids: Sequence[int]
) -> int:
    """Where a node on ``cycle`` points: follow the canonical orientation.

    The cycle node with the smallest identifier points toward its
    smaller-identifier cycle neighbor; every other node continues in the
    same rotational direction.
    """
    nodes = cycle.nodes
    k = len(nodes)
    leader_pos = min(range(k), key=lambda i: ids[nodes[i]])
    succ = nodes[(leader_pos + 1) % k]
    pred = nodes[(leader_pos - 1) % k]
    step = 1 if ids[succ] < ids[pred] else -1
    pos = nodes.index(v)
    return nodes[(pos + step) % k]


def _next_hop_toward(
    graph: Graph, v: int, dist: Dict[int, int], ids: Sequence[int]
) -> int:
    """The smallest-identifier neighbor strictly closer to the target."""
    best: Optional[Tuple[int, int]] = None
    dv = dist[v]
    for u in graph.neighbors(v):
        if dist.get(u, dv) == dv - 1:
            key = (ids[u], u)
            if best is None or key < best:
                best = key
    if best is None:
        raise AssertionError(f"node {v} has no neighbor closer to its target (bug)")
    return best[1]


def _solve_pstar_acyclic(
    graph: Graph, delta: int, r: int, ids: Sequence[int]
) -> PStarSolution:
    """Fast path for graphs with no degree-Delta cycle in range.

    A layered multi-source BFS from the low-degree nodes labels every
    node at once (:func:`_acyclic_labels`, here cut at ``r`` layers).
    """
    labels, _, _ = _acyclic_labels(graph, delta, r, ids)
    return PStarSolution(labels=labels, radius=r, rounds=2 * r)


def _acyclic_labels(
    graph: Graph, delta: int, r: Optional[int], ids: Sequence[int]
) -> Tuple[List[Optional[PStarLabel]], int, int]:
    """The layered BFS of the fast path: labels, layers walked, nodes labeled.

    A node first reached in layer ``d`` takes the least
    ``(degree, identifier, target)`` key over its neighbors in layer
    ``d - 1``; with unit-length edges that is exactly Lemma 3's
    low-degree preference rule ``(distance, degree, identifier)``.  Its
    pointer is the smallest-identifier one of those neighbors that holds
    that key.  Along any pointer chain the winning key's target is
    provably consistent (two adjacent nodes whose best distances differ
    by one share the same best target), so chains carry one ``d`` value
    and terminate at their target.

    The BFS walks at most ``r`` layers past the low-degree nodes, or,
    when ``r`` is None, until its frontier empties; the layers walked are
    then the farthest distance from a low-degree node.
    """
    adj = graph.adjacency_rows()
    n = graph.n
    labels: List[Optional[PStarLabel]] = [None] * n
    # key[x] = (degree, identifier, node) of the target x points toward;
    # None until x is reached.
    key: List[Optional[Tuple[int, int, int]]] = [None] * n
    layer = []
    for u, row in enumerate(adj):
        if len(row) < delta:
            labels[u] = PStarLabel(d=len(row), p=None)
            key[u] = (len(row), ids[u], u)
            layer.append(u)
    labeled, depth = len(layer), 0
    while r is None or depth < r:
        # w -> the least (target key, identifier, node) over w's
        # neighbors in the previous layer: the target, then the hop.
        offers: Dict[int, Tuple[Tuple[int, int, int], int, int]] = {}
        for x in layer:
            offer = (key[x], ids[x], x)
            for w in adj[x]:
                if key[w] is None:
                    best = offers.get(w)
                    if best is None or offer < best:
                        offers[w] = offer
        if not offers:
            break
        depth += 1
        layer = list(offers)
        labeled += len(layer)
        for w, (target, _, hop) in offers.items():
            key[w] = target
            labels[w] = PStarLabel(d=target[0], p=hop)
    return labels, depth, labeled


def solve_pstar_partial(
    graph: Graph,
    delta: int,
    r: int,
    ids: Sequence[int],
) -> PStarSolution:
    """Lemma 3: label all nodes with an irregularity within distance ``r``.

    Nodes whose radius-``r`` surroundings are a clean piece of
    Delta-regular tree stay unlabeled.  The returned labeling is
    P*-happy at every labeled node whose pointer target is labeled —
    which, per Lemma 3, covers the 1-neighborhood of every node within
    distance ``r`` of an irregularity.
    """
    if r < 0:
        raise ValueError("radius must be non-negative")
    n = graph.n
    # Forests cannot contain cycle irregularities; skipping the cycle
    # enumeration keeps the common (tree) case near-linear.
    cycle_free = graph.m == n - len(graph.connected_components())
    cycles = (
        []
        if cycle_free
        else degree_delta_cycles(graph, delta, max_length=2 * r + 1)
    )
    if not cycles:
        return _solve_pstar_acyclic(graph, delta, r, ids)

    irr: List[Optional[Irregularity]] = [
        closest_irregularity(graph, v, delta, r, ids, cycles=cycles) for v in graph.nodes()
    ]

    # Cache multi-source BFS per irregularity target.
    bfs_cache: Dict[Tuple, Dict[int, int]] = {}

    def distances_to(target: Irregularity) -> Dict[int, int]:
        key = (
            ("node", target.node)
            if isinstance(target, LowDegreeIrregularity)
            else ("cycle", target.nodes)
        )
        if key not in bfs_cache:
            if isinstance(target, LowDegreeIrregularity):
                bfs_cache[key] = graph.bfs_distances(target.node)
            else:
                # Multi-source BFS from the cycle nodes.
                from collections import deque

                dist = {u: 0 for u in target.nodes}
                frontier = deque(target.nodes)
                while frontier:
                    x = frontier.popleft()
                    for y in graph.neighbors(x):
                        if y not in dist:
                            dist[y] = dist[x] + 1
                            frontier.append(y)
                bfs_cache[key] = dist
        return bfs_cache[key]

    labels: List[Optional[PStarLabel]] = [None] * n
    for v in graph.nodes():
        deg = graph.degree(v)
        if deg < delta:
            labels[v] = PStarLabel(d=deg, p=None)
            continue
        target = irr[v]
        if target is None:
            continue
        if isinstance(target, CycleIrregularity):
            if v in target.nodes:
                labels[v] = PStarLabel(d=0, p=_cycle_pointer(target, v, ids))
            else:
                dist = distances_to(target)
                labels[v] = PStarLabel(d=0, p=_next_hop_toward(graph, v, dist, ids))
            continue
        # Low-degree target u: walk the canonical path and look for a
        # cycle-preferring node on it (the Lemma 3 diversion rule).
        dist = distances_to(target)
        hop = _next_hop_toward(graph, v, dist, ids)
        diverted = False
        x = hop
        while x != target.node:
            if isinstance(irr[x], CycleIrregularity):
                diverted = True
                break
            x = _next_hop_toward(graph, x, dist, ids)
        d_value = 0 if diverted else target.degree
        labels[v] = PStarLabel(d=d_value, p=hop)

    return PStarSolution(labels=labels, radius=r, rounds=2 * r)


def solve_pstar(graph: Graph, delta: int, ids: Sequence[int]) -> PStarSolution:
    """Lemma 17: solve P* everywhere in O(log_Delta n) rounds.

    On forests the minimal radius is exact: one layered BFS from the
    low-degree nodes runs until its frontier empties, and the layers it
    walked (the farthest any node sits from a low-degree node) are the
    radius.  Cyclic graphs grow the radius geometrically until every
    node is covered.  The geometric growth of degree-Delta tree balls
    guarantees ``r = O(log_Delta n)`` either way, and the radius used is
    reported so callers can chart the measured complexity.
    """
    if graph.m == graph.n - len(graph.connected_components()):  # a forest
        labels, radius, labeled = _acyclic_labels(graph, delta, None, ids)
        if labeled != graph.n:
            raise ValueError(
                f"no node of degree < {delta} exists; an acyclic graph cannot "
                "be Delta-regular, so check the delta argument"
            )
        return PStarSolution(labels=labels, radius=radius, rounds=2 * radius)

    r = 1
    while True:
        solution = solve_pstar_partial(graph, delta, r, ids)
        if all(label is not None for label in solution.labels):
            return solution
        if r > 4 * graph.n:
            raise AssertionError("P* radius exceeded 4n without full coverage (bug)")
        r *= 2
