"""Claim 10's independent-execution construction, executed literally.

To turn a *local* failure probability into a *global* one, Claim 10
plants inside the ball ``B_k(v)`` a large set ``S`` of nodes with
pairwise distance at least ``2t + 1`` — far enough apart that a t-round
algorithm's executions on them are independent.  The construction:

* start from the set ``I`` of nodes at distance exactly 7 from ``v``
  (``4 * 3^6`` of them in the 4-regular tree);
* from each frontier node move ``2t + 1`` hops straight along each of
  the ``Delta - 1`` orientations that do not point back toward ``v``;
* repeat while the new layer stays inside ``B_k(v)``.

This module builds ``S`` on a concrete balanced oriented tree, verifies
the pairwise-distance property, and compares ``|S|`` with the paper's
closed form ``n^(1/(3(2t+1)))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..graphs.graph import Graph
from ..graphs.orientation import Orientation

__all__ = [
    "IndependentSetResult",
    "independent_execution_set",
    "harvest_radius",
    "first_close_pair",
    "claim10_set_size_bound",
    "claim10_global_success_bound",
    "claim10_ball_radius",
]


@dataclass
class IndependentSetResult:
    """Outcome of the Claim 10 construction.

    Attributes
    ----------
    nodes:
        The set ``S`` of pairwise-distant nodes.
    steps:
        Number of expansion steps performed after the seed layer.
    seed_size:
        Size of the seed layer ``I`` (distance-``seed_radius`` sphere).
    verified:
        Whether the pairwise distance >= 2t+1 property was checked.
    """

    nodes: List[int]
    steps: int
    seed_size: int
    verified: bool

    @property
    def size(self) -> int:
        return len(self.nodes)


def claim10_ball_radius(n: int, delta: int) -> float:
    """The paper's ball radius ``k`` for an n-node Delta-regular tree.

    Delta = 4 uses ``k = log_3((n^{1/3} + 1) / 2)``; Section 7 gives the
    general form ``k = log_{Delta-1}((n^{1/3} - 1)(Delta-2)/Delta + 1)``.
    """
    if delta < 3:
        raise ValueError("Claim 10 needs Delta >= 3")
    if delta == 4:
        return math.log((n ** (1 / 3) + 1) / 2, 3)
    return math.log((n ** (1 / 3) - 1) * (delta - 2) / delta + 1, delta - 1)


def claim10_set_size_bound(n: int, t: int) -> float:
    """The closed-form guarantee ``n^{1/(3(2t+1))}`` on ``|S|``."""
    if t < 1:
        raise ValueError("the claim's derivation assumes t >= 1")
    return n ** (1.0 / (3 * (2 * t + 1)))


def claim10_global_success_bound(p: float, n: int, t: int) -> float:
    """Claim 10's global success ceiling ``(1-p)^{n^{1/(3(2t+1))}} + 1/(2 n^{1/3})``."""
    return (1 - p) ** claim10_set_size_bound(n, t) + 1 / (2 * n ** (1 / 3))


def first_close_pair(
    graph: Graph, members: Sequence[int], stride: int
) -> Optional[Tuple[int, int, int]]:
    """The first pair of ``members`` closer than ``stride``, or ``None``.

    Pairs are ordered by the positions ``i < j`` of their members, and the
    answer is ``(members[i], members[j], distance)``.  Such a ``j`` lies
    in the radius-``(stride - 1)`` ball of ``members[i]``, so each member
    intersects its ball with the later members instead of testing every
    pair.  A member listed twice is a pair at distance 0.
    """
    positions: Dict[int, List[int]] = {}
    for j, b in enumerate(members):
        positions.setdefault(b, []).append(j)
    for i, a in enumerate(members):
        dist_a = graph.bfs_distances(a, cutoff=stride - 1)
        later = [j for u in dist_a for j in positions.get(u, ()) if j > i]
        if later:
            b = members[min(later)]
            return a, b, dist_a[b]
    return None


def independent_execution_set(
    tree: Graph,
    orientation: Orientation,
    center: int,
    t: int,
    ball_radius: int,
    seed_radius: int = 7,
    verify: bool = True,
) -> IndependentSetResult:
    """Run the Claim 10 expansion on a concrete oriented tree.

    Parameters
    ----------
    tree:
        A (balanced) regular tree.
    orientation:
        A consistent orientation of it (every interior node has all
        ``2k`` directions).
    center:
        The node ``v`` at which the ball is planted.
    t:
        The round budget of the algorithm under attack; expansion steps
        stride ``2t + 1`` hops.
    ball_radius:
        The ``k`` of the claim: all of ``S`` and the strides stay inside
        ``B_k(center)``.
    seed_radius:
        Radius of the seed sphere (the paper uses 7).  Radius 0 seeds the
        center alone, which expands in all ``2k`` directions.
    verify:
        Check all pairwise distances: one radius-``2t`` ball per member,
        intersected with the later members.

    The BFS from ``center`` stops at radius
    ``max(seed_radius, ball_radius - t)``, not at ``ball_radius``.  That
    is exact on every graph and every orientation whose moves follow
    edges, defective ones included: the seeds sit at distance
    ``seed_radius``, each step walks ``stride`` hops, and at most
    ``max_steps`` steps run, so by the triangle inequality every node a
    walk reaches lies within ``seed_radius + max_steps * stride <=
    ball_radius - t`` of the center.  Every reached node, every frontier
    node and the neighbor it steps back through are therefore in the
    BFS, and the seed sphere keeps its BFS order.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    # Every walk ends within ball_radius - t (see above).  The max keeps
    # a seed sphere beyond that radius a zero-step run.
    dist_from_center = tree.bfs_distances(
        center, cutoff=max(seed_radius, ball_radius - t)
    )
    stride = 2 * t + 1

    seed = [u for u, d in dist_from_center.items() if d == seed_radius]
    if not seed:
        raise ValueError(f"tree too shallow: no nodes at distance {seed_radius}")

    def walk(u: int, direction: Tuple[int, int]) -> Optional[int]:
        """Move ``stride`` hops straight in ``direction``; None if blocked."""
        x = u
        for _ in range(stride):
            nxt = orientation.neighbor(x, *direction)
            if nxt is None:
                return None
            x = nxt
        return x

    def back_direction(u: int) -> Optional[Tuple[int, int]]:
        """Direction of the first hop from ``u`` toward the center.

        The center itself has no way back: from a seed of radius 0 it
        expands in all ``2k`` directions.
        """
        du = dist_from_center[u]
        if du == 0:
            return None
        for (dim, sign), w in orientation.labeled_neighbors(u).items():
            if dist_from_center.get(w, du) == du - 1:
                return (dim, sign)
        raise AssertionError("no neighbor is closer to the center (bug)")

    collected: List[int] = []
    frontier = seed
    steps = 0
    max_steps = _max_steps(t, ball_radius, seed_radius)
    while steps < max_steps:
        new_frontier: List[int] = []
        for u in frontier:
            banned = back_direction(u)
            for dim in range(orientation.k):
                for sign in (1, -1):
                    if (dim, sign) == banned:
                        continue
                    reached = walk(u, (dim, sign))
                    if reached in dist_from_center:  # inside B_k(v)
                        new_frontier.append(reached)
        if not new_frontier:
            break
        collected.extend(new_frontier)
        frontier = new_frontier
        steps += 1

    verified = verify and bool(collected)
    if verified:
        close = first_close_pair(tree, collected, stride)
        if close is not None:
            a, b, d = close
            raise AssertionError(f"nodes {a} and {b} are at distance {d} < {stride} (bug)")
    return IndependentSetResult(
        nodes=collected, steps=steps, seed_size=len(seed), verified=verified
    )


def _max_steps(t: int, ball_radius: int, seed_radius: int) -> int:
    """The expansion steps the harvest for budget ``t`` runs at most."""
    # The paper caps at floor((k - 7) / (2t+1)) - 1 so that every member's
    # t-ball stays inside B_k(v); subtracting t directly is the same
    # guarantee with one fewer wasted layer on small trees.
    return max(0, (ball_radius - seed_radius - t) // (2 * t + 1))


def harvest_radius(ts: Sequence[int], ball_radius: int, seed_radius: int) -> int:
    """The radius around the center that the harvests for ``ts`` walk in.

    The seeds lie at ``seed_radius`` from the center, and the harvest
    for budget ``t`` runs at most ``max_steps`` steps of ``2t + 1`` hops
    each, so by the triangle inequality every node it walks through lies
    within ``seed_radius + max_steps * (2t + 1)`` of the center; the
    nodes it steps back through are closer still.  The largest of these
    radii bounds every harvest of :func:`independent_execution_set`.  A
    budget below 1 walks nowhere: its harvest raises first.
    """
    return max(
        [seed_radius]
        + [
            seed_radius + _max_steps(t, ball_radius, seed_radius) * (2 * t + 1)
            for t in ts
            if t >= 1
        ]
    )
