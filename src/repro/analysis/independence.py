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
from typing import List, Optional, Set, Tuple

from ..graphs.generators import balanced_regular_tree
from ..graphs.graph import Graph
from ..graphs.orientation import Orientation, orient_tree

__all__ = [
    "IndependentSetResult",
    "independent_execution_set",
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
        Radius of the seed sphere (the paper uses 7).
    verify:
        Check all pairwise distances (quadratic; disable for big runs).
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    # Only B_k(v) matters: S and every stride stay inside it.  The max
    # keeps a seed sphere beyond the ball a zero-step run.
    dist_from_center = tree.bfs_distances(
        center, cutoff=max(ball_radius, seed_radius)
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

    def back_direction(u: int) -> Tuple[int, int]:
        """Direction of the first hop from ``u`` toward the center."""
        du = dist_from_center[u]
        for (dim, sign), w in orientation.labeled_neighbors(u).items():
            if dist_from_center.get(w, du) == du - 1:
                return (dim, sign)
        raise AssertionError("no neighbor is closer to the center (bug)")

    collected: List[int] = []
    frontier = seed
    steps = 0
    # The paper caps at floor((k - 7) / (2t+1)) - 1 so that every member's
    # t-ball stays inside B_k(v); subtracting t directly is the same
    # guarantee with one fewer wasted layer on small trees.
    max_steps = max(0, (ball_radius - seed_radius - t) // stride)
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

    verified = False
    if verify and collected:
        verified = True
        for i, a in enumerate(collected):
            dist_a = tree.bfs_distances(a, cutoff=stride - 1)
            for b in collected[i + 1 :]:
                if b in dist_a:
                    raise AssertionError(
                        f"nodes {a} and {b} are at distance {dist_a[b]} < {stride} (bug)"
                    )
    return IndependentSetResult(
        nodes=collected, steps=steps, seed_size=len(seed), verified=verified
    )
