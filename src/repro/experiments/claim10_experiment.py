"""Claim 10: counting independent executions inside a ball.

Runs the expansion construction on concrete balanced oriented trees for
a sweep of round budgets ``t`` and compares the harvested set sizes
against the closed-form guarantee ``n^{1/(3(2t+1))}`` (with the
effective ``n = |B_k(v)|^3`` the claim's calibration implies).  Also
evaluates the end-to-end global success ceiling for given local failure
probabilities — the amplification step that feeds Lemma 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..analysis.independence import (
    claim10_global_success_bound,
    claim10_set_size_bound,
    harvest_radius,
    independent_execution_set,
)
from ..graphs.generators import balanced_regular_tree, balanced_regular_tree_size
from ..graphs.orientation import orient_tree

__all__ = ["Claim10Point", "Claim10Result", "run_claim10"]


@dataclass
class Claim10Point:
    """One (t, |S|) measurement."""

    t: int
    set_size: int
    effective_n: int
    closed_form_bound: float
    in_regime: bool  # the tree was deep enough for at least one expansion
    bound_holds: bool
    pairwise_verified: bool
    global_success_ceiling_at_p01: float


@dataclass
class Claim10Result:
    """The sweep for one tree."""

    delta: int
    depth: int
    n: int
    seed_radius: int
    points: List[Claim10Point] = field(default_factory=list)

    def all_bounds_hold(self) -> bool:
        """Every in-regime point meets its bound, and at least one is in regime.

        An out-of-regime point (the tree too shallow for one expansion
        step) holds vacuously, so a sweep made only of those shows nothing.
        """
        return any(p.in_regime for p in self.points) and all(
            p.bound_holds for p in self.points
        )


def run_claim10(
    delta: int = 4,
    depth: int = 10,
    ts: Sequence[int] = (1, 2, 3),
    seed_radius: int = 2,
    verify_pairwise: bool = True,
) -> Claim10Result:
    """Build S for each t inside the ball ``B_{depth-1}(0)`` of a balanced oriented tree.

    The claim plants S inside ``B_k(v)`` with ``k = depth - 1``, the
    leaf-free ball, and the closed form reads that ball's size.  The
    harvests read less: only ``B_R(0)`` is built, with ``R = min(depth,
    max(seed_radius, max over ts of seed_radius + max_steps * (2t +
    1)))``, where ``max_steps`` is the step cap of the harvest for
    budget ``t`` (:func:`~repro.analysis.independence.harvest_radius`).
    The balanced tree of depth ``R`` is ``B_R(0)`` of the
    depth-``depth`` tree, node for node and port for port, and
    :func:`~repro.graphs.orientation.orient_tree` gives its edges the
    same slots.  That is exact:

    * every node a harvest walks through or steps back through lies
      within ``R`` of the centre, and the harvest's BFS from the centre
      gives those nodes the same distances and the seed sphere the same
      order;
    * in a tree the path between two nodes of ``B_R(0)`` stays inside
      ``B_R(0)``, so :func:`~repro.analysis.independence.first_close_pair`
      sees the same members at the same distances.

    A seed sphere beyond that radius still gets built (up to ``depth``),
    so it stays a zero-step run.  :attr:`Claim10Result.n` is the size of
    the depth-``depth`` tree the ball sits in, and ``effective_n`` is
    ``|B_k(0)|^3`` whatever is built.

    ``seed_radius`` defaults to 2 rather than the paper's 7 — the
    construction is identical, only the constant changes, and radius 7
    needs trees of depth > 11 (about 10^6 nodes) before the first
    expansion step fits.  Pass ``seed_radius=7`` with ``depth >= 12``
    for the literal construction.  ``verify_pairwise`` checks every
    harvested pair against the ``2t + 1`` distance; that check costs
    one radius-``2t`` ball per member of S.
    """
    if delta % 2 != 0:
        raise ValueError("the oriented-tree setting needs even Delta")
    n = balanced_regular_tree_size(delta, depth)
    ball_radius = depth - 1  # leaf-free ball
    tree = balanced_regular_tree(
        delta, min(depth, harvest_radius(ts, ball_radius, seed_radius))
    )
    orientation = orient_tree(tree, delta // 2)
    # |B_k(0)|; at depth 0 the ball (radius -1) is the lone root.
    effective_n = balanced_regular_tree_size(delta, max(ball_radius, 0)) ** 3
    result = Claim10Result(delta=delta, depth=depth, n=n, seed_radius=seed_radius)
    for t in ts:
        harvest = independent_execution_set(
            tree,
            orientation,
            center=0,
            t=t,
            ball_radius=ball_radius,
            seed_radius=seed_radius,
            verify=verify_pairwise,
        )
        bound = claim10_set_size_bound(effective_n, t)
        in_regime = harvest.steps >= 1
        result.points.append(
            Claim10Point(
                t=t,
                set_size=harvest.size,
                effective_n=effective_n,
                closed_form_bound=bound,
                in_regime=in_regime,
                bound_holds=(not in_regime) or harvest.size >= bound,
                pairwise_verified=harvest.verified,
                global_success_ceiling_at_p01=claim10_global_success_bound(
                    0.1, effective_n, t
                ),
            )
        )
    return result
