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
from typing import List, Optional, Sequence

from ..analysis.independence import (
    claim10_global_success_bound,
    claim10_set_size_bound,
    independent_execution_set,
)
from ..graphs.generators import balanced_regular_tree
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
    """Build S for each t on one balanced oriented tree.

    ``seed_radius`` defaults to 2 rather than the paper's 7 — the
    construction is identical, only the constant changes, and radius 7
    needs trees of depth > 11 (about 10^6 nodes) before the first
    expansion step fits.  Pass ``seed_radius=7`` with ``depth >= 12``
    for the literal construction.
    """
    if delta % 2 != 0:
        raise ValueError("the oriented-tree setting needs even Delta")
    tree = balanced_regular_tree(delta, depth)
    orientation = orient_tree(tree, delta // 2)
    ball_radius = depth - 1  # leaf-free ball
    effective_n = len(tree.bfs_distances(0, cutoff=ball_radius)) ** 3
    result = Claim10Result(
        delta=delta, depth=depth, n=tree.n, seed_radius=seed_radius
    )
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
