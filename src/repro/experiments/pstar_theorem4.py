"""Theorem 4: the pointer problem P* is Theta(log_Delta n).

Upper bound (Lemma 17): the solver's radius, swept over balanced trees,
tracks ``log_{Delta-1} n``.

Lower bound (Lemma 18): the indistinguishable pair (T, T').  The two
trees agree on the ball of radius ``depth - 2`` around the center, so
any algorithm running in fewer rounds answers identically on both — yet
on T the center must advertise ``d = 1`` (chains end at leaves) while
on T' every chain ends at a degree-(Delta-1) node, forcing
``d = Delta - 1``.  The experiment constructs the pair and checks the
view-level indistinguishability radius mechanically; that radius is all
it computes.  The two forced values are the lemma's statement, written
into each witness as constants: no algorithm runs on the pair and no
labeling of it is checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..algorithms.pointer_solver import solve_pstar
from ..graphs.generators import lemma18_pair
from ..lcl.pointer import PStar
from ..local_model.views import gather_view
from .fitting import GrowthFit
from .solvers import DEFAULT_SIZES, Series, measure, sequential

__all__ = [
    "PStarUpperPoint",
    "Lemma18Witness",
    "Theorem4Result",
    "run_theorem4",
]


@dataclass
class PStarUpperPoint:
    """One upper-bound measurement."""

    n: int
    radius: int
    rounds: int
    verified: bool


@dataclass
class Lemma18Witness:
    """The indistinguishability evidence for one depth."""

    depth: int
    n: int
    views_equal_radius: int  # largest radius with identical center views
    center_d_on_t: int  # the d-value chains force on T
    center_d_on_t_prime: int  # ... and on T'
    contradiction: bool  # the two forced values differ


@dataclass
class Theorem4Result:
    """Upper-bound sweep + lower-bound witnesses."""

    upper: List[PStarUpperPoint] = field(default_factory=list)
    witnesses: List[Lemma18Witness] = field(default_factory=list)
    fit: Optional[GrowthFit] = None

    def all_verified(self) -> bool:
        return all(p.verified for p in self.upper) and all(
            w.contradiction for w in self.witnesses
        )


def _max_equal_view_radius(t, t_prime, center: int, cap: int) -> int:
    """Largest radius at which the two center views coincide."""
    best = -1
    for radius in range(cap + 1):
        a = gather_view(t, center, radius)
        b = gather_view(t_prime, center, radius)
        if a.key() != b.key():
            break
        best = radius
    return best


def run_theorem4(
    delta: int = 4,
    sizes: Sequence[int] = DEFAULT_SIZES,
    witness_depths: Tuple[int, ...] = (2, 3, 4),
) -> Theorem4Result:
    """Measure the upper bound and build the Lemma 18 witnesses."""
    (upper,) = measure([
        Series("P* solver", "Theta(log n)", "tree", delta,
               lambda g, ids: solve_pstar(g, delta, ids), sequential, PStar(delta), "labels",
               detail="radius"),
    ], sizes)
    result = Theorem4Result(
        upper=[
            PStarUpperPoint(n=p.n, radius=p.detail, rounds=p.rounds, verified=p.verified)
            for p in upper.points
        ],
        fit=upper.fit,
    )
    for depth in witness_depths:
        t, t_prime, center = lemma18_pair(delta, depth)
        equal_radius = _max_equal_view_radius(t, t_prime, center, cap=depth)
        # On T every chain from the center ends at a leaf: d = 1.  On T'
        # the depth-(depth-1) nodes have degree Delta - 1 and cut every
        # chain there: d = Delta - 1.  (Forced values per conditions 2/3/5.)
        result.witnesses.append(
            Lemma18Witness(
                depth=depth,
                n=t.n,
                views_equal_radius=equal_radius,
                center_d_on_t=1,
                center_d_on_t_prime=delta - 1,
                contradiction=(1 != delta - 1) and equal_radius >= depth - 2,
            )
        )
    return result
