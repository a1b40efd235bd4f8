"""Local failure probabilities — exact and Monte Carlo.

The paper measures algorithms by their *local failure probability*:

* node algorithms (weak coloring): ``A`` fails at ``v`` when **all**
  neighbors output ``A(v)``'s color (Section 5, "fails locally with
  probability at most p");
* edge algorithms (weak edge coloring): ``A'`` fails at ``v`` when
  every dimension's two incident edges are monochromatic.

On the infinite oriented tree these probabilities are the same at every
node, so one computation suffices.  The exact evaluator exploits the
paper's own conditioning trick (Figures 1-2): given the bits of
``B_t(v)``, the outputs of the neighbors (resp. incident edges) are
*independent*, because their residual views live in disjoint subtrees.
The probability is therefore

    p = E_sigma [ prod_over_branches Pr[branch agrees | sigma] ]

computed with exact rational arithmetic.  When the conditioning space
is too large, a seeded Monte Carlo estimator takes over; its default
seed comes from :func:`repro.core.derive_seed` labeled by the
algorithm's name, the one sha256 seed scheme of the repo, so every
estimate is reproducible from one base seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from ..core.engine import derive_seed
from ..local_model.cache import ball_assignment_key
from .algorithms import Assignment, EdgeAlgorithm, NodeAlgorithm
from .ball import Direction, OrientedBall

__all__ = ["FailureEstimate", "node_local_failure", "edge_local_failure"]


def _default_rng(label: str) -> random.Random:
    """Monte Carlo rng seeded by the core's sha256 label scheme."""
    return random.Random(derive_seed(0, label))


@dataclass
class FailureEstimate:
    """A local failure probability, exact or sampled.

    Attributes
    ----------
    probability:
        The failure probability (a :class:`~fractions.Fraction` when
        exact, a float when sampled).
    exact:
        Whether enumeration was exhaustive.
    samples:
        Monte Carlo sample count (``None`` when exact).
    """

    probability: Any
    exact: bool
    samples: Optional[int] = None

    def as_float(self) -> float:
        """The probability as a plain float."""
        return float(self.probability)


def _enumerate_assignments(values: int, size: int):
    """All assignments of ``size`` nodes with ``values`` choices each."""
    return itertools.product(range(values), repeat=size)


def _conditional_color_distribution(
    evaluate,
    base: Dict[int, int],
    unknown: List[int],
    total_size: int,
    values: int,
) -> Dict[Any, Fraction]:
    """Distribution of ``evaluate(assignment)`` over the unknown nodes.

    ``base`` maps already-fixed positions to values; ``unknown`` lists
    the free positions.  Positions index the evaluator's own ball.
    """
    counts: Dict[Any, int] = {}
    scratch = [0] * total_size
    for pos, val in base.items():
        scratch[pos] = val
    for completion in _enumerate_assignments(values, len(unknown)):
        for pos, val in zip(unknown, completion):
            scratch[pos] = val
        color = evaluate(tuple(scratch))
        counts[color] = counts.get(color, 0) + 1
    total = values ** len(unknown)
    return {color: Fraction(n, total) for color, n in counts.items()}


def _split_positions(
    maps: Dict[Direction, List[int]], known_size: int
) -> Tuple[Dict[Direction, List[Tuple[int, int]]], Dict[Direction, List[int]]]:
    """Split each direction's position map at the conditioning region.

    ``maps[d][pos]`` is the outer-ball index of position ``pos``.
    Returns ``shared[d]``, the ``(pos, outer index)`` pairs inside the
    first ``known_size`` outer positions, and ``beyond[d]``, the
    positions outside them.
    """
    shared = {d: [(p, o) for p, o in enumerate(m) if o < known_size] for d, m in maps.items()}
    beyond = {d: [p for p, o in enumerate(m) if o >= known_size] for d, m in maps.items()}
    return shared, beyond


# ----------------------------------------------------------------------
# Node algorithms
# ----------------------------------------------------------------------
def node_local_failure(
    alg: NodeAlgorithm,
    method: str = "auto",
    exact_cost_limit: int = 1 << 22,
    samples: int = 100_000,
    rng: Optional[random.Random] = None,
) -> FailureEstimate:
    """Probability that all 2k neighbors of a node share its color.

    ``method`` is ``"exact"``, ``"monte_carlo"``, or ``"auto"`` (exact
    when the conditioning enumeration stays below ``exact_cost_limit``
    evaluator calls).
    """
    inner = alg.ball  # B_t(v)
    outer = OrientedBall(alg.k, alg.t + 1)
    values = alg.values
    directions = outer.directions

    center_map = outer.shift_map((), inner)
    # Positions of B_t(v) inside the outer ball are 0..inner.size-1 by
    # construction (BFS word order agrees on the common prefix), so a
    # sigma over the inner ball doubles as the outer-ball prefix.
    if center_map != list(range(inner.size)):
        raise AssertionError("outer ball does not extend inner ball order (bug)")
    neighbor_maps = {d: outer.shift_map((d,), inner) for d in directions}
    shared, beyond = _split_positions(neighbor_maps, inner.size)
    cost = (values ** inner.size) * sum(values ** len(b) for b in beyond.values())
    use_exact = method == "exact" or (method == "auto" and cost <= exact_cost_limit)
    if method not in ("exact", "monte_carlo", "auto"):
        raise ValueError(f"unknown method {method!r}")

    if use_exact:
        # A neighbor's distribution depends only on its direction and the
        # values it shares with B_t(v): enumerate each such pair once.
        memo: Dict[Tuple[Direction, Assignment], Dict[Any, Fraction]] = {}
        fail = Fraction(0)
        for sigma in _enumerate_assignments(values, inner.size):
            center_color = alg.evaluate(sigma)
            prob_all_agree = Fraction(1)
            for d in directions:
                seen = tuple([sigma[o] for _, o in shared[d]])
                dist = memo.get((d, seen))
                if dist is None:
                    base = {pos: sigma[o] for pos, o in shared[d]}
                    dist = memo[d, seen] = _conditional_color_distribution(
                        alg.evaluate, base, beyond[d], inner.size, values
                    )
                prob_all_agree *= dist.get(center_color, Fraction(0))
                if prob_all_agree == 0:
                    break
            fail += prob_all_agree
        fail /= values**inner.size
        return FailureEstimate(probability=fail, exact=True)

    rng = rng or _default_rng(f"node-failure:{alg.name}")
    hits = 0
    for _ in range(samples):
        assignment = tuple(rng.randrange(values) for _ in range(outer.size))
        center_color = alg.evaluate(ball_assignment_key(assignment, center_map))
        if all(
            alg.evaluate(ball_assignment_key(assignment, neighbor_maps[d]))
            == center_color
            for d in directions
        ):
            hits += 1
    return FailureEstimate(probability=hits / samples, exact=False, samples=samples)


# ----------------------------------------------------------------------
# Edge algorithms
# ----------------------------------------------------------------------
def _edge_layouts(alg: EdgeAlgorithm) -> Dict[Tuple[int, int], Tuple[int, List[int]]]:
    """For each incident direction of the center: (dim, outer-index map).

    The map sends each edge-ball position to its index in
    ``OrientedBall(k, r + 1)`` centered at the node under study.
    """
    outer = OrientedBall(alg.k, alg.r + 1)
    layouts: Dict[Tuple[int, int], Tuple[int, List[int]]] = {}
    for direction in outer.directions:
        dim, sign = direction
        ball = alg.balls[dim]
        anchor = () if sign == 1 else (direction,)
        layouts[direction] = (dim, ball.shift_map_from(outer, anchor))
    return layouts


def edge_local_failure(
    alg: EdgeAlgorithm,
    method: str = "auto",
    exact_cost_limit: int = 1 << 22,
    samples: int = 100_000,
    rng: Optional[random.Random] = None,
) -> FailureEstimate:
    """Probability that every dimension is monochromatic at a node.

    The weak-edge-coloring failure event of Section 5 (and its
    k-dimensional generalization from Section 7).
    """
    if method not in ("exact", "monte_carlo", "auto"):
        raise ValueError(f"unknown method {method!r}")
    outer = OrientedBall(alg.k, alg.r + 1)
    known = OrientedBall(alg.k, alg.r)  # B_r(v): the conditioning region
    values = alg.values
    layouts = _edge_layouts(alg)

    shared, beyond = _split_positions(
        {d: emap for d, (_, emap) in layouts.items()}, known.size
    )
    cost = (values**known.size) * sum(values ** len(b) for b in beyond.values())
    use_exact = method == "exact" or (method == "auto" and cost <= exact_cost_limit)

    if use_exact:
        # As for nodes: one enumeration per (direction, shared values).
        memo: Dict[Tuple[Direction, Assignment], Dict[Any, Fraction]] = {}
        fail = Fraction(0)
        for sigma in _enumerate_assignments(values, known.size):
            prob_fail = Fraction(1)
            for dim in range(alg.k):
                dists = []
                for sign in (1, -1):
                    d = (dim, sign)
                    seen = tuple([sigma[o] for _, o in shared[d]])
                    dist = memo.get((d, seen))
                    if dist is None:
                        base = {pos: sigma[o] for pos, o in shared[d]}
                        dist = memo[d, seen] = _conditional_color_distribution(
                            lambda a, _dim=dim: alg.evaluate(_dim, a),
                            base,
                            beyond[d],
                            alg.balls[dim].size,
                            values,
                        )
                    dists.append(dist)
                plus, minus = dists
                agree = sum(
                    (p * minus.get(color, Fraction(0)) for color, p in plus.items()),
                    Fraction(0),
                )
                prob_fail *= agree
                if prob_fail == 0:
                    break
            fail += prob_fail
        fail /= values**known.size
        return FailureEstimate(probability=fail, exact=True)

    rng = rng or _default_rng(f"edge-failure:{alg.name}")
    hits = 0
    for _ in range(samples):
        assignment = tuple(rng.randrange(values) for _ in range(outer.size))
        failed = True
        for dim in range(alg.k):
            colors = []
            for sign in (1, -1):
                dim_, emap = layouts[(dim, sign)]
                colors.append(
                    alg.evaluate(dim_, ball_assignment_key(assignment, emap))
                )
            if colors[0] != colors[1]:
                failed = False
                break
        if failed:
            hits += 1
    return FailureEstimate(probability=hits / samples, exact=False, samples=samples)
