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

computed with exact rational arithmetic.  What a branch shares with
``sigma`` is its ball placed in the conditioning ball (``B_t(v)``, resp.
``B_r(v)``) by :meth:`~repro.speedup.ball.OrientedBall.overlap`; the
rest of its ball is hidden and enumerated.  When the conditioning space
is too large, a seeded Monte Carlo estimator takes over; its default
seed comes from :func:`repro.core.derive_seed` labeled by the
algorithm's name, the one sha256 seed scheme of the repo, so every
estimate is reproducible from one base seed.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.engine import derive_seed
from .algorithms import Assignment, EdgeAlgorithm, NodeAlgorithm
from .ball import Direction, OrientedBall, ball_assignment_key, low_endpoint

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


#: Keys per :func:`color_counts` batch: the memo answers a batch in one
#: pass, and a batch bounds the memory of an enumeration of any size.
_BATCH = 1 << 12


def color_counts(
    evaluate_many, size: int, fixed: Iterable[Tuple[int, Any]], values: int
) -> Counter:
    """How often ``evaluate_many`` outputs each color over the free positions.

    Keys have ``size`` positions.  ``fixed`` lists ``(position, value)``
    pairs; every other position ranges over ``range(values)``.  One
    ``itertools.product`` spells each key whole, the last free position
    varying fastest, and the counts stay integers: callers divide once.
    Every exact failure and every frequent color set is built on them.

    ``evaluate_many`` maps a list of keys to their colors in order (an
    algorithm's ``evaluate_many``).  It is handed the enumeration in
    batches of at most ``_BATCH`` keys, so the memo sees every key in
    product order and no more than one batch is held at a time.
    """
    choices: List[Any] = [range(values)] * size
    for pos, val in fixed:
        choices[pos] = (val,)
    keys = itertools.product(*choices)
    counts: Counter = Counter()
    for batch in iter(lambda: list(itertools.islice(keys, _BATCH)), []):
        counts.update(evaluate_many(batch))
    return counts


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
    if method not in ("exact", "monte_carlo", "auto"):
        raise ValueError(f"unknown method {method!r}")
    inner = alg.ball  # B_t(v): the conditioning region
    values = alg.values
    directions = inner.directions
    # Each neighbor's B_t placed in B_t(v); the rest of it is hidden.
    shared = {d: inner.overlap((d,), inner) for d in directions}
    hidden = [inner.size - len(pairs) for pairs in shared.values()]
    cost = (values ** inner.size) * sum(values**h for h in hidden)
    use_exact = method == "exact" or (method == "auto" and cost <= exact_cost_limit)

    if use_exact:
        # A neighbor's color counts depend only on its direction and the
        # values it shares with B_t(v): count each such pair once.  Each
        # direction's counts run over values**hidden completions, so the
        # integer products share one denominator.
        memo: Dict[Tuple[Direction, Assignment], Counter] = {}
        hits = 0
        for sigma in _enumerate_assignments(values, inner.size):
            center_color = alg.evaluate(sigma)
            all_agree = 1
            for d in directions:
                seen = tuple([sigma[o] for _, o in shared[d]])
                counts = memo.get((d, seen))
                if counts is None:
                    counts = memo[d, seen] = color_counts(
                        alg.evaluate_many,
                        inner.size,
                        [(pos, sigma[o]) for pos, o in shared[d]],
                        values,
                    )
                all_agree *= counts[center_color]
                if all_agree == 0:
                    break
            hits += all_agree
        free = inner.size + sum(hidden)
        return FailureEstimate(probability=Fraction(hits, values**free), exact=True)

    outer = OrientedBall(alg.k, alg.t + 1)
    center_map = outer.shift_map((), inner)
    neighbor_maps = {d: outer.shift_map((d,), inner) for d in directions}
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
    known = OrientedBall(alg.k, alg.r)  # B_r(v): the conditioning region
    values = alg.values
    directions = known.directions
    # Each incident edge's ball, read from its low endpoint, placed in
    # B_r(v); the rest of it is hidden.
    shared = {d: known.overlap(low_endpoint(d), alg.balls[d[0]]) for d in directions}
    hidden = [alg.balls[d[0]].size - len(shared[d]) for d in directions]
    cost = (values**known.size) * sum(values**h for h in hidden)
    use_exact = method == "exact" or (method == "auto" and cost <= exact_cost_limit)

    if use_exact:
        # As for nodes: one count per (direction, shared values), and one
        # denominator for every product of counts.
        memo: Dict[Tuple[Direction, Assignment], Counter] = {}
        hits = 0
        for sigma in _enumerate_assignments(values, known.size):
            all_fail = 1
            for dim in range(alg.k):
                sides = []
                for sign in (1, -1):
                    d = (dim, sign)
                    seen = tuple([sigma[o] for _, o in shared[d]])
                    counts = memo.get((d, seen))
                    if counts is None:
                        counts = memo[d, seen] = color_counts(
                            partial(alg.evaluate_many, dim),
                            alg.balls[dim].size,
                            [(pos, sigma[o]) for pos, o in shared[d]],
                            values,
                        )
                    sides.append(counts)
                plus, minus = sides
                all_fail *= sum(n * minus[color] for color, n in plus.items())
                if all_fail == 0:
                    break
            hits += all_fail
        free = known.size + sum(hidden)
        return FailureEstimate(probability=Fraction(hits, values**free), exact=True)

    outer = OrientedBall(alg.k, alg.r + 1)
    edge_maps = {d: outer.shift_map(low_endpoint(d), alg.balls[d[0]]) for d in directions}
    rng = rng or _default_rng(f"edge-failure:{alg.name}")
    hits = 0
    for _ in range(samples):
        assignment = tuple(rng.randrange(values) for _ in range(outer.size))
        failed = True
        for dim in range(alg.k):
            colors = [
                alg.evaluate(dim, ball_assignment_key(assignment, edge_maps[dim, sign]))
                for sign in (1, -1)
            ]
            if colors[0] != colors[1]:
                failed = False
                break
        if failed:
            hits += 1
    return FailureEstimate(probability=hits / samples, exact=False, samples=samples)
