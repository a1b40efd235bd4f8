"""Making the Theta(log* n) row visible: sweep the identifier space.

``log* n`` is at most 5 for every n below ``2^65536``, so no feasible
n-sweep can display log*-growth directly.  The round count of the
weak-2-coloring pipeline, however, is ``k + O(log* C)`` where ``C`` is
the size of the space the initial coloring lives in — so sweeping the
*identifier space* across tower sizes (``2^8, 2^64, 2^1024, ...``)
exposes exactly the Cole-Vishkin log* mechanism the Theta(log* n) class
is made of.  This is the honest finite-scale rendering of Table 1 row 3
and of Lemma 2's O(log* c) term.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence

from ..algorithms.cole_vishkin import cv_iterations_needed
from ..algorithms.weak_coloring import weak_two_coloring_from_ids
from ..graphs.generators import balanced_regular_tree
from ..lcl.catalog import WeakColoring

__all__ = [
    "LogStarSweepPoint",
    "LogStarSweepResult",
    "run_logstar_sweep",
    "DEFAULT_ID_BITS",
]

#: Identifier-space bit widths swept by default: towers of growth.
DEFAULT_ID_BITS = (8, 16, 64, 256, 1024, 4096, 16384, 65536)


@dataclass
class LogStarSweepPoint:
    """One sweep point: identifier space ``2**id_bits``."""

    id_bits: int
    predicted_cv_rounds: int
    measured_rounds: int
    verified: bool


@dataclass
class LogStarSweepResult:
    """The whole sweep."""

    points: List[LogStarSweepPoint] = field(default_factory=list)

    def monotone_in_log_star(self) -> bool:
        """Rounds must be non-decreasing in the identifier space size."""
        rounds = [p.measured_rounds for p in self.points]
        return all(b >= a for a, b in zip(rounds, rounds[1:]))


def run_logstar_sweep(
    id_bits: Sequence[int] = DEFAULT_ID_BITS,
    tree_depth: int = 4,
    rng_seed: int = 0,
) -> LogStarSweepResult:
    """Run the pipeline on one tree under ever-larger identifier spaces.

    Identifiers are sampled uniformly (and distinctly) from
    ``{1 .. 2**bits}``; the graph stays fixed, so every change in the
    round count is the log* term moving.  Each draw is
    ``1 + rng.getrandbits(bits)``, the same uniform law as
    ``rng.randint(1, 2**bits)`` without its rejection loop (which draws
    ``bits + 1`` bits and rejects about half of them).  The identifiers
    differ from ``randint``'s, but the round counts depend only on
    ``bits``, so the sweep prints the same points.  A width whose space
    ``2**bits`` is smaller than the tree raises ``ValueError`` before
    any draw.
    """
    tree = balanced_regular_tree(4, tree_depth)
    for bits in id_bits:
        if 1 << bits < tree.n:
            raise ValueError(
                f"identifier space 2**{bits} = {1 << bits} is smaller than the "
                f"tree's n = {tree.n}: no distinct assignment exists"
            )
    rng = random.Random(rng_seed)
    result = LogStarSweepResult()
    verifier = WeakColoring(2)
    for bits in id_bits:
        space = 1 << bits
        ids: List[int] = []
        seen = set()
        while len(ids) < tree.n:
            candidate = 1 + rng.getrandbits(bits)
            if candidate not in seen:
                seen.add(candidate)
                ids.append(candidate)
        out = weak_two_coloring_from_ids(tree, ids, id_space=space)
        verified = not verifier.verify(tree, out.labels)
        result.points.append(
            LogStarSweepPoint(
                id_bits=bits,
                predicted_cv_rounds=cv_iterations_needed(bits + 2),
                measured_rounds=out.rounds,
                verified=verified,
            )
        )
    return result
