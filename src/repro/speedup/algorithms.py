"""Finite representations of anonymous randomized tree algorithms.

Section 5 treats a t-round algorithm on the oriented 2k-regular tree as
a function from the random-bit assignment of the radius-t ball to an
output.  Here that function is a first-class object:

* :class:`NodeAlgorithm` — maps assignments over ``OrientedBall(k, t)``
  (one value in ``[0, 2**bits)`` per ball node) to a hashable color;
* :class:`EdgeAlgorithm` — maps ``(dimension, assignment over
  EdgeBall(k, r, (dim, +1)))`` to a hashable color (edge outputs may
  legitimately depend on the edge's dimension).

Palette bookkeeping is *nominal*: the speedup transformations blow the
palette up doubly exponentially (2^{2c}, then 2^{2kc}), and the paper's
recurrences track those nominal sizes even though only a fraction of
the colors ever materializes.  ``palette`` records the nominal size as a
:class:`~repro.analysis.towers.TowerNumber` — after two round trips the
size is 2^(2^64), far beyond machine integers.

The module also ships the starter algorithms used by the experiments.
"""

from __future__ import annotations

import itertools
from operator import is_
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..analysis.towers import TowerNumber
from ..core.registry import ALGORITHMS
from .ball import EdgeBall, OrientedBall

__all__ = [
    "NodeAlgorithm",
    "EdgeAlgorithm",
    "zero_round_uniform",
    "local_maximum_coloring",
    "smaller_count_coloring",
    "two_round_local_maximum",
    "parity_coloring",
]

#: A random-value assignment to a ball: one value per ball node index.
Assignment = Tuple[int, ...]

#: What ``memo.get`` returns for an absent key (never a stored color).
_MISS = object()


class _MemoizedAlgorithm:
    """What node and edge algorithms share: the palette and the memo.

    ``memo`` maps everything the computing entity sees (its ball's
    random values) to its output, so each distinct key is computed once
    no matter how many nodes, trials or runs present it.  Subclasses
    supply ``_compute``, which checks a key and runs ``fn`` on it.
    """

    def __init__(
        self,
        k: int,
        bits: int,
        palette: Union[int, float, TowerNumber],
        fn: Callable[..., Any],
        name: str,
    ):
        if bits < 1:
            raise ValueError("need at least one random bit per node")
        if not isinstance(palette, TowerNumber):
            if palette < 1:
                raise ValueError("palette must be positive")
            palette = TowerNumber.from_float(float(palette))
        self.k = k
        self.bits = bits
        self.palette = palette
        self.fn = fn
        self.name = name
        self.memo: Dict[Any, Any] = {}

    @property
    def delta(self) -> int:
        """The tree degree 2k."""
        return 2 * self.k

    @property
    def values(self) -> int:
        """Number of random values per node, ``2**bits``."""
        return 1 << self.bits

    def _lookup(self, key: Any) -> Any:
        """The memoized output for ``key``, computed and stored on a miss."""
        color = self.memo.get(key, _MISS)
        if color is _MISS:
            color = self.memo[key] = self._compute(key)
        return color

    def _lookup_many(self, keys: Sequence[Any]) -> List[Any]:
        """:meth:`_lookup` of each key, in order.

        One ``dict.get`` pass in C finds the stored outputs; the misses
        are then computed in key order.  A key that misses twice is
        computed at its first occurrence and read back at its second,
        so ``_compute`` sees the keys, and the memo ends up holding
        them, exactly as with one :meth:`_lookup` per key.
        """
        memo = self.memo
        colors = list(map(memo.get, keys, itertools.repeat(_MISS)))
        for i in itertools.compress(
            itertools.count(), map(is_, colors, itertools.repeat(_MISS))
        ):
            colors[i] = self._lookup(keys[i])  # an earlier miss may have stored it
        return colors


class NodeAlgorithm(_MemoizedAlgorithm):
    """A t-round anonymous randomized node algorithm on the oriented tree.

    Parameters
    ----------
    k:
        Number of dimensions (degree Delta = 2k).
    t:
        Round count / view radius.
    bits:
        Random bits per node; each ball node carries a value in
        ``[0, 2**bits)``.
    palette:
        Nominal palette size ``c`` (the paper's recurrences track this).
    fn:
        The algorithm: assignment over ``OrientedBall(k, t)`` -> color.
    name:
        Report label.
    """

    def __init__(
        self,
        k: int,
        t: int,
        bits: int,
        palette: Union[int, float, TowerNumber],
        fn: Callable[[Assignment], Any],
        name: str = "node-algorithm",
    ):
        super().__init__(k, bits, palette, fn, name)
        self.t = t
        self.ball = OrientedBall(k, t)

    def evaluate(self, assignment: Assignment) -> Any:
        """The output color for a full ball assignment (memoized)."""
        return self._lookup(assignment)

    def evaluate_many(self, assignments: Sequence[Assignment]) -> List[Any]:
        """:meth:`evaluate` of each assignment, in order, in one memo pass."""
        return self._lookup_many(assignments)

    def _compute(self, assignment: Assignment) -> Any:
        """A memo miss: check the assignment's length, then run ``fn``."""
        if len(assignment) != self.ball.size:
            raise ValueError(
                f"assignment has {len(assignment)} values, ball has {self.ball.size}"
            )
        return self.fn(assignment)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeAlgorithm({self.name}, k={self.k}, t={self.t}, c={self.palette})"


class EdgeAlgorithm(_MemoizedAlgorithm):
    """A weak-edge-coloring algorithm with endpoint-ball radius ``r``.

    In the paper's indexing this is a ``(r + 1)``-round edge algorithm:
    its view is ``B_r(u) ∪ B_r(v)``.  The callable receives the edge's
    dimension and the assignment over ``EdgeBall(k, r, (dim, +1))``.
    Its memo is keyed by ``(dim, assignment)``.
    """

    def __init__(
        self,
        k: int,
        r: int,
        bits: int,
        palette: Union[int, float, TowerNumber],
        fn: Callable[[int, Assignment], Any],
        name: str = "edge-algorithm",
    ):
        super().__init__(k, bits, palette, fn, name)
        self.r = r
        self.balls = {dim: EdgeBall(k, r, (dim, 1)) for dim in range(k)}

    def evaluate(self, dim: int, assignment: Assignment) -> Any:
        """The output color of a dimension-``dim`` edge (memoized)."""
        return self._lookup((dim, assignment))

    def evaluate_many(self, dim: int, assignments: Iterable[Assignment]) -> List[Any]:
        """:meth:`evaluate` of each dimension-``dim`` edge, in order, in one memo pass."""
        return self._lookup_many(list(zip(itertools.repeat(dim), assignments)))

    def _compute(self, key: Tuple[int, Assignment]) -> Any:
        """A memo miss: check the assignment's length, then run ``fn``."""
        dim, assignment = key
        ball = self.balls[dim]
        if len(assignment) != ball.size:
            raise ValueError(
                f"assignment has {len(assignment)} values, edge ball has {ball.size}"
            )
        return self.fn(dim, assignment)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EdgeAlgorithm({self.name}, k={self.k}, r={self.r}, c={self.palette})"


# ----------------------------------------------------------------------
# Starter algorithms
# ----------------------------------------------------------------------
def zero_round_uniform(k: int, colors: int, bits: Optional[int] = None) -> NodeAlgorithm:
    """The optimal 0-round algorithm: a uniformly random color.

    With ``bits = ceil(log2 colors)`` and ``colors`` a power of two the
    output is exactly uniform — the distribution Claim 12 identifies as
    the best any 0-round algorithm can do (failure ``>= 1 / c**Delta``).
    """
    if bits is None:
        bits = max(1, (colors - 1).bit_length())
    if (1 << bits) % colors != 0:
        raise ValueError(
            f"2**{bits} values cannot be split evenly into {colors} colors; "
            "pick a power-of-two palette for exactness"
        )

    def fn(assignment: Assignment) -> int:
        return assignment[0] % colors

    return NodeAlgorithm(k, 0, bits, colors, fn, name=f"uniform-{colors}")


def local_maximum_coloring(k: int, bits: int = 1) -> NodeAlgorithm:
    """1-round weak 2-coloring attempt: black iff a strict local maximum.

    A node outputs 1 iff its own value strictly exceeds all 2k neighbor
    values.  Not a correct weak coloring — it fails wherever randomness
    cooperates badly — but its failure probability is strictly better
    than uniform guessing, making it the canonical pipeline seed.
    """
    ball = OrientedBall(k, 1)
    neighbor_idx = [ball.index[(d,)] for d in ball.directions]

    def fn(assignment: Assignment) -> int:
        mine = assignment[0]
        return 1 if all(mine > assignment[i] for i in neighbor_idx) else 0

    return NodeAlgorithm(k, 1, bits, 2, fn, name="local-maximum")


def smaller_count_coloring(k: int, bits: int = 1) -> NodeAlgorithm:
    """1-round weak (2k+1)-coloring attempt: count strictly smaller neighbors.

    The anonymous analogue of the Naor-Stockmeyer in-degree labeling;
    palette ``2k + 1``.
    """
    ball = OrientedBall(k, 1)
    neighbor_idx = [ball.index[(d,)] for d in ball.directions]

    def fn(assignment: Assignment) -> int:
        mine = assignment[0]
        return sum(1 for i in neighbor_idx if assignment[i] < mine)

    return NodeAlgorithm(k, 1, bits, 2 * k + 1, fn, name="smaller-count")


def two_round_local_maximum(k: int, bits: int = 1) -> NodeAlgorithm:
    """2-round weak 2-coloring attempt: black iff a radius-2 maximum.

    A node outputs 1 iff its value strictly exceeds every value in its
    radius-2 ball.  The canonical seed for the *double* round trip: the
    pipeline walks it 2 -> 1 -> 0, exercising the induction of Claim 11
    with more than one step.
    """
    ball = OrientedBall(k, 2)

    def fn(assignment: Assignment) -> int:
        mine = assignment[0]
        return 1 if all(mine > x for x in assignment[1:]) else 0

    return NodeAlgorithm(k, 2, bits, 2, fn, name="two-round-local-maximum")


def parity_coloring(k: int, bits: int = 1) -> NodeAlgorithm:
    """1-round 2-coloring attempt: parity of the ball's value sum.

    A deliberately *bad* algorithm (its failure probability is bounded
    away from 0 regardless of bits) used by tests and the ablation
    benches as a negative control.
    """

    def fn(assignment: Assignment) -> int:
        return sum(assignment) % 2

    return NodeAlgorithm(k, 1, bits, 2, fn, name="parity")


# ----------------------------------------------------------------------
# Contracts for the "finite" request kind
# ----------------------------------------------------------------------
# The radius-1 starters declare contracts on oriented tori (the family
# the finite runner accepts: locally tree-like at radius 1, orientation
# built from rows/cols).  ``k`` is pinned to 2 — a 2-dimensional
# torus has exactly two oriented dimensions.  No ``solves`` claim: a
# weak-coloring *attempt* legitimately fails on bad randomness, so the
# contracts promise determinism, not correctness.
ALGORITHMS.add(
    "finite-local-maximum",
    local_maximum_coloring,
    kind="finite",
    domains=({"graph": "torus", "rows": (3, 6), "cols": (3, 6)},),
    fuzz_params={"k": 2, "bits": (1, 2)},
    invariances=("determinism",),
    description="1-round local-maximum attempt on oriented tori",
)
ALGORITHMS.add(
    "finite-smaller-count",
    smaller_count_coloring,
    kind="finite",
    domains=({"graph": "torus", "rows": (3, 6), "cols": (3, 6)},),
    fuzz_params={"k": 2, "bits": (1, 2)},
    invariances=("determinism",),
    description="1-round smaller-count attempt on oriented tori",
)
