"""Oriented balls of the infinite 2k-regular tree.

The speedup simulation of Sections 5-7 lives on the *infinite*
consistently-oriented 2k-regular tree: every node has exactly one
neighbor in each of the 2k directions ``(dim, sign)``, ``dim < k``,
``sign in {+1, -1}``.  A node of the radius-t ball around a center is
addressed by its *non-backtracking direction word* — the unique reduced
sequence of directions leading to it.  This module provides:

* :class:`OrientedBall` — the indexed node set of ``B_t``, with
  neighbor lookup and the *shift maps* that re-index a neighbor's ball
  inside the center's larger ball (the workhorse of the simulation:
  "edge e knows part of the radius-t neighborhood of u and v");
* :func:`ball_assignment_key` — a ball's random values read off
  per-node values through a table of ball positions;
* :class:`EdgeBall` — the union ``B_r(a) ∪ B_r(b)`` for an oriented
  edge, canonically indexed from the low endpoint.

Words are tuples of ``(dim, sign)`` pairs; the empty word is the center.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Direction",
    "Word",
    "inverse",
    "all_directions",
    "reduce_word",
    "OrientedBall",
    "ball_assignment_key",
    "EdgeBall",
]

#: A direction of the oriented tree.
Direction = Tuple[int, int]

#: A reduced direction word addressing a node relative to a center.
Word = Tuple[Direction, ...]


def inverse(direction: Direction) -> Direction:
    """The opposite direction (same dimension, flipped sign)."""
    dim, sign = direction
    return (dim, -sign)


def all_directions(k: int) -> List[Direction]:
    """The 2k directions in canonical order: (0,+1), (0,-1), (1,+1), ..."""
    return [(dim, sign) for dim in range(k) for sign in (1, -1)]


def reduce_word(word: Sequence[Direction]) -> Word:
    """Cancel adjacent inverse pairs (tree geodesic reduction)."""
    out: List[Direction] = []
    for step in word:
        if out and out[-1] == inverse(step):
            out.pop()
        else:
            out.append(step)
    return tuple(out)


class OrientedBall:
    """The radius-t ball of the infinite oriented 2k-regular tree.

    Nodes are indexed ``0 .. size-1`` in breadth-first word order (the
    center is index 0).  The indexing is shared by every
    :class:`~repro.speedup.algorithms.NodeAlgorithm` of the same
    ``(k, t)``, so bit assignments are plain tuples.
    """

    _cache: Dict[Tuple[int, int], "OrientedBall"] = {}

    def __new__(cls, k: int, t: int) -> "OrientedBall":
        key = (k, t)
        if key not in cls._cache:
            ball = super().__new__(cls)
            ball._build(k, t)
            cls._cache[key] = ball
        return cls._cache[key]

    def _build(self, k: int, t: int) -> None:
        if k < 1:
            raise ValueError("need at least one dimension")
        if t < 0:
            raise ValueError("radius must be non-negative")
        self.k = k
        self.t = t
        self.directions = all_directions(k)
        words: List[Word] = [()]
        frontier: List[Word] = [()]
        for _ in range(t):
            nxt: List[Word] = []
            for w in frontier:
                for d in self.directions:
                    if w and d == inverse(w[-1]):
                        continue
                    nxt.append(w + (d,))
            words.extend(nxt)
            frontier = nxt
        self.words: Tuple[Word, ...] = tuple(words)
        self.index: Dict[Word, int] = {w: i for i, w in enumerate(words)}

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of nodes in the ball."""
        return len(self.words)

    def neighbor(self, word: Word, direction: Direction) -> Optional[Word]:
        """The adjacent word in ``direction``, or ``None`` if outside."""
        moved = reduce_word(word + (direction,))
        return moved if moved in self.index else None

    def contains(self, word: Word) -> bool:
        """Whether the (reduced) word lies in this ball."""
        return word in self.index

    def shift_map(self, prefix: Word, inner: "OrientedBall") -> List[int]:
        """Re-index ``inner``'s ball, centered at ``prefix``, inside this ball.

        Entry ``i`` is the index *in this ball* of the node addressed by
        ``inner.words[i]`` relative to the node ``prefix``.  Raises if
        some shifted node falls outside this ball (caller picked
        incompatible radii).
        """
        out = []
        for w in inner.words:
            absolute = reduce_word(prefix + w)
            if absolute not in self.index:
                raise ValueError(
                    f"shifted word {absolute} outside radius-{self.t} ball"
                )
            out.append(self.index[absolute])
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OrientedBall(k={self.k}, t={self.t}, size={self.size})"


def ball_assignment_key(
    values: Sequence[Any], table: Sequence[int]
) -> Tuple[Any, ...]:
    """Project per-node values through a resolved ball table.

    The key the tree algorithms memoize on: entry ``i`` is the value the
    ball's ``i``-th word reads.  The engine's ``finite`` kind
    (:meth:`~repro.core.direct.DirectEngine.run`) builds it inline,
    every node's key of a trial at once, the Monte Carlo failure
    estimators call it per sample, and the exact enumerations spell
    whole keys with ``itertools.product``.  Equal keys
    mean the computing entity sees identical random data in identical
    positions — the oriented-tree analogue of
    :func:`~repro.local_model.views.view_signature`.
    """
    return tuple(values[i] for i in table)


class EdgeBall:
    """The union ``B_r(a) ∪ B_r(b)`` for the edge from ``a`` in direction δ.

    The edge is canonically anchored at its *low* endpoint ``a`` (the
    endpoint seeing the edge in a positive direction); ``b = a·δ``.
    Nodes are indexed in a fixed order: all words of ``B_r(a)`` first
    (in :class:`OrientedBall` order), then the words of ``B_r(b)`` not
    already present (``δ``-prefixed words of length ``r + 1``).
    """

    _cache: Dict[Tuple[int, int, Direction], "EdgeBall"] = {}

    def __new__(cls, k: int, r: int, direction: Direction) -> "EdgeBall":
        key = (k, r, direction)
        if key not in cls._cache:
            ball = super().__new__(cls)
            ball._build(k, r, direction)
            cls._cache[key] = ball
        return cls._cache[key]

    def _build(self, k: int, r: int, direction: Direction) -> None:
        dim, sign = direction
        if sign != 1:
            raise ValueError("edge balls are anchored at the low endpoint (sign +1)")
        if not 0 <= dim < k:
            raise ValueError(f"dimension {dim} out of range")
        self.k = k
        self.r = r
        self.direction: Direction = direction
        low_ball = OrientedBall(k, r)
        words: List[Word] = list(low_ball.words)
        seen = set(words)
        # b-relative ball, shifted by delta; new nodes are exactly the
        # delta-prefixed words at distance r + 1 from a.
        for w in OrientedBall(k, r).words:
            absolute = reduce_word((direction,) + w)
            if absolute not in seen:
                seen.add(absolute)
                words.append(absolute)
        self.words: Tuple[Word, ...] = tuple(words)
        self.index: Dict[Word, int] = {w: i for i, w in enumerate(words)}

    @property
    def size(self) -> int:
        """Number of nodes in the union ball."""
        return len(self.words)

    def endpoint_words(self) -> Tuple[Word, Word]:
        """The two endpoints: low ``()`` and high ``(δ,)``."""
        return (), (self.direction,)

    def shift_map_from(self, outer: OrientedBall, anchor: Word) -> List[int]:
        """Indices in ``outer`` of this edge ball anchored at ``anchor``.

        ``anchor`` is the low endpoint's word inside ``outer``.
        """
        out = []
        for w in self.words:
            absolute = reduce_word(anchor + w)
            if absolute not in outer.index:
                raise ValueError(f"edge-ball word {absolute} outside outer ball")
            out.append(outer.index[absolute])
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EdgeBall(k={self.k}, r={self.r}, dir={self.direction}, size={self.size})"
