"""Oriented balls of the infinite 2k-regular tree.

The speedup simulation of Sections 5-7 lives on the *infinite*
consistently-oriented 2k-regular tree: every node has exactly one
neighbor in each of the 2k directions ``(dim, sign)``, ``dim < k``,
``sign in {+1, -1}``.  A node of the radius-t ball around a center is
addressed by its *non-backtracking direction word* — the unique reduced
sequence of directions leading to it.  This module provides:

* :class:`OrientedBall` — the indexed node set of ``B_t``, with
  neighbor lookup;
* :class:`EdgeBall` — the union ``B_r(a) ∪ B_r(b)`` for an oriented
  edge, canonically indexed from the low endpoint;
* one placement both share, :meth:`~OrientedBall.overlap`: which words
  of a ball read from another node land in this ball, and where (the
  workhorse of the simulation: "edge e knows part of the radius-t
  neighborhood of u and v"); :meth:`~OrientedBall.shift_map` is the
  same placement when every word must land;
* :func:`ball_assignment_key` — a ball's random values read off
  per-node values through a table of ball positions.

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


def low_endpoint(direction: Direction) -> Word:
    """The low endpoint of the center's edge in ``direction``.

    The center (``()``) if the edge leaves it in a positive direction,
    else the neighbor there (``(direction,)``): the node an
    :class:`EdgeBall` of that edge is read from.
    """
    return () if direction[1] == 1 else (direction,)


class _Ball:
    """An indexed word set, built once per class and constructor arguments.

    A subclass's ``_build`` sets ``words``; ``index`` inverts it.
    """

    _cache: Dict[Tuple[Any, ...], "_Ball"] = {}

    def __new__(cls, *args: Any) -> "_Ball":
        key = (cls,) + args
        if key not in _Ball._cache:
            ball = super().__new__(cls)
            ball._build(*args)
            ball.index = {w: i for i, w in enumerate(ball.words)}
            _Ball._cache[key] = ball
        return _Ball._cache[key]

    @property
    def size(self) -> int:
        """Number of nodes in the ball."""
        return len(self.words)

    def overlap(self, anchor: Word, inner: "_Ball") -> List[Tuple[int, int]]:
        """Where ``inner``'s words, read from the node ``anchor``, land in this ball.

        Returns ``(position in inner, index in this ball)`` for each word
        that lands inside, in ``inner``'s order; the others are left out.
        """
        index = self.index
        pairs = []
        for pos, w in enumerate(inner.words):
            i = index.get(reduce_word(anchor + w))
            if i is not None:
                pairs.append((pos, i))
        return pairs

    def shift_map(self, anchor: Word, inner: "_Ball") -> List[int]:
        """Re-index ``inner``'s ball, read from the node ``anchor``, inside this ball.

        Entry ``i`` is the index *in this ball* of the node addressed by
        ``inner.words[i]`` relative to ``anchor``.  Raises if some node
        falls outside this ball (caller picked incompatible radii).
        """
        pairs = self.overlap(anchor, inner)
        if len(pairs) < inner.size:
            raise ValueError(
                f"{inner.size - len(pairs)} words read from {anchor} fall outside {self!r}"
            )
        return [i for _, i in pairs]


class OrientedBall(_Ball):
    """The radius-t ball of the infinite oriented 2k-regular tree.

    Built as ``OrientedBall(k, t)``.  Nodes are indexed ``0 .. size-1``
    in breadth-first word order (the center is index 0).  The indexing
    is shared by every :class:`~repro.speedup.algorithms.NodeAlgorithm`
    of the same ``(k, t)``, so bit assignments are plain tuples.
    """

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

    # ------------------------------------------------------------------
    def neighbor(self, word: Word, direction: Direction) -> Optional[Word]:
        """The adjacent word in ``direction``, or ``None`` if outside."""
        moved = reduce_word(word + (direction,))
        return moved if moved in self.index else None

    def contains(self, word: Word) -> bool:
        """Whether the (reduced) word lies in this ball."""
        return word in self.index

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


class EdgeBall(_Ball):
    """The union ``B_r(a) ∪ B_r(b)`` for the edge from ``a`` in direction δ.

    Built as ``EdgeBall(k, r, δ)``.  The edge is canonically anchored at
    its *low* endpoint ``a`` (the endpoint seeing the edge in a positive
    direction); ``b = a·δ``.  Nodes are indexed in a fixed order: all
    words of ``B_r(a)`` first (in :class:`OrientedBall` order), then the
    words of ``B_r(b)`` not already present (``δ``-prefixed words of
    length ``r + 1``).
    """

    def _build(self, k: int, r: int, direction: Direction) -> None:
        dim, sign = direction
        if sign != 1:
            raise ValueError("edge balls are anchored at the low endpoint (sign +1)")
        if not 0 <= dim < k:
            raise ValueError(f"dimension {dim} out of range")
        self.k = k
        self.r = r
        self.direction: Direction = direction
        low = OrientedBall(k, r)
        # The words of B_r(b) that miss B_r(a) have length r and do not
        # start with δ's inverse, so prefixing δ leaves them reduced.
        inside = {pos for pos, _ in low.overlap((direction,), low)}
        self.words: Tuple[Word, ...] = low.words + tuple(
            (direction,) + w for pos, w in enumerate(low.words) if pos not in inside
        )

    def endpoint_words(self) -> Tuple[Word, Word]:
        """The two endpoints: low ``()`` and high ``(δ,)``."""
        return (), (self.direction,)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EdgeBall(k={self.k}, r={self.r}, dir={self.direction}, size={self.size})"
