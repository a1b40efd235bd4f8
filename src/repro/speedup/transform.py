"""The speedup transformations (Lemmas 7, 8, 14, 15) — executable.

First speedup (Lemma 7 / Lemma 14): from a t-round weak c-coloring node
algorithm ``A`` build the edge algorithm ``A'`` on views
``B_{t-1}(u) ∪ B_{t-1}(v)``: each endpoint's *frequent color set* —
colors ``A`` outputs with probability at least ``f`` over the bits the
edge cannot see — written as the pair (low endpoint's set, high
endpoint's set).  Nominal palette ``2**(2c)``.

Second speedup (Lemma 8 / Lemma 15): from an edge algorithm with views
``B_{t-1}(u) ∪ B_{t-1}(v)`` build the (t-1)-round node algorithm whose
output is the 2k-tuple of frequent *edge* color sets of the node's
incident edges given ``B_{t-1}(v)``.  Nominal palette ``2**(2k*c)``.

Composing the two drops the round count by one while the palette climbs
a tower — exactly the engine of the Omega(log* n) bound.  The threshold
``f`` is exposed; :func:`paper_threshold_first` /
:func:`paper_threshold_second` give the paper's optimizing choices.

The positions of an endpoint's (resp. an edge's) ball that the view
fixes are one :meth:`~repro.speedup.ball.OrientedBall.overlap` placement
per ball, made once per transform.  All frequency computations
enumerate the hidden regions exhaustively, so the resulting algorithms
are *exact* objects: their measured failure probabilities can be
compared against the lemma bounds with no sampling error (see
:mod:`repro.speedup.failure`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Dict, FrozenSet, List, Tuple, Union

from ..analysis.towers import TowerNumber, exp2_scaled
from .algorithms import Assignment, EdgeAlgorithm, NodeAlgorithm
from .ball import EdgeBall, OrientedBall, low_endpoint
from .failure import color_counts

__all__ = [
    "first_speedup",
    "second_speedup",
    "paper_threshold_first",
    "paper_threshold_second",
    "first_lemma_bound",
    "second_lemma_bound",
]


def _log2_palette(c: Union[int, float, TowerNumber]) -> float:
    """``log2`` of a (possibly tower-sized) palette, as a float or inf."""
    if isinstance(c, TowerNumber):
        return c.log2().to_float()
    return math.log2(float(c))


def paper_threshold_first(p: Any, c: Union[int, TowerNumber], delta: int) -> Fraction:
    """Lemma 7/14's optimizing threshold ``f = (p / c) ** (1 / (Delta+1))``.

    Derived from maximizing ``(p' - Delta*c*f) * f**Delta`` at
    ``f = p' / ((Delta + 1) * c)`` and substituting the resulting bound
    ``p' = (Delta+1) * p**(1/(Delta+1)) * c**(Delta/(Delta+1))``.
    Returned as a Fraction approximation (exact arithmetic downstream).
    Tower-sized palettes push the threshold to 0 (every achievable
    color counts as frequent) — faithful to the regime where the paper's
    optimizing f is astronomically small.
    """
    if float(p) <= 0.0:
        return Fraction(0)
    log2_f = (math.log2(float(p)) - _log2_palette(c)) / (delta + 1)
    if log2_f < -60:
        return Fraction(0)
    return Fraction(2.0**log2_f).limit_denominator(10**9)


def paper_threshold_second(p: Any, c: Union[int, TowerNumber], delta: int) -> Fraction:
    """Lemma 8/15's optimizing threshold.

    For Delta = 4 this is ``f = (p / c) ** (1/4)``; in general
    ``f = ((Delta-1) / (Delta/2 + 1)) * (p / c) ** (1 / Delta)`` per the
    Section 7 computation (the two coincide at Delta = 4).
    """
    if float(p) <= 0.0:
        return Fraction(0)
    scale = (delta - 1) / (delta / 2 + 1)
    log2_f = (math.log2(float(p)) - _log2_palette(c)) / delta
    if log2_f < -60:
        return Fraction(0)
    return Fraction(min(scale * 2.0**log2_f, 1.0)).limit_denominator(10**9)


def first_lemma_bound(p: float, c: Union[int, TowerNumber], delta: int) -> float:
    """The guarantee of Lemma 14: ``p' <= (Delta+1) p^{1/(Delta+1)} c^{Delta/(Delta+1)}``.

    At Delta = 4 this is Lemma 7's ``5 p^{1/5} c^{4/5}``.  Returns
    ``inf`` for tower-sized palettes (the bound is vacuous there) and
    0.0 at p = 0.
    """
    if p <= 0.0:
        return 0.0
    e = delta + 1
    log2_bound = (
        math.log2(e) + math.log2(p) / e + ((e - 1) / e) * _log2_palette(c)
    )
    return math.inf if log2_bound > 1000 else 2.0**log2_bound


def second_lemma_bound(p: float, c: Union[int, TowerNumber], delta: int) -> float:
    """The guarantee of Lemma 15: ``p' <= Delta p^{1/Delta} c^{1 - 1/Delta}``.

    At Delta = 4 this is Lemma 8's ``4 p^{1/4} c^{3/4}``.  Returns
    ``inf`` for tower-sized palettes and 0.0 at p = 0.
    """
    if p <= 0.0:
        return 0.0
    log2_bound = (
        math.log2(delta)
        + math.log2(p) / delta
        + ((delta - 1) / delta) * _log2_palette(c)
    )
    return math.inf if log2_bound > 1000 else 2.0**log2_bound


def _frequent_colors(
    evaluate_many,
    total_size: int,
    known: List[Tuple[int, int]],
    values: int,
    threshold: Fraction,
) -> FrozenSet[Any]:
    """Colors whose conditional probability is at least ``threshold``.

    ``known`` lists the ``(position, value)`` pairs the view fixes; the
    other positions are enumerated (:func:`~repro.speedup.failure.color_counts`,
    which hands ``evaluate_many`` the keys in batches).
    A color seen ``n`` times in ``total`` completions is frequent iff
    ``n / total >= threshold``, compared in integers.
    """
    total = values ** (total_size - len(known))
    num, den = threshold.numerator, threshold.denominator
    return frozenset(
        color
        for color, n in color_counts(evaluate_many, total_size, known, values).items()
        if n * den >= num * total
    )


def first_speedup(alg: NodeAlgorithm, threshold: Fraction) -> EdgeAlgorithm:
    """Lemma 7/14: node algorithm (radius t) -> edge algorithm (radius t-1).

    The edge output is the pair ``(frequent set at the low endpoint,
    frequent set at the high endpoint)``; each set collects the colors
    the node algorithm emits with conditional probability >= threshold
    given the edge's shared view.
    """
    if alg.t < 1:
        raise ValueError("cannot speed up a 0-round algorithm")
    k, t, bits = alg.k, alg.t, alg.bits
    r = t - 1
    node_ball = alg.ball

    # Per dimension, each endpoint's radius-t ball placed in the edge
    # ball: known positions come from the edge view, unknown positions
    # are enumerated.
    layouts: Dict[int, List[List[Tuple[int, int]]]] = {}
    for dim in range(k):
        eb = EdgeBall(k, r, (dim, 1))
        layouts[dim] = [eb.overlap(anchor, node_ball) for anchor in eb.endpoint_words()]

    values = alg.values
    # Exact, so the frequency test compares integers; a float keeps its value.
    threshold = Fraction(threshold)

    def fn(dim: int, assignment: Assignment) -> Tuple[FrozenSet[Any], FrozenSet[Any]]:
        return tuple(
            _frequent_colors(
                alg.evaluate_many,
                node_ball.size,
                [(pos, assignment[ei]) for pos, ei in known_map],
                values,
                threshold,
            )
            for known_map in layouts[dim]
        )

    return EdgeAlgorithm(
        k=k,
        r=r,
        bits=bits,
        palette=exp2_scaled(alg.palette, 2.0),
        fn=fn,
        name=f"L7[{alg.name}]",
    )


def second_speedup(alg: EdgeAlgorithm, threshold: Fraction) -> NodeAlgorithm:
    """Lemma 8/15: edge algorithm (radius r) -> node algorithm (radius r).

    The node output is the 2k-tuple, in canonical direction order, of
    the frequent edge-color sets of its incident edges given its own
    radius-r ball.
    """
    k, r, bits = alg.k, alg.r, alg.bits
    node_ball = OrientedBall(k, r)
    directions = node_ball.directions

    # Per incident direction: the edge ball, read from the edge's low
    # endpoint, placed in the node's ball.
    layouts: List[
        Tuple[Callable[[List[Assignment]], List[Any]], int, List[Tuple[int, int]]]
    ] = []
    for direction in directions:
        dim = direction[0]
        eb = alg.balls[dim]
        known_map = node_ball.overlap(low_endpoint(direction), eb)
        layouts.append((partial(alg.evaluate_many, dim), eb.size, known_map))

    values = alg.values
    # Exact, so the frequency test compares integers; a float keeps its value.
    threshold = Fraction(threshold)

    def fn(assignment: Assignment) -> Tuple[FrozenSet[Any], ...]:
        return tuple(
            _frequent_colors(
                evaluate_many,
                size,
                [(pos, assignment[ni]) for pos, ni in known_map],
                values,
                threshold,
            )
            for evaluate_many, size, known_map in layouts
        )

    return NodeAlgorithm(
        k=k,
        t=r,
        bits=bits,
        palette=exp2_scaled(alg.palette, float(2 * k)),
        fn=fn,
        name=f"L8[{alg.name}]",
    )
