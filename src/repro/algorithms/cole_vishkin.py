"""Cole-Vishkin color reduction on oriented pseudoforests.

Lemma 2 of the paper reduces a weak 2c-coloring to a weak 2-coloring by
running "the standard Cole-Vishkin color reduction algorithm" on the
pseudoforest in which every node points at one differently-colored
neighbor.  This module implements that machinery:

* one CV bit-trick step (:func:`cv_step`),
* the full reduction pipeline on a *pseudoforest* — a successor pointer
  per node — taking any proper coloring down to 3 colors
  (:func:`reduce_to_three_colors`), via iterated CV steps to 6 colors
  followed by three shift-down + recolor-class rounds,
* the round-accounting helper :func:`cv_iterations_needed`, which
  makes the O(log* c) running time inspectable (the iterated logarithm
  itself is :func:`~repro.analysis.towers.log_star_float`).

A *pseudoforest* here is ``successor[v]`` = some neighbor of ``v``; the
edge set of the pseudoforest is ``{v, successor[v]}``.  A coloring is
proper on the pseudoforest iff every node's color differs from its
successor's (which also covers in-edges: each is someone's out-edge).
All phases run in one communication round each; the functions return the
round count alongside the colors so callers can account running time
exactly.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Sequence, Tuple


__all__ = [
    "cv_step",
    "cv_iterations_needed",
    "is_proper_on_pseudoforest",
    "reduce_to_three_colors",
]


def cv_step(color: int, successor_color: int) -> int:
    """One Cole-Vishkin step: pack (index, value) of the lowest differing bit.

    Given a proper pair (``color != successor_color``), returns
    ``2 * i + bit_i(color)`` where ``i`` is the lowest bit position at
    which the two colors differ.  Adjacent (along the pointer) outputs
    stay distinct: if ``v`` and ``s(v)`` chose the same ``i``, their bits
    at ``i`` differ by construction.
    """
    if color == successor_color:
        raise ValueError(f"CV step needs distinct colors, got {color} twice")
    diff = color ^ successor_color
    i = (diff & -diff).bit_length() - 1
    return 2 * i + ((color >> i) & 1)


def cv_iterations_needed(initial_bits: int) -> int:
    """Rounds of :func:`cv_step` until colors lie in ``{0..5}``.

    From a palette of ``initial_bits``-bit colors, one step maps to
    colors of ``ceil(log2(bits)) + 1`` bits; the fixed point is 3 bits,
    at which one further step lands in ``{0..5}`` (index <= 2, so the
    packed value is at most 5).  This bound is what every node computes
    locally from ``n`` so that all nodes stop the loop simultaneously.
    """
    if initial_bits < 1:
        raise ValueError("need at least 1 bit")
    bits = initial_bits
    rounds = 0
    while bits > 3:
        bits = max(1, (bits - 1).bit_length()) + 1
        rounds += 1
    # One final step from <= 3-bit colors into {0..5}.
    return rounds + 1


def is_proper_on_pseudoforest(colors: Sequence[int], successor: Sequence[int]) -> bool:
    """Whether every node's color differs from its successor's."""
    return all(colors[v] != colors[successor[v]] for v in range(len(colors)))


def reduce_to_three_colors(
    colors: Sequence[int], successor: Sequence[int], color_bits: int
) -> Tuple[List[int], int]:
    """Reduce a proper pseudoforest coloring to colors ``{0, 1, 2}``.

    Parameters
    ----------
    colors:
        Initial colors, proper along the pseudoforest, each below
        ``2 ** color_bits``.
    successor:
        ``successor[v]`` is the node ``v`` points at, one of ``0..n-1``.
    color_bits:
        Public bound on the initial palette (all nodes must agree on it,
        as they do in LOCAL where ``n`` is common knowledge).

    Returns
    -------
    (three_colors, rounds):
        A proper pseudoforest 3-coloring and the number of communication
        rounds consumed: ``cv_iterations_needed(color_bits)`` CV rounds
        plus 6 rounds of shift-down / recolor-class.

    Notes
    -----
    Each Cole-Vishkin round is one pass that applies :func:`cv_step`'s
    rule inline to every (color, successor color) pair; equal colors
    raise :func:`cv_step`'s own ``ValueError``.  The predecessors are
    grouped by successor once, in two flat lists, and serve the three
    recolor rounds.

    Shift-down (every node adopts its successor's color) makes all of a
    node's in-neighbors monochromatic, so after it each node sees at most
    two distinct colors among its pseudoforest neighbors and the greedy
    recoloring of one color class into ``{0, 1, 2}`` always finds a free
    color.  On 2-cycles (mutual pointers) shift-down swaps the two
    colors, which stays proper.
    """
    n = len(colors)
    if len(successor) != n:
        raise ValueError("colors and successor must have equal length")
    if n and not (0 <= min(successor) and max(successor) < n):
        for v in range(n):
            if not 0 <= successor[v] < n:
                raise ValueError(f"successor {successor[v]} of node {v} is not a node")
    bound = 1 << color_bits
    if n and not (0 <= min(colors) and max(colors) < bound):
        for v in range(n):
            if not 0 <= colors[v] < bound:
                raise ValueError(f"color {colors[v]} of node {v} exceeds {color_bits} bits")
    if not is_proper_on_pseudoforest(colors, successor):
        raise ValueError("initial coloring is not proper on the pseudoforest")

    current = list(colors)
    rounds = 0
    for _ in range(cv_iterations_needed(color_bits)):
        stepped = []
        append = stepped.append
        for color, successor_color in zip(current, map(current.__getitem__, successor)):
            diff = color ^ successor_color
            if not diff:
                raise ValueError(f"CV step needs distinct colors, got {color} twice")
            i = (diff & -diff).bit_length() - 1
            append(2 * i + ((color >> i) & 1))
        current = stepped
        rounds += 1

    # The predecessors of v, in node order, are
    # by_successor[first[v]:first[v + 1]].
    by_successor = sorted(range(n), key=successor.__getitem__)
    first = [0] * (n + 1)
    for s in successor:
        first[s + 1] += 1
    first = list(accumulate(first))
    for target in (5, 4, 3):
        # Shift-down: adopt the successor's color (1 round).
        current = list(map(current.__getitem__, successor))
        rounds += 1
        # Recolor the target class greedily into {0, 1, 2} (1 round).
        fresh = list(current)
        for v, color in enumerate(current):
            if color == target:
                used = {current[successor[v]]}
                used.update(map(current.__getitem__, by_successor[first[v]:first[v + 1]]))
                fresh[v] = min(c for c in (0, 1, 2) if c not in used)
        current = fresh
        rounds += 1

    if not is_proper_on_pseudoforest(current, successor):
        raise AssertionError("CV reduction produced an improper coloring (bug)")
    if any(c not in (0, 1, 2) for c in current):
        raise AssertionError("CV reduction left colors outside {0,1,2} (bug)")
    return current, rounds
