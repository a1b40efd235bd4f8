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
* the round-accounting helpers (:func:`cv_iterations_needed`,
  :func:`log_star`) that make the O(log* c) running time inspectable.

A *pseudoforest* here is ``successor[v]`` = some neighbor of ``v``; the
edge set of the pseudoforest is ``{v, successor[v]}``.  A coloring is
proper on the pseudoforest iff every node's color differs from its
successor's (which also covers in-edges: each is someone's out-edge).
All phases run in one communication round each; the functions return the
round count alongside the colors so callers can account running time
exactly.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..graphs.graph import Graph

__all__ = [
    "log_star",
    "cv_step",
    "cv_iterations_needed",
    "is_proper_on_pseudoforest",
    "reduce_to_three_colors",
]


def log_star(x: float, base: float = 2.0) -> int:
    """The iterated logarithm: least ``k`` with ``log^(k)(x) <= 1``."""
    if x <= 1:
        return 0
    import math

    count = 0
    while x > 1:
        x = math.log(x, base)
        count += 1
    return count


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


def _pseudoforest_neighbors(successor: Sequence[int]) -> List[List[int]]:
    """Adjacency of the pseudoforest (successor plus in-neighbors)."""
    n = len(successor)
    neighbors: List[List[int]] = [[] for _ in range(n)]
    for v, s in enumerate(successor):
        neighbors[v].append(s)
        neighbors[s].append(v)
    return [sorted(set(adj)) for adj in neighbors]


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
        ``successor[v]`` is the node ``v`` points at.
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
    bound = 1 << color_bits
    for v in range(n):
        if not 0 <= colors[v] < bound:
            raise ValueError(f"color {colors[v]} of node {v} exceeds {color_bits} bits")
    if not is_proper_on_pseudoforest(colors, successor):
        raise ValueError("initial coloring is not proper on the pseudoforest")

    current = list(colors)
    rounds = 0
    for _ in range(cv_iterations_needed(color_bits)):
        current = [cv_step(current[v], current[successor[v]]) for v in range(n)]
        rounds += 1

    neighbors = _pseudoforest_neighbors(successor)
    for target in (5, 4, 3):
        # Shift-down: adopt the successor's color (1 round).
        current = [current[successor[v]] for v in range(n)]
        rounds += 1
        # Recolor the target class greedily into {0, 1, 2} (1 round).
        fresh = list(current)
        for v in range(n):
            if current[v] == target:
                used = {current[u] for u in neighbors[v]}
                fresh[v] = min(c for c in (0, 1, 2) if c not in used)
        current = fresh
        rounds += 1

    if not is_proper_on_pseudoforest(current, successor):
        raise AssertionError("CV reduction produced an improper coloring (bug)")
    if any(c not in (0, 1, 2) for c in current):
        raise AssertionError("CV reduction left colors outside {0,1,2} (bug)")
    return current, rounds
