"""Linial-style proper (Delta+1)-coloring in O(log* n) rounds.

The classical pipeline [Linial 1992; Goldberg-Plotkin-Shannon 1988]:

1. **Polynomial color reduction.**  Colors are read as polynomials of
   degree ``d`` over a prime field ``F_p`` with ``p >= Delta * d + 1``
   and ``p^(d+1) >=`` (current palette size).  A node's *code* is the
   graph of its polynomial ``{(x, f(x)) : x in F_p}``; two distinct
   polynomials agree on at most ``d`` points, so the union of ``Delta``
   neighbor codes misses at least one of the node's ``p`` points — that
   point (a value below ``p^2``) is the new color.  Each iteration takes
   one round and maps a palette of size ``m`` to one of size
   ``O((Delta log_Delta m)^2)``; iterating reaches a Delta-independent
   palette in O(log* n) rounds.
2. **Greedy class elimination.**  While more than ``Delta + 1`` colors
   remain, the highest class recolors greedily — one round per class,
   constantly many classes for constant Delta.

This is Table 1's row-3 technology from the proper-coloring side (the
paper cites it via [9, 15, 17]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..graphs.graph import Graph

__all__ = [
    "ProperColoringResult",
    "smallest_prime_at_least",
    "polynomial_step_parameters",
    "polynomial_color_reduction_step",
    "linial_coloring",
]


@dataclass
class ProperColoringResult:
    """Outcome of the Linial pipeline.

    Attributes
    ----------
    colors:
        A proper coloring with values in ``{0, ..., Delta}``.
    rounds:
        Total rounds: polynomial iterations + class-elimination rounds.
    palette_trajectory:
        Palette-size bound after each polynomial iteration (starts with
        the initial bound) — the doubly-logarithmic collapse is the
        log* mechanism made visible.
    """

    colors: List[int]
    rounds: int
    palette_trajectory: List[int] = field(default_factory=list)


def smallest_prime_at_least(x: int) -> int:
    """The smallest prime >= x (trial division; inputs here are small)."""
    candidate = max(2, x)
    while True:
        if candidate < 4 or all(
            candidate % f for f in range(2, int(candidate**0.5) + 1)
        ):
            return candidate
        candidate += 1


def _ceil_root(n: int, k: int) -> int:
    """The smallest ``r`` with ``r ** k >= n`` (``n >= 1``), exactly."""
    r = 1 << -(-n.bit_length() // k)  # r ** k >= 2 ** bit_length > n
    while True:
        # Integer Newton steps from above descend to the floor root.
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r if r**k >= n else r + 1


def polynomial_step_parameters(palette: int, delta: int) -> Tuple[int, int]:
    """Choose (degree d, prime p) minimizing the new palette ``p**2``.

    Requires ``p >= delta * d + 1`` and ``p ** (d + 1) >= palette`` so
    that distinct colors map to distinct polynomials and a free point
    always exists.  Ties go to the smallest ``d``.

    Degree ``d`` takes the smallest prime ``>= max(q_d, r_d)``, where
    ``q_d`` is the smallest prime ``>= delta * d + 1`` and ``r_d`` the
    ``(d + 1)``-th root of ``palette`` rounded up, in exact integer
    arithmetic.  Once ``r_d <= q_d`` that prime is ``q_d``, which only
    grows with ``d``, so the degrees end there.  A prime is searched for
    only at degrees whose bound ``max(q_d, r_d)`` can still beat the
    best one, so a huge palette never trial-divides near its root.
    """
    if palette < 2:
        raise ValueError("palette must be at least 2")
    bounds = []  # (lower bound on p, d)
    d = 0
    while True:
        d += 1
        floor_prime = smallest_prime_at_least(delta * d + 1)
        root = _ceil_root(palette, d + 1)
        bounds.append((max(floor_prime, root), d))
        if root <= floor_prime:
            break
    best: Optional[Tuple[int, int]] = None  # (p, d)
    for bound, d in sorted(bounds):
        if best is not None and (bound, d) >= best:
            break
        p = smallest_prime_at_least(bound)
        if best is None or (p, d) < best:
            best = (p, d)
    return best[1], best[0]


def polynomial_color_reduction_step(
    graph: Graph, colors: Sequence[int], palette: int, delta: int
) -> Tuple[List[int], int]:
    """One round of polynomial color reduction.

    Returns the new colors (all below the returned new palette bound)
    and that bound ``p ** 2``.
    """
    d, p = polynomial_step_parameters(palette, delta)

    def code(color: int) -> List[int]:
        # Base-p digits of the color are the polynomial's coefficients.
        coeffs = []
        value = color
        for _ in range(d + 1):
            coeffs.append(value % p)
            value //= p
        return [sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p for x in range(p)]

    codes = [code(colors[v]) for v in graph.nodes()]
    adj = graph.adjacency_rows()
    new_colors: List[int] = []
    for v in graph.nodes():
        mine = codes[v]
        taken = set()
        for u in adj[v]:
            their = codes[u]
            for x in range(p):
                if their[x] == mine[x]:
                    taken.add(x)
        free = next(x for x in range(p) if x not in taken)
        new_colors.append(free * p + mine[free])
    return new_colors, p * p


def linial_coloring(
    graph: Graph, ids: Sequence[int], id_space: Optional[int] = None
) -> ProperColoringResult:
    """Proper (Delta+1)-coloring in O(log* n) + O_Delta(1) rounds."""
    n = graph.n
    delta = graph.max_degree()
    if delta == 0:
        return ProperColoringResult(colors=[0] * n, rounds=0, palette_trajectory=[1])
    if id_space is None:
        id_space = max(max(ids), n)
    colors = [i - 1 for i in ids]
    palette = id_space
    trajectory = [palette]
    rounds = 0

    # Phase 1: polynomial reduction until the palette stops shrinking.
    while True:
        new_colors, new_palette = polynomial_color_reduction_step(
            graph, colors, palette, delta
        )
        if new_palette >= palette:
            break
        colors, palette = new_colors, new_palette
        trajectory.append(palette)
        rounds += 1

    # Phase 2: eliminate classes Delta+1 .. palette-1 greedily, one per round.
    for cls in range(palette - 1, delta, -1):
        fresh = list(colors)
        for v in graph.nodes():
            if colors[v] == cls:
                used = {colors[u] for u in graph.neighbors(v)}
                fresh[v] = min(c for c in range(delta + 1) if c not in used)
        colors = fresh
        rounds += 1

    for v in graph.nodes():
        for u in graph.neighbors(v):
            if colors[u] == colors[v]:
                raise AssertionError("Linial pipeline produced an improper coloring (bug)")
    return ProperColoringResult(colors=colors, rounds=rounds, palette_trajectory=trajectory)
