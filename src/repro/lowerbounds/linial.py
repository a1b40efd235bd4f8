"""Linial's neighborhood-graph argument, executable.

The paper's introduction describes two speedup-simulation flavors; the
first — Linial [17] and Naor [18] — argues on *neighborhood graphs*:

    A t-round algorithm coloring the directed n-cycle with identifiers
    from ``{1..m}`` sees a window of ``2t + 1`` identifiers.  Its output
    rule is exactly a node coloring of the neighborhood graph
    ``N_t(m)``: vertices are the distinct-identifier windows, with an
    edge between overlapping windows (two views that can occur at
    adjacent cycle nodes).  The rule is a correct c-coloring algorithm
    **iff** it is a *proper* c-coloring of ``N_t(m)``.

So ``chi(N_t(m)) <= c`` is *equivalent* to "c-coloring the cycle in t
rounds with identifier space m", and Linial's lower bound is the
statement ``chi(N_t(m)) >= log^(2t) m``.  This module builds ``N_t(m)``
concretely, decides c-colorability exactly (small instances; a coloring
is checked edge by edge, a refutation by a RUP checker), converts any
proper coloring of ``N_t(m)`` into a runnable cycle algorithm, and
exposes the iterated-log lower-bound evaluator — the lower-bound world
the paper generalizes away from cycles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.towers import iterated_log
from ..graphs.graph import Graph
from . import cnf

__all__ = [
    "neighborhood_graph",
    "window_of",
    "CycleAlgorithm",
    "algorithm_from_coloring",
    "chromatic_number",
    "optimal_coloring",
    "is_c_colorable",
    "linial_chromatic_lower_bound",
]

#: A radius-t window on the directed cycle: 2t+1 distinct identifiers.
Window = Tuple[int, ...]


def _windows(m: int, t: int) -> List[Window]:
    """All distinct-identifier windows of length 2t + 1 from {1..m}."""
    length = 2 * t + 1
    if length > m:
        raise ValueError(
            f"windows of {length} distinct identifiers need m >= {length}, got {m}"
        )
    return list(itertools.permutations(range(1, m + 1), length))


def neighborhood_graph(m: int, t: int) -> Tuple[Graph, List[Window]]:
    """The neighborhood graph ``N_t(m)`` plus the index -> window map.

    Vertices: windows ``(x_1, ..., x_{2t+1})`` of distinct identifiers.
    Edges: ``(x_1..x_{2t+1}) ~ (x_2..x_{2t+1}, y)`` whenever the
    concatenation keeps identifiers distinct — two such windows can be
    the views of adjacent nodes on a long directed cycle, so a correct
    algorithm must color them differently.
    """
    windows = _windows(m, t)
    index: Dict[Window, int] = {w: i for i, w in enumerate(windows)}
    graph = Graph(len(windows))
    length = 2 * t + 1
    for w in windows:
        shifted_base = w[1:]
        used = set(w)
        for y in range(1, m + 1):
            if y in used and y != w[0]:
                continue
            if y == w[0] and length > 1:
                continue  # would repeat within the successor window
            successor = shifted_base + (y,)
            if len(set(successor)) != length:
                continue
            j = index.get(successor)
            if j is not None and j != index[w] and not graph.has_edge(index[w], j):
                graph.add_edge(index[w], j)
    return graph.freeze(), windows


def window_of(ids: Sequence[int], position: int, t: int) -> Window:
    """The radius-t window of ``position`` on the directed cycle ``ids``."""
    n = len(ids)
    return tuple(ids[(position + offset) % n] for offset in range(-t, t + 1))


@dataclass
class CycleAlgorithm:
    """A t-round cycle-coloring algorithm as a window -> color table."""

    t: int
    m: int
    table: Dict[Window, int]

    def run(self, ids: Sequence[int]) -> List[int]:
        """Color a directed cycle given its identifier sequence."""
        n = len(ids)
        if len(set(ids)) != n:
            raise ValueError("identifiers must be distinct")
        if any(not 1 <= x <= self.m for x in ids):
            raise ValueError(f"identifiers must lie in 1..{self.m}")
        return [self.table[window_of(ids, v, self.t)] for v in range(n)]


def algorithm_from_coloring(
    coloring: Sequence[int], windows: Sequence[Window], m: int, t: int
) -> CycleAlgorithm:
    """Package a proper coloring of ``N_t(m)`` as a runnable algorithm."""
    return CycleAlgorithm(
        t=t, m=m, table={w: coloring[i] for i, w in enumerate(windows)}
    )


def _dsatur(graph: Graph, c: int) -> Tuple[Optional[List[int]], int]:
    """Exact DSATUR search: ``(coloring or None, search nodes explored)``.

    Branching order: the uncolored vertex with the largest saturation
    (distinct neighbor colors), then the most uncolored neighbors, then
    the smallest index.  Colors are tried in increasing order, and a
    vertex may only take a color ``< min(c, used + 1)`` where ``used``
    counts the distinct colors placed so far, so colors enter in order
    0, 1, 2, ... and no two branches differ by a color permutation
    (sound: the branching order reads only saturation counts, degrees
    and indices, all invariant under renaming colors).  A branch fails
    as soon as an uncolored vertex saturates all ``c`` colors.

    Saturation buckets (``buckets[s]`` = uncolored vertices with
    saturation ``s``) are updated in place on assign and undo, so a
    pick scans only the top bucket.  One search node is one call of the
    recursive step.
    """
    n = graph.n
    if n == 0:
        return [], 0
    adj = graph.adjacency_rows()
    colors = [-1] * n
    # seen[v][k] = colored neighbors of v with color k; sat[v] = #k seen.
    seen = [[0] * c for _ in range(n)]
    sat = [0] * n
    free = [len(row) for row in adj]  # uncolored neighbors
    buckets = [set(range(n))] + [set() for _ in range(c)]
    nodes = 0

    def search(top: int, used: int) -> bool:
        nonlocal nodes
        nodes += 1
        while top >= 0 and not buckets[top]:
            top -= 1
        if top < 0:
            return True
        bucket = buckets[top]
        v = min(bucket, key=lambda u: (-free[u], u))
        bucket.discard(v)
        row = adj[v]
        seen_v = seen[v]
        for k in range(min(c, used + 1)):
            if seen_v[k]:
                continue
            colors[v] = k
            feasible = True
            peak = top
            for u in row:
                free[u] -= 1
                if colors[u] < 0:
                    seen_u = seen[u]
                    seen_u[k] += 1
                    if seen_u[k] == 1:
                        s = sat[u]
                        buckets[s].discard(u)
                        buckets[s + 1].add(u)
                        sat[u] = s + 1
                        if s + 1 >= c:
                            feasible = False
                        elif s + 1 > peak:
                            peak = s + 1
            if feasible and search(peak, used + (k == used)):
                return True
            for u in row:
                free[u] += 1
                if colors[u] < 0:
                    seen_u = seen[u]
                    seen_u[k] -= 1
                    if not seen_u[k]:
                        s = sat[u]
                        buckets[s].discard(u)
                        buckets[s - 1].add(u)
                        sat[u] = s - 1
        colors[v] = -1
        bucket.add(v)
        return False

    return (colors if search(0, 0) else None), nodes


def _greedy_clique(graph: Graph) -> List[int]:
    """A clique grown greedily from the vertex of largest degree.

    Each step adds the common neighbor of the clique so far with the
    largest degree (ties to the smallest index), so the result does not
    depend on set order.
    """
    if graph.n == 0:
        return []
    adj = graph.adjacency_rows()

    def rank(v: int) -> Tuple[int, int]:
        return len(adj[v]), -v

    clique = [max(range(graph.n), key=rank)]
    candidates = set(adj[clique[0]])
    while candidates:
        clique.append(max(candidates, key=rank))
        candidates.intersection_update(adj[clique[-1]])
    return clique


def _coloring_cnf(
    graph: Graph, c: int, clique: Sequence[int]
) -> Tuple[List[int], List[Tuple[int, ...]]]:
    """CNF for "a proper c-coloring gives ``clique[i]`` color ``i``".

    Returns ``(rank, clauses)``: variable ``rank[v] * c + k + 1`` says
    that vertex ``v`` takes color ``k``.  There is one at-least-one
    clause per vertex, one binary clause per edge and color, and one
    unit clause per clique vertex.  Fixing the clique breaks the color
    symmetry soundly: any proper coloring gives the clique's vertices
    distinct colors, and renaming the colors maps it to one in which
    ``clique[i]`` has color ``i``.  A model may give a vertex several
    colors; each of them is proper.

    ``rank`` numbers the clique first and then the other vertices
    breadth first from it (a new root, the smallest unranked index, per
    component), so the prover's first branches, taken in variable order,
    color the graph outward from the clique.
    """
    adj = graph.adjacency_rows()
    order = list(clique)
    rank = [-1] * graph.n
    for i, v in enumerate(order):
        rank[v] = i
    head = root = 0
    while len(order) < graph.n:
        if head == len(order):
            while rank[root] >= 0:
                root += 1
            rank[root] = len(order)
            order.append(root)
        for u in adj[order[head]]:
            if rank[u] < 0:
                rank[u] = len(order)
                order.append(u)
        head += 1
    clauses: List[Tuple[int, ...]] = [tuple(range(r * c + 1, r * c + c + 1)) for r in rank]
    excluded = [tuple(range(-r * c - 1, -r * c - c - 1, -1)) for r in rank]  # "v lacks color k"
    for v, row in enumerate(adj):
        for u in row:
            if u > v:
                clauses.extend(zip(excluded[v], excluded[u]))
    clauses.extend((i * c + i + 1,) for i in range(len(clique)))
    return rank, clauses


def is_c_colorable(graph: Graph, c: int) -> Optional[List[int]]:
    """A proper c-coloring of ``graph``, or ``None`` — exact and checked.

    A greedy clique of more than ``c`` vertices refutes c-colorability
    outright (a pigeonhole certificate, checked pair by pair).  Otherwise
    the clause-learning prover of :mod:`repro.lowerbounds.cnf` decides
    :func:`_coloring_cnf`.  A model is decoded to each vertex's smallest
    color and returned only after every edge is checked proper; ``None``
    is returned only after :func:`~repro.lowerbounds.cnf.check_rup`
    accepts the prover's refutation, and a rejected one raises.  The
    prover is deterministic, so the coloring returned for a satisfiable
    graph is too.  ``N_1(7)`` at ``c = 3`` is refuted with 128 learnt
    clauses.  :func:`_dsatur` is the second, independent prover
    that the tests hold it against.
    """
    n = graph.n
    if n == 0:
        return []
    clique = _greedy_clique(graph)
    if len(clique) > c:
        if not all(graph.has_edge(u, v) for u, v in itertools.combinations(clique, 2)):
            raise RuntimeError("the greedy clique is not a clique")
        return None
    rank, clauses = _coloring_cnf(graph, c, clique)
    model, proof = cnf.solve(n * c, clauses)
    if model is None:
        if not cnf.check_rup(n * c, clauses, proof):
            raise RuntimeError(f"the {c}-coloring refutation failed its RUP check")
        return None
    coloring = [model.index(True, r * c + 1) - r * c - 1 for r in rank]
    adj = graph.adjacency_rows()
    if any(coloring[u] == coloring[v] for v in range(n) for u in adj[v]):
        raise RuntimeError(f"the prover's {c}-coloring is not proper")
    return coloring


def optimal_coloring(graph: Graph, max_c: int = 16) -> List[int]:
    """A proper coloring with the fewest colors (small graphs).

    Tries ``c = ω..max_c`` with :func:`is_c_colorable`, where ``ω`` is
    the size of a greedy clique (a lower bound), and returns the first
    coloring found; every smaller ``c`` was refuted, so it uses exactly
    ``chi`` colors.
    """
    if graph.n == 0:
        return []
    for c in range(len(_greedy_clique(graph)), max_c + 1):
        coloring = is_c_colorable(graph, c)
        if coloring is not None:
            return coloring
    raise ValueError(f"chromatic number exceeds {max_c}")


def chromatic_number(graph: Graph, max_c: int = 16) -> int:
    """The exact chromatic number: the colors :func:`optimal_coloring` uses."""
    return len(set(optimal_coloring(graph, max_c)))


def linial_chromatic_lower_bound(m: int, t: int) -> float:
    """Linial's bound ``chi(N_t(m)) >= log^(2t) m`` (evaluated).

    The iterated logarithm is taken base 2 and clamped at 1; the
    lower-bound content is that 3-colorability forces
    ``log^(2t) m <= 3``, i.e. ``t >= (log* m - O(1)) / 2``.
    """
    return iterated_log(float(m), 2 * t).to_float()
