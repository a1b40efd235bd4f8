"""Sinkless orientation — Table 1's exponential-separation row.

Sinkless orientation (every node of degree >= 3 gets an outgoing edge)
has deterministic complexity Theta(log n) and randomized complexity
Theta(log log n) on bounded-degree graphs [Brandt et al. 2016; Ghaffari
& Su 2017; Chang-Kopelowitz-Pettie 2016].  This module provides:

* :func:`sinkless_from_pstar` — the deterministic O(log n) route this
  paper makes natural: solve the pointer problem P* (Lemma 17) and
  orient every node's pointer edge outward.  P*-happiness condition (4)
  (no backtracking) guarantees the two endpoints never fight over an
  edge's direction, and every degree-Delta node points somewhere, so on
  graphs whose degree->=3 nodes all have degree Delta (e.g. the interior
  of a Delta-regular tree) no sink remains.

* :func:`sinkless_random_repair` — the randomized baseline: orient
  uniformly at random, then let sinks push one incident edge outward
  per round until none remain.  On trees the expected repair time is
  small (pushes drift toward leaves); we *measure* it rather than claim
  the Theta(log log n) bound, whose LLL-based algorithm is out of scope
  (see EXPERIMENTS.md for the substitution note).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..graphs.graph import Graph, Edge, edge_key
from .pointer_solver import solve_pstar

__all__ = ["SinklessResult", "sinkless_from_pstar", "sinkless_random_repair"]


@dataclass
class SinklessResult:
    """An orientation (edge key -> head node) plus round accounting."""

    orientation: Dict[Edge, int]
    rounds: int

    def sinks(self, graph: Graph) -> List[int]:
        """Nodes of degree >= 3 with no outgoing edge."""
        out = []
        for v in graph.nodes():
            if graph.degree(v) < 3:
                continue
            if all(self.orientation[edge_key(v, u)] == v for u in graph.neighbors(v)):
                out.append(v)
        return out


def sinkless_from_pstar(graph: Graph, delta: int, ids: Sequence[int]) -> SinklessResult:
    """Deterministic sinkless orientation via P* pointer chains.

    Every node's pointer edge is oriented outward; unclaimed edges point
    toward the larger identifier.  Correct whenever every degree->=3
    node has degree exactly ``delta`` (low-degree nodes below 3 are
    unconstrained; *intermediate* degrees would need the homogeneous
    fallback, which the caller can detect from the returned sinks).
    """
    solution = solve_pstar(graph, delta, ids)
    orientation: Dict[Edge, int] = {}
    for u, v in graph.edges():
        orientation[edge_key(u, v)] = v if ids[v] > ids[u] else u
    for v in graph.nodes():
        label = solution.labels[v]
        if label is not None and label.p is not None:
            orientation[edge_key(v, label.p)] = label.p
    return SinklessResult(orientation=orientation, rounds=solution.rounds)


def sinkless_random_repair(
    graph: Graph,
    rng: Optional[random.Random] = None,
    max_rounds: int = 10_000,
) -> SinklessResult:
    """Randomized sinkless orientation: random start, then sink pushes.

    Round 0 orients every edge by a fair coin.  In each subsequent round
    every sink flips one uniformly-random incident edge outward (flips
    are simultaneous; an edge flipped by both endpoints settles by the
    larger node index, mimicking a symmetric tie-break).  Rounds until
    no sink remains is the measured complexity.

    Raises
    ------
    RuntimeError
        If sinks persist beyond ``max_rounds`` (never observed on the
        tree/torus families this library targets).
    """
    rng = rng or random.Random(0)
    adj = graph.adjacency_rows()
    orientation: Dict[Edge, int] = {}
    # A sink is a node of degree >= 3 whose out-degree is 0.
    out_degree = [0] * graph.n
    for u, v in graph.edges():  # canonical keys, u < v
        if rng.random() < 0.5:
            orientation[u, v] = v
            out_degree[u] += 1
        else:
            orientation[u, v] = u
            out_degree[v] += 1

    sinks = [v for v in graph.nodes() if out_degree[v] == 0 and len(adj[v]) >= 3]
    rounds = 0
    while sinks:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(f"sink repair did not converge in {max_rounds} rounds")
        flips: Dict[Edge, int] = {}
        for v in sinks:
            u = adj[v][rng.randrange(len(adj[v]))]
            key = edge_key(v, u)
            # Simultaneous flips on one edge settle toward the larger node.
            if key in flips:
                flips[key] = max(flips[key], u)
            else:
                flips[key] = u
        for key, head in flips.items():
            # The sink that flipped was the edge's head; it becomes the tail.
            out_degree[orientation[key]] += 1
            out_degree[head] -= 1
            orientation[key] = head
        # A flip changes the out-degree of its two endpoints only: the
        # sink that flipped and the edge's new head.  Every other node was
        # no sink and stays none.  Ascending order keeps the draws of a
        # full rescan.
        touched = set(sinks)
        touched.update(flips.values())
        sinks = [v for v in sorted(touched) if out_degree[v] == 0 and len(adj[v]) >= 3]
    return SinklessResult(orientation=orientation, rounds=rounds)
