"""Linial's neighborhood-graph world, measured exactly.

Three exhibits around the equivalence "t-round c-coloring of directed
cycles with identifier space m  <=>  chi(N_t(m)) <= c":

1. **Zero rounds are hopeless**: ``N_0(m) = K_m``, so chi = m exactly —
   a 0-round algorithm needs the whole identifier space as its palette.
2. **One round collapses the palette**: exact chromatic numbers of
   ``N_1(m)`` for small m, including the sharp threshold — ``N_1(6)``
   is 3-colorable but ``N_1(7)`` is **not** (a machine-checked
   impossibility: no 1-round algorithm 3-colors directed cycles with
   identifiers from {1..7}).
3. **Colorings are algorithms**: any proper coloring of ``N_t(m)``
   converts into a runnable cycle algorithm, validated on random
   identifier assignments — the equivalence, executed in both
   directions.

This is the "first flavor" of speedup argument the paper's introduction
contrasts with its own (Section 1: Linial [17], Naor [18]).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..graphs.generators import cycle
from ..lcl.catalog import ProperColoring
from ..lowerbounds.linial import (
    algorithm_from_coloring,
    chromatic_number,
    is_c_colorable,
    linial_chromatic_lower_bound,
    neighborhood_graph,
)

__all__ = ["LinialPoint", "LinialResult", "run_linial_experiment"]


@dataclass
class LinialPoint:
    """One (m, t) cell of the neighborhood-graph table."""

    m: int
    t: int
    vertices: int
    three_colorable: Optional[bool]
    chi: Optional[int]  # exact, when computed
    linial_bound: float


@dataclass
class LinialResult:
    """The table plus the equivalence validation."""

    points: List[LinialPoint] = field(default_factory=list)
    derived_algorithm_valid: bool = False
    threshold_checked: bool = False  # whether the N_1(7) search ran
    threshold_m: Optional[int] = None  # least m with N_1(m) not 3-colorable

    def format_table(self) -> str:
        lines = [f"{'m':>3s} {'t':>2s} {'|N_t|':>6s} {'3-colorable':>12s} "
                 f"{'chi':>4s} {'log^(2t) m':>11s}"]
        for p in self.points:
            three = "-" if p.three_colorable is None else str(p.three_colorable)
            chi = "-" if p.chi is None else str(p.chi)
            lines.append(
                f"{p.m:>3d} {p.t:>2d} {p.vertices:>6d} {three:>12s} "
                f"{chi:>4s} {p.linial_bound:>11.2f}"
            )
        if self.threshold_m is not None:
            lines.append(
                f"threshold: N_1({self.threshold_m}) is NOT 3-colorable — no "
                f"1-round 3-coloring with identifier space {self.threshold_m}"
            )
        return "\n".join(lines)


def run_linial_experiment(
    zero_round_ms: Sequence[int] = (3, 4, 5, 6),
    one_round_chi_ms: Sequence[int] = (4, 5, 6),
    check_threshold: bool = True,
    rng_seed: int = 0,
) -> LinialResult:
    """Build the table, find the 1-round threshold, validate the bridge.

    ``check_threshold`` runs the exact unsatisfiability proof that
    ``N_1(7)`` has no proper 3-coloring (about 5e4 search nodes, under
    a second).
    """
    result = LinialResult()

    # Exhibit 1: chi(N_0(m)) = m.
    for m in zero_round_ms:
        graph, _ = neighborhood_graph(m, 0)
        result.points.append(
            LinialPoint(
                m=m,
                t=0,
                vertices=graph.n,
                three_colorable=m <= 3,
                chi=chromatic_number(graph),
                linial_bound=linial_chromatic_lower_bound(m, 0),
            )
        )

    # Exhibit 2: exact chi of N_1(m) for small m; threshold at 7.
    for m in one_round_chi_ms:
        graph, _ = neighborhood_graph(m, 1)
        result.points.append(
            LinialPoint(
                m=m,
                t=1,
                vertices=graph.n,
                three_colorable=is_c_colorable(graph, 3) is not None,
                chi=chromatic_number(graph),
                linial_bound=linial_chromatic_lower_bound(m, 1),
            )
        )
    if check_threshold:
        result.threshold_checked = True
        graph7, _ = neighborhood_graph(7, 1)
        colorable = is_c_colorable(graph7, 3) is not None
        result.points.append(
            LinialPoint(
                m=7,
                t=1,
                vertices=graph7.n,
                three_colorable=colorable,
                chi=None,
                linial_bound=linial_chromatic_lower_bound(7, 1),
            )
        )
        if not colorable:
            result.threshold_m = 7

    # Exhibit 3: a proper coloring of N_1(6) is a runnable algorithm.
    graph6, windows6 = neighborhood_graph(6, 1)
    coloring = is_c_colorable(graph6, 3)
    algorithm = algorithm_from_coloring(coloring, windows6, m=6, t=1)
    rng = random.Random(rng_seed)
    valid = True
    for _ in range(20):
        n = rng.randrange(4, 7)
        ids = rng.sample(range(1, 7), n)
        ring = cycle(n) if n >= 3 else None
        if ring is None:
            continue
        out = algorithm.run(ids)
        valid &= ProperColoring(3).is_feasible(ring, out)
    result.derived_algorithm_valid = valid
    return result
