"""Weak 2-coloring on cycles, in the window formalism — exact thresholds.

The neighborhood-graph method of :mod:`repro.lowerbounds.linial` adapts
to *weak* coloring: a t-round weak c-coloring algorithm for directed
cycles with identifier space ``{1..m}`` is a table ``f: windows ->
colors`` such that for every realizable run of ``2t + 3`` distinct
identifiers, the center window's color differs from at least one of its
two neighbor windows' colors (a ternary constraint, where proper
coloring had a binary one — hypergraph instead of graph coloring).

Exact consequences, machine-checked here:

* **Zero rounds**: a weak 2-coloring table on singleton windows exists
  iff no three distinct identifiers share a color — i.e. iff
  ``m <= 4`` (split 2 + 2).  Contrast χ(N_0(m)) = m for proper
  coloring: weak coloring is *strictly easier*, exactly the theme the
  paper builds on.
* **One round**: tables exist iff ``m <= 8`` — again easier than
  proper 3-coloring, which dies at m = 7.  At m = 9 the RUP checker
  replays the hints of the clause-learning prover's refutation.

Searches are CNF for :mod:`repro.lowerbounds.cnf`, each answer checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import cnf
from .linial import Window, window_of, _windows

__all__ = [
    "weak_constraints",
    "weak_table_exists",
    "WeakCycleAlgorithm",
    "zero_round_weak2_threshold",
]


def weak_constraints(m: int, t: int) -> Tuple[List[Window], List[Tuple[int, int, int]]]:
    """Windows and ternary weak-coloring constraints for ``(m, t)``.

    Each constraint ``(prev, center, next)`` (window indices) forbids
    ``f(prev) == f(center) == f(next)``; one constraint per run of
    ``2t + 3`` distinct identifiers.
    """
    windows = _windows(m, t)
    index: Dict[Window, int] = {w: i for i, w in enumerate(windows)}
    length = 2 * t + 3
    if length > m:
        raise ValueError(
            f"constraints need runs of {length} distinct identifiers; m >= {length}"
        )
    constraints = []
    for run in itertools.permutations(range(1, m + 1), length):
        prev_w = run[0 : 2 * t + 1]
        center_w = run[1 : 2 * t + 2]
        next_w = run[2 : 2 * t + 3]
        constraints.append((index[prev_w], index[center_w], index[next_w]))
    return windows, constraints


def weak_table_exists(
    m: int, t: int, colors: int = 2
) -> Optional[List[int]]:
    """An exact weak-c-coloring window table, or ``None`` — proven.

    The constraints become CNF for the prover of
    :mod:`repro.lowerbounds.cnf`: at least one color per window, and per
    constraint and color one clause forbidding all three windows in that
    color.  With two colors that is one variable per window (true means
    color 1).  Window 0's color is fixed to 0, which is sound because
    renaming the colors maps every table to a table.  A model is decoded
    to each window's smallest color and returned only after every
    constraint is checked; ``None`` is returned only after
    :func:`~repro.lowerbounds.cnf.check_rup` accepts the refutation, and
    a rejected one raises.
    """
    if colors < 1:
        raise ValueError(f"need at least one color, got {colors}")
    windows, constraints = weak_constraints(m, t)
    n = len(windows)
    # lacks[w][k]: the literal "window w does not take color k".
    if colors == 2:
        lacks = [(w, -w) for w in range(1, n + 1)]
        clauses: List[Tuple[int, ...]] = []
    else:
        lacks = [tuple(range(-w * colors - 1, -w * colors - colors - 1, -1)) for w in range(n)]
        clauses = [tuple(-lit for lit in row) for row in lacks]
    num_vars = n if colors == 2 else n * colors
    clauses.append((-lacks[0][0],))
    for a, b, c in constraints:
        clauses.extend(zip(lacks[a], lacks[b], lacks[c]))
    model, proof = cnf.solve(num_vars, clauses)
    if model is None:
        if not cnf.check_rup(num_vars, clauses, proof):
            raise RuntimeError(f"the weak {colors}-coloring refutation failed its RUP check")
        return None
    table = [next(k for k, lit in enumerate(row) if model[abs(lit)] != (lit > 0)) for row in lacks]
    if any(table[a] == table[b] == table[c] for a, b, c in constraints):
        raise RuntimeError("the prover's table violates a weak-coloring constraint")
    return table


@dataclass
class WeakCycleAlgorithm:
    """A t-round weak-coloring cycle algorithm from a window table."""

    t: int
    m: int
    table: Dict[Window, int]

    def run(self, ids: Sequence[int]) -> List[int]:
        """Weakly color a directed cycle given its identifier sequence."""
        n = len(ids)
        if len(set(ids)) != n:
            raise ValueError("identifiers must be distinct")
        return [self.table[window_of(ids, v, self.t)] for v in range(n)]

    @classmethod
    def from_search(cls, m: int, t: int, colors: int = 2) -> "WeakCycleAlgorithm":
        """Search for a table and package it; raises if none exists."""
        table = weak_table_exists(m, t, colors)
        if table is None:
            raise ValueError(f"no {colors}-color weak table exists for m={m}, t={t}")
        windows, _ = weak_constraints(m, t)
        return cls(t=t, m=m, table={w: table[i] for i, w in enumerate(windows)})


def zero_round_weak2_threshold(max_m: int = 8) -> int:
    """The largest m with a 0-round weak 2-coloring table (exactly 4).

    For m <= 4 the identifiers split 2 + 2 and no three distinct ones
    share a color; from m = 5 the pigeonhole forces a monochromatic
    triple, which some cycle realizes consecutively.
    """
    best = 0
    for m in range(3, max_m + 1):
        if weak_table_exists(m, 0) is not None:
            best = m
    return best
