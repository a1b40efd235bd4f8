"""Classical lower-bound machinery: Linial's neighborhood graphs and
the weak-coloring window formalism, decided by a clause-learning prover
whose refutations carry hints that a separate RUP checker replays
(:mod:`.cnf`)."""

from .weak_cycle import (
    weak_constraints,
    weak_table_exists,
    WeakCycleAlgorithm,
    zero_round_weak2_threshold,
)
from .linial import (
    neighborhood_graph,
    window_of,
    CycleAlgorithm,
    algorithm_from_coloring,
    chromatic_number,
    optimal_coloring,
    is_c_colorable,
    linial_chromatic_lower_bound,
)

__all__ = [
    "neighborhood_graph",
    "window_of",
    "CycleAlgorithm",
    "algorithm_from_coloring",
    "chromatic_number",
    "optimal_coloring",
    "is_c_colorable",
    "linial_chromatic_lower_bound",
    "weak_constraints",
    "weak_table_exists",
    "WeakCycleAlgorithm",
    "zero_round_weak2_threshold",
]
