"""Quantitative machinery: towers, recurrences, independence counting."""

from .towers import TowerNumber, tower, log_star_float, iterated_log, exp2_scaled
from .independence import (
    IndependentSetResult,
    independent_execution_set,
    claim10_set_size_bound,
    claim10_global_success_bound,
    claim10_ball_radius,
)
from .recurrence import (
    palette_trajectory,
    claim11_failure_floor_log2,
    claim12_round_threshold,
    claim12_c0_ceiling,
    claim12_failure_floor_reciprocal,
    Lemma9Evaluation,
    lemma9_evaluate,
    theorem13_crossover_height,
)

__all__ = [
    "TowerNumber",
    "tower",
    "log_star_float",
    "iterated_log",
    "exp2_scaled",
    "IndependentSetResult",
    "independent_execution_set",
    "claim10_set_size_bound",
    "claim10_global_success_bound",
    "claim10_ball_radius",
    "palette_trajectory",
    "claim11_failure_floor_log2",
    "claim12_round_threshold",
    "claim12_c0_ceiling",
    "claim12_failure_floor_reciprocal",
    "Lemma9Evaluation",
    "lemma9_evaluate",
    "theorem13_crossover_height",
]
