"""Constructive algorithms from the paper and the classical baselines."""

from .cole_vishkin import (
    cv_step,
    cv_iterations_needed,
    is_proper_on_pseudoforest,
    reduce_to_three_colors,
)
from .weak_coloring import (
    WeakTwoColoringResult,
    distance_parity_recoloring,
    choose_successors,
    mis_on_pseudoforest,
    weak_two_coloring_from_weak_coloring,
    weak_two_coloring_from_ids,
    WHITE,
    BLACK,
)
from .naor_stockmeyer import (
    in_degree_labeling,
    order_type_labeling,
    is_distance_k_weak,
    odd_degree_weak_two_coloring,
)
from .pointer_solver import PStarSolution, solve_pstar_partial, solve_pstar
from .proper_coloring import (
    ProperColoringResult,
    smallest_prime_at_least,
    polynomial_step_parameters,
    polynomial_color_reduction_step,
    linial_coloring,
)
from .two_coloring import TwoColoringResult, proper_two_coloring
from .sinkless import SinklessResult, sinkless_from_pstar, sinkless_random_repair
from .message_passing import (
    ColeVishkinMP,
    LubyMIS,
    GreedySequentialColoring,
    RandomizedWeakColoring,
    FloodLeaderParity,
)
from .homogeneous_solver import (
    HomogeneousSolution,
    solve_with_constant_label,
    solve_weak2_homogeneous,
    solve_all_pstar,
)
from .view_rules import (
    LocalMaximumRule,
    RandomPriorityRule,
    BallSignatureColoring,
    DegreeProfileRule,
)

__all__ = [
    "cv_step",
    "cv_iterations_needed",
    "is_proper_on_pseudoforest",
    "reduce_to_three_colors",
    "WeakTwoColoringResult",
    "distance_parity_recoloring",
    "choose_successors",
    "mis_on_pseudoforest",
    "weak_two_coloring_from_weak_coloring",
    "weak_two_coloring_from_ids",
    "WHITE",
    "BLACK",
    "in_degree_labeling",
    "order_type_labeling",
    "is_distance_k_weak",
    "odd_degree_weak_two_coloring",
    "PStarSolution",
    "solve_pstar_partial",
    "solve_pstar",
    "ProperColoringResult",
    "smallest_prime_at_least",
    "polynomial_step_parameters",
    "polynomial_color_reduction_step",
    "linial_coloring",
    "TwoColoringResult",
    "proper_two_coloring",
    "SinklessResult",
    "sinkless_from_pstar",
    "sinkless_random_repair",
    "ColeVishkinMP",
    "LubyMIS",
    "GreedySequentialColoring",
    "RandomizedWeakColoring",
    "FloodLeaderParity",
    "HomogeneousSolution",
    "solve_with_constant_label",
    "solve_weak2_homogeneous",
    "solve_all_pstar",
    "LocalMaximumRule",
    "RandomPriorityRule",
    "BallSignatureColoring",
    "DegreeProfileRule",
]
