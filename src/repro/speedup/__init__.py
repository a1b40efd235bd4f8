"""The speedup simulation engine (Sections 5-7), executable."""

from .ball import (
    Direction,
    Word,
    inverse,
    all_directions,
    reduce_word,
    OrientedBall,
    ball_assignment_key,
    EdgeBall,
)
from .algorithms import (
    NodeAlgorithm,
    EdgeAlgorithm,
    zero_round_uniform,
    local_maximum_coloring,
    smaller_count_coloring,
    two_round_local_maximum,
    parity_coloring,
)
from .failure import FailureEstimate, node_local_failure, edge_local_failure
from .transform import (
    first_speedup,
    second_speedup,
    paper_threshold_first,
    paper_threshold_second,
    first_lemma_bound,
    second_lemma_bound,
)
from .pipeline import PipelineStage, SpeedupPipelineResult, run_speedup_pipeline
from .finite_runner import resolve_ball_tables, estimate_global_success

__all__ = [
    "Direction",
    "Word",
    "inverse",
    "all_directions",
    "reduce_word",
    "OrientedBall",
    "ball_assignment_key",
    "EdgeBall",
    "NodeAlgorithm",
    "EdgeAlgorithm",
    "zero_round_uniform",
    "local_maximum_coloring",
    "smaller_count_coloring",
    "two_round_local_maximum",
    "parity_coloring",
    "FailureEstimate",
    "node_local_failure",
    "edge_local_failure",
    "first_speedup",
    "second_speedup",
    "paper_threshold_first",
    "paper_threshold_second",
    "first_lemma_bound",
    "second_lemma_bound",
    "PipelineStage",
    "SpeedupPipelineResult",
    "run_speedup_pipeline",
    "resolve_ball_tables",
    "estimate_global_success",
]
