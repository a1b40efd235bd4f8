"""The LOCAL model: synchronous message passing, views, and edge model."""

from .algorithm import LocalAlgorithm, ViewAlgorithm
from .context import NodeContext, UNSET
from .network import ExecutionResult, run_local, run_view_algorithm
from .views import (
    View,
    gather_view,
    gather_edge_view,
    view_signature,
    edge_view_signature,
)
from .edge_model import (
    EdgeViewAlgorithm,
    EdgeExecutionResult,
    run_edge_view_algorithm,
)
from .cache import (
    CacheStats,
    KeyedCache,
    ball_assignment_key,
)
from .order_invariant import (
    order_projected_view,
    OrderInvariantProjection,
    is_order_invariant,
    order_homogeneous_failure,
)

__all__ = [
    "LocalAlgorithm",
    "ViewAlgorithm",
    "NodeContext",
    "UNSET",
    "ExecutionResult",
    "run_local",
    "run_view_algorithm",
    "View",
    "gather_view",
    "gather_edge_view",
    "view_signature",
    "edge_view_signature",
    "CacheStats",
    "KeyedCache",
    "ball_assignment_key",
    "EdgeViewAlgorithm",
    "EdgeExecutionResult",
    "run_edge_view_algorithm",
    "order_projected_view",
    "OrderInvariantProjection",
    "is_order_invariant",
    "order_homogeneous_failure",
]
