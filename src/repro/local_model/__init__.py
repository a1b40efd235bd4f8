"""The LOCAL model: synchronous message passing, views, and edge model."""

from .algorithm import LocalAlgorithm, ViewAlgorithm
from .context import NodeContext, UNSET
from .views import (
    View,
    gather_view,
    gather_edge_view,
    view_signature,
    edge_view_signature,
)
from .edge_model import EdgeViewAlgorithm
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
    "View",
    "gather_view",
    "gather_edge_view",
    "view_signature",
    "edge_view_signature",
    "EdgeViewAlgorithm",
    "order_projected_view",
    "OrderInvariantProjection",
    "is_order_invariant",
    "order_homogeneous_failure",
]
