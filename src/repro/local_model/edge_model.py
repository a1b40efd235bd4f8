"""The edge-based LOCAL model of Section 5.

In the edge-centric model the *edges* are the computing entities, and two
edges can communicate iff they share an endpoint.  A t-round edge
algorithm is a function of the edge neighborhood ``B_t({u, v}) =
B_{t-1}(u) ∪ B_{t-1}(v)`` (paper convention), i.e. a node-ball radius of
``t - 1`` around each endpoint.

An ``edge`` request to :func:`repro.core.simulate` evaluates such a
functional algorithm on every edge; the message-passing equivalent
(edges relaying through shared endpoints) is intentionally not
duplicated — the equivalence is the same "views = rounds" identity as
in the node model.
"""

from __future__ import annotations

from typing import Any, Callable

from .views import View

__all__ = ["EdgeViewAlgorithm"]


class EdgeViewAlgorithm:
    """A t-round edge algorithm as a function of edge views.

    Parameters
    ----------
    rounds:
        The ``t`` in the paper's ``B_t(e)``; the view materialized for
        each edge has node-ball radius ``t - 1`` around both endpoints.
        ``rounds = 0`` gives each edge only its own two endpoints' port
        and orientation data (radius-0 balls at both ends).
    output_fn:
        Maps the edge's :class:`~repro.local_model.views.View` to its
        output label.
    name:
        Report label.
    """

    def __init__(self, rounds: int, output_fn: Callable[[View], Any], name: str = "edge-view"):
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        self.rounds = rounds
        self.output_fn = output_fn
        self.name = name

    def view_radius(self) -> int:
        """Node-ball radius around each endpoint for this algorithm."""
        return max(0, self.rounds - 1)
