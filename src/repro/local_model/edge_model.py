"""The edge-based LOCAL model of Section 5.

In the edge-centric model the *edges* are the computing entities, and two
edges can communicate iff they share an endpoint.  A t-round edge
algorithm is a function of the edge neighborhood ``B_t({u, v}) =
B_{t-1}(u) ∪ B_{t-1}(v)`` (paper convention), i.e. a node-ball radius of
``t - 1`` around each endpoint.

:func:`run_edge_view_algorithm` evaluates such a functional algorithm on
every edge; the message-passing equivalent (edges relaying through shared
endpoints) is intentionally not duplicated here — the equivalence is the
same "views = rounds" identity as in the node model.  The evaluation
loop itself lives behind the engine seam
(:class:`repro.core.direct.DirectEngine`); this entry point is a
signature-stable adapter over :func:`repro.core.simulate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence

from ..graphs.graph import Graph, Edge, edge_key
from ..graphs.orientation import Orientation
from ..instrumentation.tracer import Tracer
from .views import View

__all__ = ["EdgeViewAlgorithm", "EdgeExecutionResult", "run_edge_view_algorithm"]


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


@dataclass
class EdgeExecutionResult:
    """Outcome of an edge-model execution."""

    outputs: Dict[Edge, Any]
    rounds: int

    def at(self, u: int, v: int) -> Any:
        """Output of the edge ``{u, v}``."""
        return self.outputs[edge_key(u, v)]


def run_edge_view_algorithm(
    graph: Graph,
    algorithm: EdgeViewAlgorithm,
    ids: Optional[Sequence[int]] = None,
    inputs: Optional[Sequence[Any]] = None,
    randomness: Optional[Sequence[Any]] = None,
    orientation: Optional[Orientation] = None,
    tracer: Optional[Tracer] = None,
) -> EdgeExecutionResult:
    """Evaluate an edge algorithm on every edge of ``graph``.

    An optional ``tracer`` observes one ``view`` event per edge ball
    (``center`` is the edge's ``(u, v)`` node pair).
    """
    # Lazy: the core package imports sibling local_model modules.
    from ..core.direct import DirectEngine
    from ..core.engine import SimRequest

    report = DirectEngine().run(
        SimRequest(
            kind="edge",
            graph=graph,
            algorithm=algorithm,
            ids=ids,
            inputs=inputs,
            randomness=randomness,
            orientation=orientation,
        ),
        tracer=tracer,
    )
    return report.to_edge_result()
