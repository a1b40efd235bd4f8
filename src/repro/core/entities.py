"""Entity adapters: the node and edge view models as one computation.

A ``view`` run and an ``edge`` run are the same computation — evaluate
a function of a radius-t ball once per computing entity — applied over
a different set of entities (Lemmas 7/8 of the paper move between the
two).  The engine therefore writes the run once, against an
:class:`Entities` adapter, and :data:`ENTITIES` picks the adapter from
the request kind:

=================  ============================  ==============================
                   :data:`NODES` (``"view"``)    :data:`EDGES` (``"edge"``)
=================  ============================  ==============================
entities, count    ``graph.nodes()``, ``n``      ``list(graph.edges())``, ``m``
radius             ``algorithm.radius``          ``algorithm.view_radius()``
evaluation         ``algorithm.output``          ``algorithm.output_fn``
gather             ``gather_view`` ...           ``gather_edge_view`` ...
report             per-node list, halt rounds    ``edge_key`` dict,
                   ``[radius] * n``              ``rounds=algorithm.rounds``
=================  ============================  ==============================
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

from ..graphs.graph import edge_key
from ..local_model.batch_views import gather_edge_view_csr, gather_view_csr
from ..local_model.views import gather_edge_view, gather_view
from .engine import SimReport, SimRequest

__all__ = [
    "Entities",
    "NODES",
    "EDGES",
    "ENTITIES",
    "labeling_of",
    "layout_info",
]


class Entities:
    """How one request kind enumerates, views, and reports its entities.

    ``gather`` and ``gather_csr`` are the kind's two ball gatherers
    (adjacency lists and compiled CSR arrays); both take
    ``(graph, entity, radius, **labeling)``.
    """

    def __init__(
        self,
        gather: Callable[..., Any],
        gather_csr: Callable[..., Any],
    ):
        self.gather = gather
        self.gather_csr = gather_csr

    def entities(self, graph: Any) -> Sequence[Any]:
        """The run's entities, in report order."""
        raise NotImplementedError

    def count(self, graph: Any) -> int:
        """How many entities the run has."""
        raise NotImplementedError

    def radius(self, algorithm: Any) -> int:
        """The radius of the ball each entity sees."""
        raise NotImplementedError

    def evaluator(self, algorithm: Any) -> Callable[[Any], Any]:
        """The function from one gathered view to its output."""
        raise NotImplementedError

    def rounds(self, algorithm: Any) -> int:
        """The run's round count (the ``on_run_end`` argument)."""
        raise NotImplementedError

    def report(
        self,
        algorithm: Any,
        entities: Sequence[Any],
        outputs: List[Any],
        backend: str,
    ) -> SimReport:
        """The :class:`SimReport` for per-entity ``outputs``."""
        raise NotImplementedError


class _Nodes(Entities):
    def entities(self, graph: Any) -> Sequence[int]:
        return graph.nodes()

    def count(self, graph: Any) -> int:
        return graph.n

    def radius(self, algorithm: Any) -> int:
        return algorithm.radius

    def evaluator(self, algorithm: Any) -> Callable[[Any], Any]:
        return algorithm.output

    def rounds(self, algorithm: Any) -> int:
        return algorithm.radius

    def report(self, algorithm, entities, outputs, backend):
        radius = algorithm.radius
        return SimReport(
            kind="view",
            outputs=outputs,
            halt_rounds=[radius] * len(outputs),
            rounds=radius,
            backend=backend,
        )


class _Edges(Entities):
    def entities(self, graph: Any) -> Sequence[Any]:
        return list(graph.edges())

    def count(self, graph: Any) -> int:
        return graph.m

    def radius(self, algorithm: Any) -> int:
        return algorithm.view_radius()

    def evaluator(self, algorithm: Any) -> Callable[[Any], Any]:
        return algorithm.output_fn

    def rounds(self, algorithm: Any) -> int:
        return algorithm.rounds

    def report(self, algorithm, entities, outputs, backend):
        return SimReport(
            kind="edge",
            outputs={
                edge_key(u, v): out for (u, v), out in zip(entities, outputs)
            },
            rounds=algorithm.rounds,
            backend=backend,
        )


#: Every node computes from its radius-T ball (``view`` requests).
NODES: Entities = _Nodes(gather_view, gather_view_csr)
#: Every edge computes from ``B_t(e)`` (``edge`` requests, Section 5).
EDGES: Entities = _Edges(gather_edge_view, gather_edge_view_csr)
#: Request kind -> adapter.
ENTITIES: Dict[str, Entities] = {"view": NODES, "edge": EDGES}


def labeling_of(request: SimRequest) -> Dict[str, Any]:
    """The request's per-node labelings, as gather keywords."""
    return {
        "ids": request.ids,
        "inputs": request.inputs,
        "randomness": request.randomness,
        "orientation": request.orientation,
    }


def layout_info(request: SimRequest, count: int) -> Dict[str, Any]:
    """The ``on_layout`` payload: the requested layout and entity count."""
    return {"requested": request.layout, "entities": count}
