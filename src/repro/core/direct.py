"""The engine: evaluate every computing entity, no shortcuts.

This is the one implementation of all four request kinds.  The loops
here are the former bodies of the legacy entry points
(``run_local``, ``run_view_algorithm``, ``run_edge_view_algorithm``,
``run_node_algorithm_on_oriented_graph``), moved behind the
:class:`~repro.core.engine.SimRequest` seam; the legacy functions are
now thin adapters over :class:`DirectEngine` and keep their exact
signatures, faithfulness guarantees, and tracer event streams.  Each
kind has one evaluation path; ``view`` / ``edge`` requests gather every
ball over the adjacency lists (:func:`~repro.local_model.views.gather_view`
and :func:`~repro.local_model.views.gather_edge_view`).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from ..graphs.graph import edge_key
from ..instrumentation.tracer import Tracer, effective_tracer
from ..local_model.context import NodeContext
from ..local_model.views import gather_edge_view, gather_view
from .engine import SimReport, SimRequest

__all__ = ["DirectEngine"]


#: The per-node labelings each kind reads (``finite`` validates its
#: own ``values``).
_LABELINGS = {
    "local": ("ids", "inputs"),
    "view": ("ids", "inputs", "randomness"),
    "edge": ("ids", "inputs", "randomness"),
}


def _check_labelings(request: SimRequest) -> None:
    """Every per-node labeling the kind reads has one entry per node."""
    n = request.graph.n
    for name in _LABELINGS.get(request.kind, ()):
        labels = getattr(request, name)
        if labels is not None and len(labels) != n:
            raise ValueError(f"{name} must have one entry per node")


class DirectEngine:
    """One evaluation per node / edge / entity."""

    name = "direct"

    def run(self, request: SimRequest, tracer: Optional[Tracer] = None) -> SimReport:
        """Execute ``request`` and return its :class:`SimReport`."""
        tracer = effective_tracer(tracer)
        _check_labelings(request)
        if request.kind == "local":
            return self._run_local(request, tracer)
        if request.kind == "finite":
            return self._run_finite(request, tracer)
        return self._run_entities(request, tracer)

    # -- "local": the synchronous message-passing round -----------------
    def _run_local(
        self, request: SimRequest, tracer: Optional[Tracer]
    ) -> SimReport:
        graph, algorithm = request.graph, request.algorithm
        ids, inputs = request.ids, request.inputs
        n = graph.n
        max_rounds = request.max_rounds
        if max_rounds is None:
            max_rounds = 4 * n + 16
        master = request.resolved_rng()
        delta = graph.max_degree()
        orientation = request.orientation

        contexts: List[NodeContext] = []
        for v in graph.nodes():
            port_dirs = None
            if orientation is not None:
                port_dirs = {}
                for port, u in enumerate(graph.neighbors(v)):
                    if orientation.is_labeled(v, u):
                        port_dirs[port] = orientation.direction_at(v, u)
            contexts.append(
                NodeContext(
                    degree=graph.degree(v),
                    n=n,
                    delta=delta,
                    identifier=None if ids is None else ids[v],
                    input_label=None if inputs is None else inputs[v],
                    port_directions=port_dirs,
                    rng=random.Random(master.getrandbits(64)),
                    forbid_randomness=request.deterministic,
                )
            )

        if tracer is not None:
            tracer.on_run_start("local", algorithm.name, n)

        halt_rounds: List[Optional[int]] = [None] * n
        for v in graph.nodes():
            algorithm.init(contexts[v])
            if contexts[v].halted:
                halt_rounds[v] = 0
                if tracer is not None:
                    tracer.on_halt(v, 0, contexts[v].output)

        rounds = 0
        active = [v for v in graph.nodes() if not contexts[v].halted]
        while active:
            rounds += 1
            if rounds > max_rounds:
                raise RuntimeError(
                    f"{algorithm.name}: {len(active)} nodes still running after "
                    f"{max_rounds} rounds — runaway algorithm?"
                )
            for v in active:
                contexts[v].round_number = rounds
            if tracer is not None:
                tracer.on_round_start(rounds, len(active))
            outboxes: Dict[int, Dict[int, Any]] = {}
            for v in active:
                msgs = algorithm.send(contexts[v])
                if msgs:
                    outboxes[v] = msgs
            inboxes: Dict[int, Dict[int, Any]] = {v: {} for v in active}
            for v, msgs in outboxes.items():
                for port, payload in msgs.items():
                    u = graph.endpoint(v, port)
                    delivered = not contexts[u].halted
                    if delivered:
                        inboxes[u][graph.port_to(u, v)] = payload
                    if tracer is not None:
                        tracer.on_message(v, u, port, payload, delivered)
            next_active = []
            for v in active:
                algorithm.receive(contexts[v], inboxes[v])
                if contexts[v].halted:
                    halt_rounds[v] = rounds
                    if tracer is not None:
                        tracer.on_halt(v, rounds, contexts[v].output)
                else:
                    next_active.append(v)
            active = next_active
            if tracer is not None:
                tracer.on_round_end(rounds)

        total = max((r for r in halt_rounds if r is not None), default=0)
        if tracer is not None:
            tracer.on_run_end(total)
        return SimReport(
            kind="local",
            outputs=[contexts[v].output for v in graph.nodes()],
            halt_rounds=halt_rounds,
            rounds=total,
            backend=self.name,
        )

    # -- "view"/"edge": one evaluation per entity's radius-t ball -------
    def _run_entities(
        self, request: SimRequest, tracer: Optional[Tracer]
    ) -> SimReport:
        """Gather and evaluate every node's or every edge's ball.

        A ``view`` run and an ``edge`` run are the same computation —
        evaluate a function of a radius-t ball once per computing
        entity — over a different set of entities (Lemmas 7/8 of the
        paper move between the two).  Nodes see ``B_T(v)``, evaluated
        by ``algorithm.output`` and reported as a per-node list; edges
        see ``B_t(e)``, evaluated by ``algorithm.output_fn`` and
        reported as an ``edge_key`` dict.
        """
        graph, algorithm, kind = request.graph, request.algorithm, request.kind
        if kind == "view":
            entities, gather = graph.nodes(), gather_view
            radius = rounds = algorithm.radius
            evaluate = algorithm.output
        else:
            entities, gather = list(graph.edges()), gather_edge_view
            radius, rounds = algorithm.view_radius(), algorithm.rounds
            evaluate = algorithm.output_fn
        if tracer is not None:
            tracer.on_run_start(kind, algorithm.name, len(entities))
        outputs = []
        for entity in entities:
            view = gather(
                graph,
                entity,
                radius,
                ids=request.ids,
                inputs=request.inputs,
                randomness=request.randomness,
                orientation=request.orientation,
            )
            if tracer is not None:
                tracer.on_view(entity, view.radius, view.node_count, len(view.edges))
            outputs.append(evaluate(view))
        if tracer is not None:
            tracer.on_run_end(rounds)
        if kind == "view":
            return SimReport(
                kind="view",
                outputs=outputs,
                halt_rounds=[rounds] * len(outputs),
                rounds=rounds,
                backend=self.name,
            )
        return SimReport(
            kind="edge",
            outputs={edge_key(u, v): out for (u, v), out in zip(entities, outputs)},
            rounds=rounds,
            backend=self.name,
        )

    # -- "finite": oriented-tree algorithms on finite graphs ------------
    def _run_finite(
        self, request: SimRequest, tracer: Optional[Tracer]
    ) -> SimReport:
        # Lazy import: repro.speedup imports the core seam at module
        # scope, so the reverse edge must resolve at call time.
        from ..local_model.cache import ball_assignment_key
        from ..speedup.finite_runner import resolve_ball_tables

        graph, alg = request.graph, request.algorithm
        values, tables = request.values, request.tables
        if values is None:
            raise ValueError("finite requests need per-node random values")
        if len(values) != graph.n:
            raise ValueError("need one random value per node")
        if any(not 0 <= x < alg.values for x in values):
            raise ValueError(f"values must lie in [0, {alg.values})")
        if tables is None:
            if request.orientation is None:
                raise ValueError(
                    "finite requests need an orientation (or precomputed tables)"
                )
            tables = resolve_ball_tables(alg, graph, request.orientation)

        if tracer is not None:
            tracer.on_run_start("finite", alg.name, graph.n)
            ball_size = len(alg.ball.words)
            for v in graph.nodes():
                tracer.on_view(v, alg.t, ball_size, max(0, ball_size - 1))
        before = alg.cache.stats.copy() if tracer is not None else None
        outputs: List[Any] = [
            alg.evaluate(ball_assignment_key(values, tables[v]))
            for v in graph.nodes()
        ]
        failing = [
            v
            for v in graph.nodes()
            if graph.degree(v) > 0
            and all(outputs[u] == outputs[v] for u in graph.neighbors(v))
        ]
        if tracer is not None:
            # The algorithm's assignment cache outlives the run; report
            # only the lookups this run contributed.
            tracer.on_cache("finite", alg.cache.stats.delta(before).to_dict())
            tracer.on_run_end(alg.t)
        return SimReport(
            kind="finite",
            outputs=outputs,
            rounds=alg.t,
            failing_nodes=failing,
            backend=self.name,
        )
