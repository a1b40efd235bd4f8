"""The engine: evaluate every computing entity, no shortcuts.

This is the one implementation of all four request kinds.  The loops
here are the former bodies of the legacy entry points
(``run_local``, ``run_view_algorithm``, ``run_edge_view_algorithm``,
``run_node_algorithm_on_oriented_graph``), moved behind the
:class:`~repro.core.engine.SimRequest` seam; the legacy functions are
now thin adapters over :class:`DirectEngine` and keep their exact
signatures, faithfulness guarantees, and tracer event streams.  Each
kind has one evaluation path; for ``view`` / ``edge`` requests the
``layout`` knob only selects how balls are gathered (adjacency lists
or CSR arrays), and every layout reproduces the ``"dict"`` reference
bit for bit.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from ..instrumentation.tracer import Tracer, effective_tracer
from ..local_model.batch_views import resolve_layout
from ..local_model.context import NodeContext
from .engine import SimReport, SimRequest
from .entities import ENTITIES, Entities, labeling_of, layout_info

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
    """One evaluation per node / edge / entity.

    ``view`` / ``edge`` requests honor the request's ``layout`` knob:
    ``"auto"`` resolves to the reference ``"dict"`` path (or
    ``"implicit"`` on implicit handles), while an explicit ``"csr"``
    gathers each ball over the compiled CSR arrays — bit-identical
    reports, proven by the parity suites.
    """

    name = "direct"

    def run(self, request: SimRequest, tracer: Optional[Tracer] = None) -> SimReport:
        """Execute ``request`` and return its :class:`SimReport`."""
        tracer = effective_tracer(tracer)
        _check_labelings(request)
        if request.kind == "local":
            return self._run_local(request, tracer)
        if request.kind == "finite":
            return self._run_finite(request, tracer)
        return self._run_entities(ENTITIES[request.kind], request, tracer)

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
        self, ents: Entities, request: SimRequest, tracer: Optional[Tracer]
    ) -> SimReport:
        """Gather and evaluate every entity over the resolved layout."""
        graph, algorithm = request.graph, request.algorithm
        layout = resolve_layout(request.layout, graph)
        entities, radius = ents.entities(graph), ents.radius(algorithm)
        labeling, evaluate = labeling_of(request), ents.evaluator(algorithm)
        # Implicit handles duck-type the dict Graph API (closed-form
        # rows); the CSR gather would force a guarded full synthesis.
        gather = ents.gather if layout in ("dict", "implicit") else ents.gather_csr
        if tracer is not None:
            count = ents.count(graph)
            tracer.on_run_start(request.kind, algorithm.name, count)
            tracer.on_layout(self.name, layout, layout_info(request, count))
        outputs = []
        for entity in entities:
            view = gather(graph, entity, radius, **labeling)
            if tracer is not None:
                tracer.on_view(entity, view.radius, view.node_count, len(view.edges))
            outputs.append(evaluate(view))
        if tracer is not None:
            tracer.on_run_end(ents.rounds(algorithm))
        return ents.report(algorithm, entities, outputs, self.name)

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
