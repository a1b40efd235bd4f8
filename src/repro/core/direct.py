"""The engine: evaluate every computing entity, no shortcuts.

This is the one implementation of all four request kinds.  The loops
here are the former bodies of the legacy entry points
(``run_local``, ``run_view_algorithm``, ``run_edge_view_algorithm``,
``run_node_algorithm_on_oriented_graph``), moved behind the
:class:`~repro.core.engine.SimRequest` seam; the legacy functions are
now thin adapters over :class:`DirectEngine` and keep their exact
signatures, faithfulness guarantees, and tracer event streams.  The
request's ``layout`` knob selects how balls are gathered (adjacency
lists, CSR arrays, a vectorized kernel); every layout reproduces the
``"dict"`` reference bit for bit.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from ..instrumentation.tracer import Tracer, effective_tracer
from ..local_model import kernels as _kernels
from ..local_model.batch_views import expander_for, resolve_layout
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
    gathers each ball over the compiled CSR arrays and ``"kernel"``
    evaluates one vectorized class table — bit-identical reports,
    proven by the parity suites.
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
    def _run_local_kernel(
        self, request: SimRequest, tracer: Optional[Tracer]
    ) -> SimReport:
        """The vectorized round-kernel path (raises KernelUnsupported
        back to :meth:`_run_local` when the kernel declines)."""
        algorithm, n = request.algorithm, request.graph.n
        outputs, halt_rounds, rounds = _kernels.run_local_kernel(
            algorithm, request
        )
        if tracer is not None:
            tracer.on_run_start("local", algorithm.name, n)
            tracer.on_kernel(
                "local", algorithm.name,
                {"path": "vectorized", "reason": None,
                 "entities": n, "rounds": rounds},
            )
            tracer.on_run_end(rounds)
        return SimReport(
            kind="local",
            outputs=outputs,
            halt_rounds=halt_rounds,
            rounds=rounds,
            backend=self.name,
            info={"kernel": "vectorized"},
        )

    def _run_local(
        self, request: SimRequest, tracer: Optional[Tracer]
    ) -> SimReport:
        kernel_reason: Optional[str] = None
        if request.layout == "kernel":
            # Falls back to the loop below exactly when the kernel declines.
            try:
                return self._run_local_kernel(request, tracer)
            except _kernels.KernelUnsupported as exc:
                kernel_reason = str(exc)
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
            if kernel_reason is not None:
                tracer.on_kernel(
                    "local", algorithm.name,
                    {"path": "fallback", "reason": kernel_reason,
                     "entities": n},
                )

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
        info: Dict[str, Any] = {}
        if kernel_reason is not None:
            info = {"kernel": "fallback", "kernel_reason": kernel_reason}
        return SimReport(
            kind="local",
            outputs=[contexts[v].output for v in graph.nodes()],
            halt_rounds=halt_rounds,
            rounds=total,
            backend=self.name,
            info=info,
        )

    # -- "view"/"edge": one evaluation per entity's radius-t ball -------
    def _run_entities(
        self, ents: Entities, request: SimRequest, tracer: Optional[Tracer]
    ) -> SimReport:
        """Resolve the layout, then evaluate the kind's entities.

        ``layout="kernel"`` evaluates one class table
        (:meth:`_run_kernel`); every other layout gathers and evaluates
        each entity (:meth:`_evaluate`).
        """
        graph, algorithm = request.graph, request.algorithm
        layout = resolve_layout(request.layout, graph)
        if tracer is not None:
            tracer.on_run_start(request.kind, algorithm.name, ents.count(graph))
        if layout == "kernel":
            report = self._run_kernel(ents, request, tracer)
        else:
            report = self._evaluate(ents, request, layout, tracer)
        if tracer is not None:
            tracer.on_run_end(ents.rounds(algorithm))
        return report

    def _run_kernel(
        self, ents: Entities, request: SimRequest, tracer: Optional[Tracer]
    ) -> SimReport:
        """One partition, one vectorized class table, one broadcast.

        When the algorithm has no registered kernel — or its kernel
        declines — each class representative is evaluated the reference
        way instead, so the layout is available for every algorithm.
        """
        graph, algorithm = request.graph, request.algorithm
        entities, radius = ents.entities(graph), ents.radius(algorithm)
        count, labeling = ents.count(graph), labeling_of(request)
        part = ents.classes(expander_for(graph, "kernel"), entities, radius, labeling)
        if tracer is not None:
            tracer.on_layout(
                self.name, "kernel", layout_info(request, count, part)
            )
        try:
            table = _kernels.run_view_kernel(algorithm, part)
            kinfo = {"path": "vectorized", "reason": None}
        except _kernels.KernelUnsupported as exc:
            evaluate, table = ents.evaluator(algorithm), []
            for rep in part.reps:
                center = entities[rep]
                view = ents.gather(graph, center, radius, **labeling)
                if tracer is not None:
                    tracer.on_view(
                        center, view.radius, view.node_count, len(view.edges)
                    )
                table.append(evaluate(view))
            kinfo = {"path": "fallback", "reason": str(exc)}
        kinfo["entities"] = count
        kinfo["classes"] = part.class_count
        if tracer is not None:
            tracer.on_kernel(request.kind, algorithm.name, kinfo)
        return ents.report(
            algorithm, entities,
            _kernels.broadcast_table(table, part.labels),
            self.name,
            {"distinct_classes": part.class_count, "kernel": kinfo["path"]},
        )

    def _evaluate(
        self,
        ents: Entities,
        request: SimRequest,
        layout: str,
        tracer: Optional[Tracer],
    ) -> SimReport:
        """Gather and evaluate every entity over ``layout``'s arrays."""
        graph, algorithm = request.graph, request.algorithm
        entities, radius = ents.entities(graph), ents.radius(algorithm)
        labeling, evaluate = labeling_of(request), ents.evaluator(algorithm)
        # Implicit handles duck-type the dict Graph API (closed-form
        # rows); the CSR gather would force a guarded full synthesis.
        gather = ents.gather if layout in ("dict", "implicit") else ents.gather_csr
        if tracer is not None:
            tracer.on_layout(
                self.name, layout, layout_info(request, ents.count(graph))
            )
        outputs = []
        for entity in entities:
            view = gather(graph, entity, radius, **labeling)
            if tracer is not None:
                tracer.on_view(entity, view.radius, view.node_count, len(view.edges))
            outputs.append(evaluate(view))
        return ents.report(algorithm, entities, outputs, self.name, {})

    # -- "finite": oriented-tree algorithms on finite graphs ------------
    def _run_finite_kernel(
        self, request: SimRequest, tables, tracer: Optional[Tracer]
    ) -> SimReport:
        """The distinct-assignment kernel path (raises KernelUnsupported
        back to :meth:`_run_finite` when the kernel declines)."""
        graph, alg = request.graph, request.algorithm
        fn = _kernels.finite_kernel_for(alg)
        if fn is None:
            raise _kernels.KernelUnsupported("no-kernel")
        before = alg.cache.stats.copy() if tracer is not None else None
        outputs, failing = fn(alg, graph, request.values, tables)
        outputs, failing = list(outputs), list(failing)
        if len(outputs) != graph.n:
            raise RuntimeError(
                f"finite kernel for {type(alg).__name__} returned "
                f"{len(outputs)} outputs for {graph.n} nodes"
            )
        if tracer is not None:
            tracer.on_run_start("finite", alg.name, graph.n)
            ball_size = len(alg.ball.words)
            for v in graph.nodes():
                tracer.on_view(v, alg.t, ball_size, max(0, ball_size - 1))
            tracer.on_kernel(
                "finite", alg.name,
                {"path": "vectorized", "reason": None, "entities": graph.n},
            )
            tracer.on_cache("finite", alg.cache.stats.delta(before).to_dict())
            tracer.on_run_end(alg.t)
        return SimReport(
            kind="finite",
            outputs=outputs,
            rounds=alg.t,
            failing_nodes=failing,
            backend=self.name,
            info={"kernel": "vectorized"},
        )

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
            tables = resolve_ball_tables(alg, graph, request.orientation)

        kernel_reason: Optional[str] = None
        if request.layout == "kernel":
            try:
                return self._run_finite_kernel(request, tables, tracer)
            except _kernels.KernelUnsupported as exc:
                kernel_reason = str(exc)

        if tracer is not None:
            tracer.on_run_start("finite", alg.name, graph.n)
            if kernel_reason is not None:
                tracer.on_kernel(
                    "finite", alg.name,
                    {"path": "fallback", "reason": kernel_reason,
                     "entities": graph.n},
                )
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
        info: Dict[str, Any] = {}
        if kernel_reason is not None:
            info = {"kernel": "fallback", "kernel_reason": kernel_reason}
        return SimReport(
            kind="finite",
            outputs=outputs,
            rounds=alg.t,
            failing_nodes=failing,
            backend=self.name,
            info=info,
        )
