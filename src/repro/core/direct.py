"""The engine: evaluate every computing entity, no shortcuts.

This is the one implementation of all four request kinds, behind the
:class:`~repro.core.engine.SimRequest` seam.  Each kind has one
evaluation path; ``view`` / ``edge`` requests gather every ball over
the adjacency lists (:func:`~repro.local_model.views.gather_view` and
:func:`~repro.local_model.views.gather_edge_view`).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from ..graphs.graph import edge_key
from ..instrumentation.sizes import estimate_size
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

    def run(self, request: SimRequest, tracer: Optional[Tracer] = None) -> SimReport:
        """Execute ``request`` and return its :class:`SimReport`."""
        tracer = effective_tracer(tracer)
        _check_labelings(request)
        if request.kind == "local":
            return self._run_message_passing(request, tracer)
        if request.kind == "finite":
            return self._run_finite(request, tracer)
        return self._run_entities(request, tracer)

    # -- "local": the synchronous message-passing round -----------------
    def _run_message_passing(
        self, request: SimRequest, tracer: Optional[Tracer]
    ) -> SimReport:
        """Run a :class:`~repro.local_model.algorithm.LocalAlgorithm` to completion.

        The report holds every node's output (``UNSET`` if it never
        produced one), the round each node halted in (0 before any
        communication, ``None`` if it never halted), and ``rounds``,
        the largest halting round: the algorithm's running time.

        Faithfulness guarantees:

        * nodes exchange messages only along edges, one message per port
          per round, delivered synchronously;
        * a node that has halted is silent from the next round on;
        * per-node randomness is private and derived from independent
          streams of the request's master RNG;
        * deterministic runs poison the RNG so accidental randomness
          raises.

        ``max_rounds`` defaults to ``4 * n + 16``: any LOCAL problem is
        solvable in ``O(n)`` rounds, so a correct algorithm that exceeds
        it on a connected graph is looping, and the run raises
        ``RuntimeError``.
        """
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
            tracer.on_event("run_start", engine="local", algorithm=algorithm.name, n=n)

        halt_rounds: List[Optional[int]] = [None] * n
        for v in graph.nodes():
            algorithm.init(contexts[v])
            if contexts[v].halted:
                halt_rounds[v] = 0
                if tracer is not None:
                    tracer.on_event("halt", node=v, round=0, output=contexts[v].output)

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
                tracer.on_event("round_start", round=rounds, active=len(active))
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
                        tracer.on_event(
                            "message", sender=v, receiver=u, port=port,
                            bits=estimate_size(payload), delivered=delivered,
                            payload=payload,
                        )
            next_active = []
            for v in active:
                algorithm.receive(contexts[v], inboxes[v])
                if contexts[v].halted:
                    halt_rounds[v] = rounds
                    if tracer is not None:
                        tracer.on_event(
                            "halt", node=v, round=rounds, output=contexts[v].output
                        )
                else:
                    next_active.append(v)
            active = next_active
            if tracer is not None:
                tracer.on_event("round_end", round=rounds)

        total = max((r for r in halt_rounds if r is not None), default=0)
        if tracer is not None:
            tracer.on_event("run_end", rounds=total)
        return SimReport(
            kind="local",
            outputs=[contexts[v].output for v in graph.nodes()],
            halt_rounds=halt_rounds,
            rounds=total,
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
            tracer.on_event(
                "run_start", engine=kind, algorithm=algorithm.name, n=len(entities)
            )
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
                tracer.on_event(
                    "view", center=entity, radius=view.radius,
                    nodes=view.node_count, edges=len(view.edges),
                )
            outputs.append(evaluate(view))
        if tracer is not None:
            tracer.on_event("run_end", rounds=rounds)
        if kind == "view":
            return SimReport(
                kind="view",
                outputs=outputs,
                halt_rounds=[rounds] * len(outputs),
                rounds=rounds,
            )
        return SimReport(
            kind="edge",
            outputs={edge_key(u, v): out for (u, v), out in zip(entities, outputs)},
            rounds=rounds,
        )

    # -- "finite": oriented-tree algorithms on finite graphs ------------
    def _run_finite(
        self, request: SimRequest, tracer: Optional[Tracer]
    ) -> SimReport:
        """Evaluate every node of every trial in ``request.batch``.

        A request with ``values`` is the batch of one, and its report
        unwraps that trial's outputs and failing nodes.  The values and
        the tables are checked once per batch, not once per trial.  A
        traced run reports its memo lookups as one ``cache`` event,
        read off how much the algorithm's ``memo`` grew.
        """
        graph, alg = request.graph, request.algorithm
        batch, tables = request.batch, request.tables
        if batch is None:
            if request.values is None:
                raise ValueError("finite requests need per-node random values")
            batch = (request.values,)
        elif request.values is not None:
            raise ValueError("finite requests take values or a batch, not both")
        n = graph.n
        if any(len(values) != n for values in batch):
            raise ValueError("need one random value per node")
        if n and batch and not (
            0 <= min(map(min, batch)) and max(map(max, batch)) < alg.values
        ):
            raise ValueError(f"values must lie in [0, {alg.values})")
        if tables is None:
            raise ValueError(
                "finite requests need ball tables (from resolve_ball_tables)"
            )
        # The keys below zip the rows, which would cut them to the shortest.
        if len(tables) != n or len(set(map(len, tables))) > 1:
            raise ValueError("tables must hold one row per node, all of one length")
        # Empty rows would zip to no keys at all, not to one per node.
        if n and not tables[0]:
            raise ValueError("tables: the rows are empty, but every ball holds its centre")
        # A negative entry would read from the end of the values, and one
        # of n or more would raise IndexError halfway through the keys.
        for v, row in enumerate(tables):
            for u in row:
                if not 0 <= u < n:
                    raise ValueError(
                        f"tables: node {v}'s entry {u} is not a node in 0..{n - 1}"
                    )

        if tracer is not None:
            tracer.on_event("run_start", engine="finite", algorithm=alg.name, n=n)
            ball_size = len(alg.ball.words)
            for v in graph.nodes():
                tracer.on_event(
                    "view", center=v, radius=alg.t, nodes=ball_size,
                    edges=max(0, ball_size - 1),
                )
        classes_before = len(alg.memo)
        # Column i of the tables: the node each node's i-th ball word
        # reaches.
        columns = list(zip(*tables))
        rows = graph.adjacency_rows()
        stop = request.first_failure_only
        trial_outputs: List[Any] = []
        trial_failing: List[Any] = []
        for values in batch:
            # Every node's ball_assignment_key, built in C: each column
            # is mapped to its values, and zip joins the columns into one
            # tuple per node (a 1-tuple for a one-word ball).  One memo
            # pass answers all of them.
            value_at = values.__getitem__
            keys = list(zip(*[map(value_at, column) for column in columns]))
            outputs: List[Any] = alg.evaluate_many(keys)
            # v fails when it has neighbors and every one copies its output.
            failing = []
            for v, row in enumerate(rows):
                if row:
                    out = outputs[v]
                    for u in row:
                        if not outputs[u] == out:
                            break
                    else:
                        failing.append(v)
                        if stop:
                            break
            trial_outputs.append(outputs)
            trial_failing.append(failing)
        if tracer is not None:
            # One lookup per node per trial, and each miss stores one new
            # key, so the memo's growth during this run is its misses
            # (the memo outlives the run).
            lookups = n * len(batch)
            misses = len(alg.memo) - classes_before
            hits = lookups - misses
            tracer.on_event(
                "cache", engine="finite", lookups=lookups, hits=hits,
                misses=misses, distinct_classes=misses,
                hit_rate=hits / lookups if lookups else 0.0,
            )
            tracer.on_event("run_end", rounds=alg.t)
        if request.batch is None:  # the batch of one, unwrapped
            trial_outputs, trial_failing = trial_outputs[0], trial_failing[0]
        return SimReport(
            kind="finite",
            outputs=trial_outputs,
            rounds=alg.t,
            failing_nodes=trial_failing,
        )
