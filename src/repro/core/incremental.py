"""The incremental backend: re-run only a delta's radius-t footprint.

:class:`IncrementalEngine` is the stateful companion to the other
backends: :meth:`IncrementalEngine.run` primes it on one
:class:`~repro.core.engine.SimRequest` (partitioning every entity into
canonical view classes and memoizing one output per class, exactly as
the cached backend does), and :meth:`IncrementalEngine.apply` then
accepts :class:`~repro.graphs.delta.GraphDelta` batches and produces
the report for the *mutated* graph by recomputing only the delta's
dirty footprint:

1.  :meth:`GraphDelta.footprint <repro.graphs.delta.GraphDelta.
    footprint>` bounds the nodes whose radius-t view can change — the
    paper's locality argument made operational (cost proportional to
    the footprint, not n).
2.  The batched expander partitions just those nodes
    (``sources=`` subset pass); subset keys live in the same key space
    as full-run keys, so every class already seen keeps its memoized
    output across mutations and only genuinely new classes are
    evaluated.
3.  The previous run's outputs are spliced: untouched entities keep
    their values, dirty entities take their (possibly memoized) class
    output, and the report's ``changed_nodes`` field lists the nodes
    whose class actually changed.

The correctness contract is absolute bit-identity with a fresh
:class:`~repro.core.direct.DirectEngine` run on the mutated graph —
proven by the delta-differential harness (``tests/differential.py``),
the conformance ``delta-identity`` check, and the hypothesis suite
(``tests/test_incremental_properties.py``).  Requests the subset pass
cannot serve (``local`` / ``finite`` kinds, oriented runs, empty
graphs) fall back to *recompute mode*: every ``apply`` re-runs the
direct backend on the mutated graph, so the contract holds everywhere
even where the footprint optimization does not apply.

See ``docs/INCREMENTAL.md`` for the delta model and the footprint
argument.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..graphs.delta import GraphDelta, GraphDeltaError
from ..graphs.graph import Edge, edge_key
from ..instrumentation.tracer import Tracer, effective_tracer
from ..local_model.batch_views import expander_for
from ..local_model.views import gather_edge_view, gather_view
from .direct import DirectEngine
from .engine import Engine, SimReport, SimRequest
from .entities import ENTITIES, layout_info

__all__ = ["IncrementalEngine"]


class _State:
    """The engine's mutable snapshot of the last materialized run."""

    __slots__ = (
        "mode",
        "request",
        "graph",
        "radius",
        "ids",
        "inputs",
        "randomness",
        "memo",
        "node_keys",
        "edge_keys",
        "outputs",
    )

    def __init__(self, mode: str, request: SimRequest, graph: Any):
        self.mode = mode  # "view" | "edge" | "recompute"
        self.request = request
        self.graph = graph
        self.radius = 0
        self.ids = list(request.ids) if request.ids is not None else None
        self.inputs = list(request.inputs) if request.inputs is not None else None
        self.randomness = (
            list(request.randomness) if request.randomness is not None else None
        )
        self.memo: Dict[Any, Any] = {}
        self.node_keys: List[Any] = []
        self.edge_keys: Dict[Edge, Any] = {}
        self.outputs: Any = None


class IncrementalEngine(Engine):
    """Stateful backend answering deltas in footprint time.

    Lifecycle: :meth:`run` primes the engine on a request (any kind —
    it behaves as a normal backend and its report is bit-identical to
    the direct backend's), then :meth:`apply` advances the primed state
    through :class:`~repro.graphs.delta.GraphDelta` batches, returning
    after each one the exact report a fresh direct run on the mutated
    graph would produce, plus ``changed_nodes``.

    One engine tracks one evolving run: priming again replaces the
    state.  Like the cached backend, the class memo is keyed by
    canonical signatures only — keep one engine per algorithm.
    """

    name = "incremental"

    def __init__(self) -> None:
        self._direct = DirectEngine()
        self._state: Optional[_State] = None

    # ------------------------------------------------------------------
    # Priming
    # ------------------------------------------------------------------
    def run(
        self, request: SimRequest, tracer: Optional[Tracer] = None
    ) -> SimReport:
        """Execute ``request`` and prime the incremental state on it."""
        tracer = effective_tracer(tracer)
        incremental_ok = (
            request.kind in ("view", "edge")
            and getattr(request.graph, "is_frozen", False)
            and request.orientation is None
            and request.graph.n > 0
        )
        if not incremental_ok:
            state = _State("recompute", request, request.graph)
            report = self._rewrap(self._direct.run(request, tracer))
            state.outputs = report.outputs
            self._state = state
            return report
        report, state = self._prime(request, tracer)
        self._state = state
        return report

    def _rewrap(self, report: SimReport) -> SimReport:
        """A direct-backend report re-badged as this engine's (identity-preserving)."""
        return replace(report, backend=self.name, info=dict(report.info))

    def _prime(
        self, request: SimRequest, tracer: Optional[Tracer]
    ) -> Tuple[SimReport, _State]:
        graph, algorithm = request.graph, request.algorithm
        ents = ENTITIES[request.kind]
        state = _State(request.kind, request, graph)
        state.radius = radius = ents.radius(algorithm)
        count, entities = ents.count(graph), ents.entities(graph)
        labeling = {
            "ids": state.ids, "inputs": state.inputs,
            "randomness": state.randomness,
        }
        if tracer is not None:
            tracer.on_run_start(request.kind, algorithm.name, count)
        part = ents.classes(expander_for(graph, "csr"), entities, radius, labeling)
        if tracer is not None:
            tracer.on_layout(self.name, "csr", layout_info(request, count, part))
        memo, evaluate = state.memo, ents.evaluator(algorithm)
        for key, rep in zip(part.keys, part.reps):
            center = entities[rep]
            view = ents.gather(graph, center, radius, **labeling)
            if tracer is not None:
                tracer.on_view(center, view.radius, view.node_count, len(view.edges))
            memo[key] = evaluate(view)
        keys = [part.keys[c] for c in part.labels]
        if request.kind == "view":
            state.node_keys = keys
        else:
            state.edge_keys = dict(zip(entities, keys))
        if tracer is not None:
            tracer.on_run_end(ents.rounds(algorithm))
        report = ents.report(
            algorithm, entities, [memo[k] for k in keys], self.name,
            {"distinct_classes": len(memo)},
        )
        state.outputs = report.outputs
        return report, state

    # ------------------------------------------------------------------
    # Introspection (read-only; the tests and docs examples use these)
    # ------------------------------------------------------------------
    @property
    def current_graph(self) -> Optional[Any]:
        """The graph of the engine's current state (``None`` if unprimed)."""
        return self._state.graph if self._state is not None else None

    def current_node_keys(self) -> Optional[Tuple[Any, ...]]:
        """Per-node canonical class keys of the current state.

        Only meaningful in view mode (``None`` otherwise).  Equal keys
        <=> equal view classes; the property suite compares this
        partition against from-scratch reference signatures.
        """
        if self._state is None or self._state.mode != "view":
            return None
        return tuple(self._state.node_keys)

    # ------------------------------------------------------------------
    # Deltas
    # ------------------------------------------------------------------
    def apply(
        self,
        delta: Union[GraphDelta, Sequence[GraphDelta]],
        tracer: Optional[Tracer] = None,
    ) -> SimReport:
        """Advance the primed run through one delta (or a sequence).

        Each delta must be built against the engine's *current* graph
        (the object identity check in :meth:`GraphDelta.apply_to
        <repro.graphs.delta.GraphDelta.apply_to>` raises
        :class:`~repro.graphs.delta.GraphDeltaError` on stale handles).
        Returns the report for the final mutated graph — bit-identical
        to a fresh direct run — with ``changed_nodes`` listing the
        nodes whose view class changed under the last delta (a
        conservative superset when the packed-stream element width
        shifts between runs; never an underestimate).
        """
        if self._state is None:
            raise GraphDeltaError(
                "apply() requires a primed engine; call run() first"
            )
        deltas = [delta] if isinstance(delta, GraphDelta) else list(delta)
        if not deltas:
            raise GraphDeltaError("apply() needs at least one delta")
        tracer = effective_tracer(tracer)
        report: Optional[SimReport] = None
        for d in deltas:
            if not isinstance(d, GraphDelta):
                raise GraphDeltaError(
                    f"apply() takes GraphDelta instances, got {type(d).__name__}"
                )
            report = self._apply_one(d, tracer)
        assert report is not None
        return report

    def _dirty_nodes(self, delta: GraphDelta, radius: int) -> List[int]:
        """The delta's dirty node set (override point for broken fixtures)."""
        return delta.footprint(radius)

    def _apply_one(
        self, delta: GraphDelta, tracer: Optional[Tracer]
    ) -> SimReport:
        state = self._state
        assert state is not None
        graph = delta.apply_to(state.graph)
        ids, inputs, randomness = delta.apply_to_labels(
            state.ids, state.inputs, state.randomness
        )
        if state.mode == "recompute":
            report = self._apply_recompute(
                state, delta, graph, ids, inputs, randomness, tracer
            )
        elif state.mode == "view":
            report = self._apply_view(
                state, delta, graph, ids, inputs, randomness, tracer
            )
        else:
            report = self._apply_edge(
                state, delta, graph, ids, inputs, randomness, tracer
            )
        state.graph = graph
        state.ids, state.inputs, state.randomness = ids, inputs, randomness
        state.outputs = report.outputs
        return report

    def _apply_view(
        self,
        state: _State,
        delta: GraphDelta,
        graph: Any,
        ids: Optional[List[int]],
        inputs: Optional[List[Any]],
        randomness: Optional[List[Any]],
        tracer: Optional[Tracer],
    ) -> SimReport:
        radius = state.radius
        algorithm = state.request.algorithm
        dirty = self._dirty_nodes(delta, radius)
        part = expander_for(graph, "csr").node_classes(
            radius, ids=ids, inputs=inputs, randomness=randomness, sources=dirty
        )
        memo = state.memo
        survivors = invalidated = 0
        for c, key in enumerate(part.keys):
            if key in memo:
                survivors += 1
                continue
            invalidated += 1
            rep = dirty[part.reps[c]]
            view = gather_view(
                graph, rep, radius,
                ids=ids, inputs=inputs, randomness=randomness,
            )
            if tracer is not None:
                tracer.on_view(rep, view.radius, view.node_count, len(view.edges))
            memo[key] = algorithm.output(view)
        outputs = list(state.outputs)
        node_keys = list(state.node_keys)
        keys = part.keys
        changed: List[int] = []
        for i, v in enumerate(dirty):
            key = keys[part.labels[i]]
            if key != node_keys[v]:
                changed.append(v)
                node_keys[v] = key
                outputs[v] = memo[key]
        state.node_keys = node_keys
        if tracer is not None:
            tracer.on_delta(
                self.name,
                {
                    "ops": len(delta.ops),
                    "footprint": len(dirty),
                    "classes_invalidated": invalidated,
                    "cache_survivors": survivors,
                    "changed_nodes": len(changed),
                    "csr_mode": delta.csr_mode,
                },
            )
        return SimReport(
            kind="view",
            outputs=outputs,
            halt_rounds=[radius] * graph.n,
            rounds=radius,
            backend=self.name,
            changed_nodes=changed,
            info={
                "distinct_classes": len(memo),
                "footprint": len(dirty),
                "csr_mode": delta.csr_mode,
            },
        )

    def _apply_edge(
        self,
        state: _State,
        delta: GraphDelta,
        graph: Any,
        ids: Optional[List[int]],
        inputs: Optional[List[Any]],
        randomness: Optional[List[Any]],
        tracer: Optional[Tracer],
    ) -> SimReport:
        radius = state.radius
        algorithm = state.request.algorithm
        fp = set(self._dirty_nodes(delta, radius))
        rows = graph.adjacency_rows()
        dirty_edges = sorted(
            {edge_key(v, u) for v in fp for u in rows[v]}
        )
        part = expander_for(graph, "csr").edge_classes(
            dirty_edges, radius,
            ids=ids, inputs=inputs, randomness=randomness,
        )
        memo = state.memo
        survivors = invalidated = 0
        for c, key in enumerate(part.keys):
            if key in memo:
                survivors += 1
                continue
            invalidated += 1
            rep = dirty_edges[part.reps[c]]
            view = gather_edge_view(
                graph, rep, radius,
                ids=ids, inputs=inputs, randomness=randomness,
            )
            if tracer is not None:
                tracer.on_view(rep, view.radius, view.node_count, len(view.edges))
            memo[key] = algorithm.output_fn(view)
        outputs = dict(state.outputs)
        edge_keys = dict(state.edge_keys)
        for op in delta.ops:
            if op[0] == "remove":
                key = edge_key(op[1], op[2])
                if not graph.has_edge(*key):
                    outputs.pop(key, None)
                    edge_keys.pop(key, None)
        keys = part.keys
        changed_edges: List[Edge] = []
        for i, e in enumerate(dirty_edges):
            key = keys[part.labels[i]]
            if edge_keys.get(e) != key:
                changed_edges.append(e)
            edge_keys[e] = key
            outputs[e] = memo[key]
        state.edge_keys = edge_keys
        changed = sorted({v for e in changed_edges for v in e})
        if tracer is not None:
            tracer.on_delta(
                self.name,
                {
                    "ops": len(delta.ops),
                    "footprint": len(fp),
                    "classes_invalidated": invalidated,
                    "cache_survivors": survivors,
                    "changed_nodes": len(changed),
                    "csr_mode": delta.csr_mode,
                },
            )
        return SimReport(
            kind="edge",
            outputs=outputs,
            rounds=algorithm.rounds,
            backend=self.name,
            changed_nodes=changed,
            info={
                "distinct_classes": len(memo),
                "footprint": len(fp),
                "csr_mode": delta.csr_mode,
            },
        )

    def _apply_recompute(
        self,
        state: _State,
        delta: GraphDelta,
        graph: Any,
        ids: Optional[List[int]],
        inputs: Optional[List[Any]],
        randomness: Optional[List[Any]],
        tracer: Optional[Tracer],
    ) -> SimReport:
        request = state.request
        if request.kind == "local" and request.rng is not None:
            raise GraphDeltaError(
                "apply() on a local-kind run requires seed-based randomness "
                "(an explicit rng object is stateful and cannot be replayed "
                "on the mutated graph); build the request with seed= instead"
            )
        new_request = replace(
            request, graph=graph, ids=ids, inputs=inputs, randomness=randomness
        )
        state.request = new_request
        report = self._rewrap(self._direct.run(new_request, tracer))
        changed = self._diff_outputs(state.outputs, report.outputs)
        if tracer is not None:
            tracer.on_delta(
                self.name,
                {
                    "ops": len(delta.ops),
                    "footprint": graph.n,
                    "classes_invalidated": 0,
                    "cache_survivors": 0,
                    "changed_nodes": len(changed),
                    "csr_mode": delta.csr_mode,
                },
            )
        report.changed_nodes = changed
        report.info["csr_mode"] = delta.csr_mode
        return report

    @staticmethod
    def _diff_outputs(old: Any, new: Any) -> List[int]:
        """Changed nodes between two output collections (recompute mode)."""
        if isinstance(new, dict):
            old = old if isinstance(old, dict) else {}
            touched_edges = (
                set(old) - set(new)
                | {e for e in new if e not in old or old[e] != new[e]}
            )
            return sorted({v for e in touched_edges for v in e})
        old_list = old if isinstance(old, list) else []
        return [
            v for v in range(len(new))
            if v >= len(old_list) or old_list[v] != new[v]
        ]
