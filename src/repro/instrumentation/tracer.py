"""The tracer protocol: how execution engines report what they do.

A *tracer* is a passive observer handed to an engine entry point
(:func:`~repro.local_model.network.run_local`,
:func:`~repro.local_model.network.run_view_algorithm`,
:func:`~repro.local_model.edge_model.run_edge_view_algorithm`,
:func:`~repro.speedup.finite_runner.run_node_algorithm_on_oriented_graph`,
:func:`~repro.speedup.pipeline.run_speedup_pipeline`) via the optional
``tracer=`` keyword.  Engines call the hooks below at well-defined
points; tracers never influence execution — an instrumented run must
produce the exact same :class:`~repro.local_model.network.ExecutionResult`
as an uninstrumented one.

Zero-overhead contract
----------------------
``tracer=None`` (the default) and ``tracer=NullTracer()`` are the *same
path*: engines normalize both to ``None`` via :func:`effective_tracer`
and guard every hook site with a single ``if tracer is not None``.  No
event objects are built, no sizes estimated, no clocks read.  This is
what lets the paper benchmark (``paperbench/``) time an untraced run
at full speed while the observability layer exists.

Event vocabulary
----------------
==================  ====================================================
hook                fired by
==================  ====================================================
on_run_start        every engine, once, before any work
on_round_start      message-passing engine, once per synchronous round
on_message          message-passing engine, once per sent message
on_halt             message-passing engine, when a node commits + stops
on_round_end        message-passing engine, after deliveries + receives
on_view             view engines, once per materialized ball
on_cache            finite runs, once per run, with memo lookup stats
on_trial            finite runner, once per Monte Carlo trial
on_stage            speedup pipeline, once per ladder stage
on_run_end          every engine, once, after the result is assembled
==================  ====================================================

``engine`` strings: ``"local"`` (message passing), ``"view"`` (node
views), ``"edge"`` (edge views), ``"finite"`` (oriented finite runner),
``"pipeline"`` (speedup ladder).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

__all__ = ["Tracer", "NullTracer", "MultiTracer", "effective_tracer"]


class Tracer:
    """Base tracer: every hook is a no-op.

    Subclass and override the hooks you care about; see
    :class:`~repro.instrumentation.metrics.MetricsTracer` for an
    aggregating example and
    :class:`~repro.instrumentation.recorder.TraceRecorder` for a
    full-fidelity event log.
    """

    def on_run_start(self, engine: str, algorithm: str, n: int, **info: Any) -> None:
        """A run begins: ``n`` nodes (or edges/trials — engine-specific)."""

    def on_round_start(self, round_number: int, active: int) -> None:
        """A synchronous round begins with ``active`` non-halted nodes."""

    def on_message(
        self,
        sender: int,
        receiver: int,
        port: int,
        payload: Any,
        delivered: bool,
    ) -> None:
        """One message crosses (or fails to cross) an edge.

        ``port`` is the *sender's* port.  ``delivered`` is False when the
        receiver has already halted — the model drops the message, but
        the sender still paid for it, so bandwidth accounting sees both.
        """

    def on_halt(self, node: int, round_number: int, output: Any) -> None:
        """``node`` commits ``output`` and goes silent after this round."""

    def on_round_end(self, round_number: int) -> None:
        """The round's sends, deliveries, and receives are all done."""

    def on_view(
        self,
        center: Any,
        radius: int,
        nodes: int,
        edges: int,
    ) -> None:
        """A radius-``radius`` ball was materialized around ``center``.

        ``nodes``/``edges`` size the ball — the view-engine analogue of
        bandwidth (everything in the ball crossed the wire to reach the
        center in the operational model).
        """

    def on_cache(self, engine: str, stats: Dict[str, Any]) -> None:
        """A finite run reports its algorithm's per-run memo statistics.

        Fired once, just before :meth:`on_run_end`, by every ``finite``
        run.  ``stats`` is the JSON-ready
        form of :class:`~repro.local_model.cache.CacheStats`
        (``lookups``, ``hits``, ``misses``, ``bytes``,
        ``distinct_classes``, ``hit_rate``), covering this run only
        even when the underlying cache is shared across runs.
        """

    def on_trial(self, index: int, succeeded: bool, failing_nodes: int) -> None:
        """One Monte Carlo trial of the finite runner finished."""

    def on_stage(self, kind: str, radius: int, info: Dict[str, Any]) -> None:
        """One rung of the speedup ladder was constructed and measured."""

    def on_run_end(self, rounds: int, **info: Any) -> None:
        """The run is over; ``rounds`` is the engine's round count."""


class NullTracer(Tracer):
    """The do-nothing tracer.

    Engines treat it as identical to passing no tracer at all (see
    :func:`effective_tracer`), so it is guaranteed zero-overhead — not
    merely cheap.
    """


class MultiTracer(Tracer):
    """Fan one event stream out to several tracers, in order."""

    def __init__(self, *tracers: Tracer):
        self.tracers: Tuple[Tracer, ...] = tuple(
            t for t in tracers if effective_tracer(t) is not None
        )

    def on_run_start(self, engine: str, algorithm: str, n: int, **info: Any) -> None:
        for t in self.tracers:
            t.on_run_start(engine, algorithm, n, **info)

    def on_round_start(self, round_number: int, active: int) -> None:
        for t in self.tracers:
            t.on_round_start(round_number, active)

    def on_message(
        self, sender: int, receiver: int, port: int, payload: Any, delivered: bool
    ) -> None:
        for t in self.tracers:
            t.on_message(sender, receiver, port, payload, delivered)

    def on_halt(self, node: int, round_number: int, output: Any) -> None:
        for t in self.tracers:
            t.on_halt(node, round_number, output)

    def on_round_end(self, round_number: int) -> None:
        for t in self.tracers:
            t.on_round_end(round_number)

    def on_view(self, center: Any, radius: int, nodes: int, edges: int) -> None:
        for t in self.tracers:
            t.on_view(center, radius, nodes, edges)

    def on_cache(self, engine: str, stats: Dict[str, Any]) -> None:
        for t in self.tracers:
            t.on_cache(engine, stats)

    def on_trial(self, index: int, succeeded: bool, failing_nodes: int) -> None:
        for t in self.tracers:
            t.on_trial(index, succeeded, failing_nodes)

    def on_stage(self, kind: str, radius: int, info: Dict[str, Any]) -> None:
        for t in self.tracers:
            t.on_stage(kind, radius, info)

    def on_run_end(self, rounds: int, **info: Any) -> None:
        for t in self.tracers:
            t.on_run_end(rounds, **info)


def effective_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Normalize a tracer argument to the engine-internal form.

    ``None`` and :class:`NullTracer` instances (including an empty
    :class:`MultiTracer`) collapse to ``None`` so the hot loops pay one
    pointer comparison and nothing else.  Anything else is returned
    unchanged.
    """
    if tracer is None or type(tracer) is NullTracer:
        return None
    if isinstance(tracer, MultiTracer) and not tracer.tracers:
        return None
    return tracer
