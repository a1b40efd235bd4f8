"""The tracer protocol: how execution engines report what they do.

A *tracer* is a passive observer handed to an engine entry point
(:func:`~repro.core.simulate`, for every request kind;
:func:`~repro.speedup.finite_runner.estimate_global_success`;
:func:`~repro.speedup.pipeline.run_speedup_pipeline`) via the optional
``tracer=`` keyword.  Engines report every event through one method,
:meth:`Tracer.on_event`; tracers never influence execution — an
instrumented run must produce the exact same result as an
uninstrumented one.

Zero-overhead contract
----------------------
``tracer=None`` (the default) and ``tracer=NullTracer()`` are the *same
path*: engines normalize both to ``None`` via :func:`effective_tracer`
and guard every event site with a single ``if tracer is not None``.  No
event fields are built, no sizes estimated, no clocks read.  This is
what lets the paper benchmark (``paperbench/``) time an untraced run
at full speed while the observability layer exists.

Event vocabulary
----------------
============  ==========================================  =====================
kind          fields                                      fired by
============  ==========================================  =====================
run_start     engine, algorithm, n (, trials)             every engine, once;
                                                          ``pipeline``: radius
                                                          in place of n
round_start   round, active                               ``local``, per round
message       sender, receiver, port, bits, delivered,    ``local``, per message
              payload
halt          node, round, output                         ``local``, per halt
round_end     round                                       ``local``, per round
view          center, radius, nodes, edges                view/edge/finite, per ball
cache         engine, lookups, hits, misses,              ``finite``, once per run
              distinct_classes, hit_rate
trial         index, succeeded, failing_nodes             global success, per trial
stage         stage_kind, radius, name, measured_failure, ``pipeline``, per rung
              lemma_bound, threshold
run_end       rounds                                      every engine, once;
                                                          ``pipeline``: stages
                                                          in place of rounds
============  ==========================================  =====================

``engine`` strings: ``"local"`` (message passing), ``"view"`` (node
views), ``"edge"`` (edge views), ``"finite"`` (oriented finite runner),
``"pipeline"`` (speedup ladder).  A message's ``port`` is the sender's
and its ``bits`` are :func:`~repro.instrumentation.sizes.estimate_size`
of the payload; ``delivered`` is False when the receiver has already
halted.  A ``cache`` event counts this run's memo lookups only,
although the algorithm's memo outlives the run: one lookup per node
per trial, ``misses`` (= ``distinct_classes``) the keys the run added
to the memo, and ``hits`` the rest.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

__all__ = ["Tracer", "NullTracer", "MultiTracer", "effective_tracer"]


class Tracer:
    """Base tracer: :meth:`on_event` is a no-op.

    Subclass and override it; see
    :class:`~repro.instrumentation.metrics.MetricsTracer` for an
    aggregating example and
    :class:`~repro.instrumentation.recorder.TraceRecorder` for a
    full-fidelity event log.
    """

    def on_event(self, kind: str, **info: Any) -> None:
        """One engine event: its ``kind`` and its fields (module table)."""


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

    def on_event(self, kind: str, **info: Any) -> None:
        for t in self.tracers:
            t.on_event(kind, **info)


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
