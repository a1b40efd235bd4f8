"""Observability for the LOCAL-model engines.

Every execution engine accepts an optional ``tracer=`` and reports
through its one method, ``on_event(kind, **info)``; this package
provides the protocol (:class:`Tracer`), the guaranteed-zero-overhead
default (:class:`NullTracer`), an aggregating metrics collector
(:class:`MetricsTracer` -> :class:`RunMetrics`), a full event log
(:class:`TraceRecorder`), and the message-size estimate behind each
``message`` event's ``bits`` (:func:`estimate_size`).  See
``docs/OBSERVABILITY.md`` for the guide and the JSON schemas.
"""

from .tracer import Tracer, NullTracer, MultiTracer, effective_tracer
from .sizes import estimate_size
from .metrics import MetricsTracer, RunMetrics, RoundMetrics
from .recorder import TraceRecorder, TraceEvent, jsonable

__all__ = [
    "Tracer",
    "NullTracer",
    "MultiTracer",
    "effective_tracer",
    "estimate_size",
    "MetricsTracer",
    "RunMetrics",
    "RoundMetrics",
    "TraceRecorder",
    "TraceEvent",
    "jsonable",
]
