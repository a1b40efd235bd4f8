"""Full-fidelity event log: every event, in order, exportable.

Where :class:`~repro.instrumentation.metrics.MetricsTracer` aggregates,
:class:`TraceRecorder` *remembers*: each engine event appends one
:class:`TraceEvent` with a monotonically increasing sequence number.
The log exports to JSONL (one event per line — the format
``docs/ENGINE.md`` walks through).

Payload/output values are stored as-is in memory; export passes them
through :func:`jsonable`, which falls back to ``repr`` for anything the
``json`` module cannot encode, so exporting never raises.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List

from .tracer import Tracer

__all__ = ["TraceEvent", "TraceRecorder", "jsonable"]


def jsonable(value: Any) -> Any:
    """``value`` coerced to something ``json.dumps`` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(x) for x in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return repr(value)


@dataclass
class TraceEvent:
    """One recorded event: its kind and its fields."""

    seq: int
    kind: str
    data: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {"seq": self.seq, "kind": self.kind, **jsonable(self.data)}


class TraceRecorder(Tracer):
    """Record the complete event stream of one (or more) runs."""

    def __init__(self):
        self.events: List[TraceEvent] = []

    def on_event(self, kind: str, **info: Any) -> None:
        self.events.append(TraceEvent(seq=len(self.events), kind=kind, data=info))

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """All events of one kind, in order."""
        return [e for e in self.events if e.kind == kind]

    def to_jsonl(self) -> str:
        """The log as JSON Lines: one compact event per line."""
        return "\n".join(
            json.dumps(e.to_dict(), separators=(",", ":")) for e in self.events
        )
