"""Full-fidelity event log: every hook call, in order, exportable.

Where :class:`~repro.instrumentation.metrics.MetricsTracer` aggregates,
:class:`TraceRecorder` *remembers*: each engine hook appends one
:class:`TraceEvent` with a monotonically increasing sequence number.
The log exports to JSON (one array) or JSONL (one event per line — the
format ``docs/ENGINE.md`` walks through), and loads back for assertion
or replay.

Payload/output values are stored as-is in memory; export passes them
through :func:`jsonable`, which falls back to ``repr`` for anything the
``json`` module cannot encode, so exporting never raises.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from .sizes import SizeEstimator, estimate_size
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
    """One recorded hook call."""

    seq: int
    kind: str
    data: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {"seq": self.seq, "kind": self.kind, **jsonable(self.data)}


class TraceRecorder(Tracer):
    """Record the complete event stream of one (or more) runs.

    Parameters
    ----------
    record_payloads:
        Store message payloads and halt outputs in the events.  Disable
        to trace message *flow* on runs with bulky payloads.
    message_size:
        Estimator used to annotate each message event with ``bits``.
    """

    def __init__(
        self,
        record_payloads: bool = True,
        message_size: Optional[SizeEstimator] = None,
    ):
        self.record_payloads = record_payloads
        self.message_size: SizeEstimator = message_size or estimate_size
        self.events: List[TraceEvent] = []

    def _emit(self, kind: str, **data: Any) -> None:
        self.events.append(TraceEvent(seq=len(self.events), kind=kind, data=data))

    # -- engine hooks ---------------------------------------------------
    def on_run_start(self, engine: str, algorithm: str, n: int, **info: Any) -> None:
        self._emit("run_start", engine=engine, algorithm=algorithm, n=n, **info)

    def on_round_start(self, round_number: int, active: int) -> None:
        self._emit("round_start", round=round_number, active=active)

    def on_message(
        self, sender: int, receiver: int, port: int, payload: Any, delivered: bool
    ) -> None:
        data: Dict[str, Any] = {
            "sender": sender,
            "receiver": receiver,
            "port": port,
            "bits": self.message_size(payload),
            "delivered": delivered,
        }
        if self.record_payloads:
            data["payload"] = payload
        self._emit("message", **data)

    def on_halt(self, node: int, round_number: int, output: Any) -> None:
        data: Dict[str, Any] = {"node": node, "round": round_number}
        if self.record_payloads:
            data["output"] = output
        self._emit("halt", **data)

    def on_round_end(self, round_number: int) -> None:
        self._emit("round_end", round=round_number)

    def on_view(self, center: Any, radius: int, nodes: int, edges: int) -> None:
        self._emit("view", center=center, radius=radius, nodes=nodes, edges=edges)

    def on_cache(self, engine: str, stats: Dict[str, Any]) -> None:
        self._emit("cache", engine=engine, **stats)

    def on_trial(self, index: int, succeeded: bool, failing_nodes: int) -> None:
        self._emit(
            "trial", index=index, succeeded=succeeded, failing_nodes=failing_nodes
        )

    def on_stage(self, kind: str, radius: int, info: Dict[str, Any]) -> None:
        self._emit("stage", stage_kind=kind, radius=radius, **info)

    def on_run_end(self, rounds: int, **info: Any) -> None:
        self._emit("run_end", rounds=rounds, **info)

    # -- querying -------------------------------------------------------
    def of_kind(self, kind: str) -> List[TraceEvent]:
        """All events of one kind, in order."""
        return [e for e in self.events if e.kind == kind]

    def clear(self) -> None:
        """Drop all recorded events (sequence numbers restart at 0)."""
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    # -- export ---------------------------------------------------------
    def to_json(self, indent: Optional[int] = None) -> str:
        """The whole log as one JSON array."""
        return json.dumps([e.to_dict() for e in self.events], indent=indent)

    def to_jsonl(self) -> str:
        """The log as JSON Lines: one compact event per line."""
        return "\n".join(
            json.dumps(e.to_dict(), separators=(",", ":")) for e in self.events
        )

    def save(self, path: str, jsonl: bool = True) -> None:
        """Write the log to ``path`` (JSONL by default)."""
        text = self.to_jsonl() if jsonl else self.to_json(indent=2)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")

    @staticmethod
    def load_events(text: str) -> List[Dict[str, Any]]:
        """Parse a :meth:`to_json` or :meth:`to_jsonl` export back into
        dicts (payloads stay in their JSON-coerced form)."""
        stripped = text.strip()
        if not stripped:
            return []
        if stripped.startswith("["):
            return json.loads(stripped)
        return [json.loads(line) for line in stripped.splitlines() if line.strip()]
