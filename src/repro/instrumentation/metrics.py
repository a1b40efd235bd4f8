"""Aggregating tracer: per-round message/bit/halt/wall-clock metrics.

:class:`MetricsTracer` folds the engine's event stream into a compact
:class:`RunMetrics` summary, serializable to JSON.  It keeps O(rounds)
state, not O(messages): each message updates a handful of counters.

The metrics schema (``RunMetrics.to_dict``) is documented in
``docs/OBSERVABILITY.md`` and is covered by a JSON round-trip test, so
downstream consumers can treat it as stable.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from .tracer import Tracer

__all__ = ["RoundMetrics", "RunMetrics", "MetricsTracer"]


@dataclass
class RoundMetrics:
    """Counters for one synchronous round."""

    round: int
    active: int
    messages_sent: int = 0
    messages_delivered: int = 0
    bits_sent: int = 0
    halts: int = 0
    wall_seconds: float = 0.0


@dataclass
class RunMetrics:
    """The whole run, aggregated.

    ``halt_histogram`` maps halting round -> number of nodes that halted
    in that round (key 0 = halted during ``init``, before any
    communication).  View engines populate ``views_gathered`` /
    ``view_nodes`` / ``view_edges`` instead of the message counters;
    the finite runner populates ``trials`` / ``trial_successes``.
    Finite runs populate the ``cache_*`` counters from the algorithm's
    ball-assignment memo — one lookup per node, each a hit or a miss;
    ``cache_hit_rate`` is the fraction served from the memo.  A speedup
    pipeline run leaves ``n`` and ``rounds`` at 0: its events report
    the seed's radius and the number of ladder rungs instead.
    """

    engine: str = ""
    algorithm: str = ""
    n: int = 0
    rounds: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    bits_sent: int = 0
    views_gathered: int = 0
    view_nodes: int = 0
    view_edges: int = 0
    trials: int = 0
    trial_successes: int = 0
    cache_lookups: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_distinct_classes: int = 0
    wall_seconds: float = 0.0
    halt_histogram: Dict[int, int] = field(default_factory=dict)
    per_round: List[RoundMetrics] = field(default_factory=list)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups that hit (0.0 when no cache ran)."""
        return self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (the artifact ``metrics`` schema).

        The fields in order, with ``cache_hit_rate`` after
        ``cache_distinct_classes`` and the ``halt_histogram`` keys as
        sorted strings (JSON objects have string keys).
        """
        data: Dict[str, Any] = {}
        for name, value in asdict(self).items():
            data[name] = value
            if name == "cache_distinct_classes":
                data["cache_hit_rate"] = self.cache_hit_rate
        data["halt_histogram"] = {
            str(k): self.halt_histogram[k] for k in sorted(self.halt_histogram)
        }
        return data


class MetricsTracer(Tracer):
    """Fold the event stream into :class:`RunMetrics`.

    One tracer instance observes one run at a time; a ``run_start``
    event resets it, so reusing an instance across sequential runs
    keeps only the last run's numbers.  Wall times come from
    :func:`time.perf_counter`.
    """

    def __init__(self):
        self.metrics = RunMetrics()
        self._round: Optional[RoundMetrics] = None
        self._round_started_at = 0.0
        self._run_started_at = 0.0

    def on_event(self, kind: str, **info: Any) -> None:
        m, current = self.metrics, self._round
        if kind == "message":
            bits = info["bits"]
            m.messages_sent += 1
            m.bits_sent += bits
            if info["delivered"]:
                m.messages_delivered += 1
            if current is not None:
                current.messages_sent += 1
                current.bits_sent += bits
                if info["delivered"]:
                    current.messages_delivered += 1
        elif kind == "view":
            m.views_gathered += 1
            m.view_nodes += info["nodes"]
            m.view_edges += info["edges"]
        elif kind == "halt":
            halted_in = info["round"]
            m.halt_histogram[halted_in] = m.halt_histogram.get(halted_in, 0) + 1
            if current is not None and current.round == halted_in:
                current.halts += 1
        elif kind == "round_start":
            self._round = RoundMetrics(round=info["round"], active=info["active"])
            self._round_started_at = time.perf_counter()
        elif kind == "round_end":
            if current is not None:
                current.wall_seconds = time.perf_counter() - self._round_started_at
                m.per_round.append(current)
                self._round = None
        elif kind == "trial":
            m.trials += 1
            if info["succeeded"]:
                m.trial_successes += 1
        elif kind == "cache":
            m.cache_lookups += info["lookups"]
            m.cache_hits += info["hits"]
            m.cache_misses += info["misses"]
            m.cache_distinct_classes += info["distinct_classes"]
        elif kind == "run_start":
            engine = info["engine"]
            # A pipeline run reports its seed's radius, not a node count.
            n = 0 if engine == "pipeline" else info["n"]
            self.metrics = RunMetrics(engine=engine, algorithm=info["algorithm"], n=n)
            self._round = None
            self._run_started_at = time.perf_counter()
        elif kind == "run_end":
            # A pipeline run reports its stage count, not rounds.
            if m.engine != "pipeline":
                m.rounds = info["rounds"]
            m.wall_seconds = time.perf_counter() - self._run_started_at

    def report(self) -> Dict[str, Any]:
        """The JSON-ready metrics dict of the last observed run."""
        return self.metrics.to_dict()
