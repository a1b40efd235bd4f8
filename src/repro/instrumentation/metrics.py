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
from dataclasses import asdict, dataclass, field, fields
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

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


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
        """JSON-ready dict (the artifact ``metrics`` schema)."""
        return {
            "engine": self.engine,
            "algorithm": self.algorithm,
            "n": self.n,
            "rounds": self.rounds,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "bits_sent": self.bits_sent,
            "views_gathered": self.views_gathered,
            "view_nodes": self.view_nodes,
            "view_edges": self.view_edges,
            "trials": self.trials,
            "trial_successes": self.trial_successes,
            "cache_lookups": self.cache_lookups,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_distinct_classes": self.cache_distinct_classes,
            "cache_hit_rate": self.cache_hit_rate,
            "wall_seconds": self.wall_seconds,
            # JSON objects have string keys; keep them sorted for diffs.
            "halt_histogram": {
                str(k): self.halt_histogram[k] for k in sorted(self.halt_histogram)
            },
            "per_round": [r.to_dict() for r in self.per_round],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunMetrics":
        """Inverse of :meth:`to_dict` (artifact consumers' entry point).

        Forward- and backward-compatible by construction: counters the
        artifact lacks fall back to the dataclass defaults (pre-cache
        artifacts load with zero ``cache_*`` counters), and keys this
        version does not know — an artifact written by a *newer* version,
        or by an older one carrying a retired counter (``service_*``,
        ``delta_*``, ``subruns``, ``shards``, ``degradations``,
        ``degraded_reasons``, ``layout_kernel_runs``,
        ``layout_fallbacks``, ``layout_classes``, ``layout_dict_runs``,
        ``layout_csr_runs``, ``layout_entities``, ``kernel_runs``,
        ``kernel_vectorized``, ``kernel_fallbacks``, ``kernel_entities``,
        ``kernel_classes``, ``cache_bytes``) — are ignored rather than
        rejected.
        Derived values such as ``cache_hit_rate`` are recomputed, never
        read back.
        """
        known = {f.name for f in fields(cls)}
        kwargs: Dict[str, Any] = {
            k: v for k, v in data.items() if k in known
        }
        kwargs["halt_histogram"] = {
            int(k): v for k, v in data.get("halt_histogram", {}).items()
        }
        round_known = {f.name for f in fields(RoundMetrics)}
        kwargs["per_round"] = [
            RoundMetrics(**{k: v for k, v in r.items() if k in round_known})
            for r in data.get("per_round", [])
        ]
        return cls(**kwargs)


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
