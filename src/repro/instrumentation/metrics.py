"""Aggregating tracer: per-round message/byte/halt/wall-clock metrics.

:class:`MetricsTracer` folds the engine's event stream into a compact
:class:`RunMetrics` summary, serializable to JSON.  It keeps O(rounds)
state, not O(messages): each message updates a handful of counters.

The metrics schema (``RunMetrics.to_dict``) is documented in
``docs/OBSERVABILITY.md`` and is covered by a JSON round-trip test, so
downstream consumers can treat it as stable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional

from .sizes import SizeEstimator, estimate_size
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
        return {
            "round": self.round,
            "active": self.active,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "bits_sent": self.bits_sent,
            "halts": self.halts,
            "wall_seconds": self.wall_seconds,
        }


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
    ``cache_hit_rate`` is the fraction served from the memo.
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
    cache_bytes: int = 0
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
            "cache_bytes": self.cache_bytes,
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
        ``kernel_classes``) — are ignored rather than rejected.
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

    Parameters
    ----------
    message_size:
        Pluggable payload-size estimator (bits); defaults to
        :func:`~repro.instrumentation.sizes.estimate_size`.
    per_round:
        Keep the per-round breakdown (O(rounds) memory).  Disable for
        very long runs where only totals matter.
    clock:
        Injectable monotonic clock, for deterministic tests.

    One tracer instance observes one run at a time; :meth:`on_run_start`
    resets it, so reusing an instance across sequential runs keeps only
    the last run's numbers.
    """

    def __init__(
        self,
        message_size: Optional[SizeEstimator] = None,
        per_round: bool = True,
        clock=time.perf_counter,
    ):
        self.message_size: SizeEstimator = message_size or estimate_size
        self.keep_per_round = per_round
        self.clock = clock
        self.metrics = RunMetrics()
        self._round: Optional[RoundMetrics] = None
        self._round_started_at = 0.0
        self._run_started_at = 0.0

    # -- engine hooks ---------------------------------------------------
    def on_run_start(self, engine: str, algorithm: str, n: int, **info: Any) -> None:
        self.metrics = RunMetrics(engine=engine, algorithm=algorithm, n=n)
        self._round = None
        self._run_started_at = self.clock()

    def on_round_start(self, round_number: int, active: int) -> None:
        self._round = RoundMetrics(round=round_number, active=active)
        self._round_started_at = self.clock()

    def on_message(
        self, sender: int, receiver: int, port: int, payload: Any, delivered: bool
    ) -> None:
        bits = self.message_size(payload)
        self.metrics.messages_sent += 1
        self.metrics.bits_sent += bits
        if delivered:
            self.metrics.messages_delivered += 1
        if self._round is not None:
            self._round.messages_sent += 1
            self._round.bits_sent += bits
            if delivered:
                self._round.messages_delivered += 1

    def on_halt(self, node: int, round_number: int, output: Any) -> None:
        hist = self.metrics.halt_histogram
        hist[round_number] = hist.get(round_number, 0) + 1
        if self._round is not None and self._round.round == round_number:
            self._round.halts += 1

    def on_round_end(self, round_number: int) -> None:
        if self._round is None:
            return
        self._round.wall_seconds = self.clock() - self._round_started_at
        if self.keep_per_round:
            self.metrics.per_round.append(self._round)
        self._round = None

    def on_view(self, center: Any, radius: int, nodes: int, edges: int) -> None:
        self.metrics.views_gathered += 1
        self.metrics.view_nodes += nodes
        self.metrics.view_edges += edges

    def on_cache(self, engine: str, stats: Dict[str, Any]) -> None:
        self.metrics.cache_lookups += stats.get("lookups", 0)
        self.metrics.cache_hits += stats.get("hits", 0)
        self.metrics.cache_misses += stats.get("misses", 0)
        self.metrics.cache_bytes += stats.get("bytes", 0)
        self.metrics.cache_distinct_classes += stats.get("distinct_classes", 0)

    def on_trial(self, index: int, succeeded: bool, failing_nodes: int) -> None:
        self.metrics.trials += 1
        if succeeded:
            self.metrics.trial_successes += 1

    def on_run_end(self, rounds: int, **info: Any) -> None:
        self.metrics.rounds = rounds
        self.metrics.wall_seconds = self.clock() - self._run_started_at

    # -- conveniences ---------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """The JSON-ready metrics dict of the last observed run."""
        return self.metrics.to_dict()
