"""Memoization by canonical key: compute each distinct input once.

A T-round LOCAL algorithm is a map from radius-T neighborhoods to
outputs; the speedup simulation argues over exactly that map.  Its
executable form memoizes each algorithm on a canonical encoding of
"everything the computing entity can see":
:class:`~repro.speedup.algorithms.NodeAlgorithm` keys its evaluations
by :func:`ball_assignment_key` (the per-ball random words) through one
:class:`KeyedCache`, so each distinct assignment is evaluated once no
matter how many nodes, trials, or runs present it.

:class:`CacheStats` counts every lookup as a hit or a miss; finite runs
report the per-run delta through the tracer's ``on_cache`` hook (the
``cache_*`` fields of :class:`~repro.instrumentation.RunMetrics`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..instrumentation.sizes import SizeEstimator, estimate_size

__all__ = [
    "CacheStats",
    "KeyedCache",
    "ball_assignment_key",
]


@dataclass
class CacheStats:
    """Counters for one cache: every lookup is a hit or a miss.

    ``bytes`` approximates the retained size of stored keys and values
    (estimated with :func:`~repro.instrumentation.sizes.estimate_size`);
    ``distinct_classes`` is the number of stored entries — the number
    of distinct keys (ball assignments, view classes) seen.
    """

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    bytes: int = 0
    distinct_classes: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def copy(self) -> "CacheStats":
        """An independent snapshot of the current counters."""
        return CacheStats(
            lookups=self.lookups,
            hits=self.hits,
            misses=self.misses,
            bytes=self.bytes,
            distinct_classes=self.distinct_classes,
        )

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counters accumulated after the ``since`` snapshot was taken."""
        return CacheStats(
            lookups=self.lookups - since.lookups,
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            bytes=self.bytes - since.bytes,
            distinct_classes=self.distinct_classes - since.distinct_classes,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the ``on_cache`` hook's payload)."""
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "bytes": self.bytes,
            "distinct_classes": self.distinct_classes,
            "hit_rate": self.hit_rate,
        }


_MISS = object()


class KeyedCache:
    """A stats-bearing memo table over hashable keys.

    The substrate of the speedup engine's ball-assignment memoization
    (:class:`~repro.speedup.algorithms.NodeAlgorithm`): it maps a
    canonical encoding of "everything the computing entity can see" to
    an output, computed once per distinct encoding.
    """

    #: Sentinel returned by :meth:`get` on a miss (never a stored value).
    MISS = _MISS

    def __init__(self, size_estimator: Optional[SizeEstimator] = None):
        self._store: Dict[Any, Any] = {}
        self._size = size_estimator or estimate_size
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: Any) -> Any:
        """The stored value, or :attr:`MISS`; counts the lookup."""
        stats = self.stats
        stats.lookups += 1
        value = self._store.get(key, _MISS)
        if value is _MISS:
            stats.misses += 1
        else:
            stats.hits += 1
        return value

    def store(self, key: Any, value: Any) -> Any:
        """Store ``value`` under ``key`` and return it."""
        self._store[key] = value
        stats = self.stats
        stats.distinct_classes = len(self._store)
        stats.bytes += (self._size(key) + self._size(value) + 7) // 8
        return value

    def get_or_compute(self, key: Any, compute: Callable[[], Any]) -> Any:
        """The memoized value for ``key``, computing and storing on miss."""
        value = self.get(key)
        if value is _MISS:
            value = self.store(key, compute())
        return value

    def clear(self) -> None:
        """Drop every entry; the cumulative counters keep counting."""
        self._store.clear()
        self.stats.distinct_classes = 0
        self.stats.bytes = 0


def ball_assignment_key(
    values: Sequence[Any], table: Sequence[int]
) -> Tuple[Any, ...]:
    """Project per-node values through a resolved ball table.

    The one keying function shared by the finite runner
    (:func:`~repro.speedup.finite_runner.run_node_algorithm_on_oriented_graph`),
    the exact failure enumerations, and the tree algorithms' own
    memoization: entry ``i`` is the value the ball's ``i``-th word
    reads.  Equal keys mean the computing entity sees identical random
    data in identical positions — the oriented-tree analogue of
    :func:`~repro.local_model.views.view_signature`.
    """
    return tuple(values[i] for i in table)
