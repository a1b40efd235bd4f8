"""Memoization by canonical key: compute each distinct input once.

A T-round LOCAL algorithm is a map from radius-T neighborhoods to
outputs; the speedup simulation argues over exactly that map.  Its
executable form memoizes each algorithm on a canonical encoding of
"everything the computing entity can see":
:class:`~repro.speedup.algorithms.NodeAlgorithm` keys its evaluations
by :func:`ball_assignment_key` (the per-ball random words) through one
:class:`KeyedCache`, so each distinct assignment is evaluated once no
matter how many nodes, trials, or runs present it.  A whole enumeration
or finite trial is answered by one :meth:`KeyedCache.get_or_compute_many`
call, which counts exactly what a :meth:`~KeyedCache.get` /
:meth:`~KeyedCache.store` per key would.

:class:`CacheStats` counts every lookup as a hit or a miss; finite runs
report the per-run delta as the tracer's ``cache`` event (the
``cache_*`` fields of :class:`~repro.instrumentation.RunMetrics`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import is_
from typing import Any, Callable, Dict, List, Sequence, Tuple

__all__ = [
    "CacheStats",
    "KeyedCache",
    "ball_assignment_key",
]


@dataclass
class CacheStats:
    """Counters for one cache: every lookup is a hit or a miss.

    ``distinct_classes`` is the number of stored entries — the number
    of distinct keys (ball assignments, view classes) seen.  A
    :class:`KeyedCache` fills it in when its ``stats`` are read.
    """

    lookups: int = 0
    hits: int = 0
    misses: int = 0
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
            distinct_classes=self.distinct_classes,
        )

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counters accumulated after the ``since`` snapshot was taken."""
        return CacheStats(
            lookups=self.lookups - since.lookups,
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            distinct_classes=self.distinct_classes - since.distinct_classes,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the fields of a ``cache`` event)."""
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
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

    The counters count keys, not calls: :meth:`get_or_compute_many`
    answers a list of keys in one pass and advances ``lookups``,
    ``hits`` and ``misses`` by what one :meth:`get` (and, on a miss, one
    :meth:`store`) per key would.
    """

    #: Sentinel returned by :meth:`get` on a miss (never a stored value).
    MISS = _MISS

    def __init__(self):
        self._store: Dict[Any, Any] = {}
        self._stats = CacheStats()

    def __len__(self) -> int:
        return len(self._store)

    @property
    def stats(self) -> CacheStats:
        """The counters, with ``distinct_classes`` brought up to date."""
        self._stats.distinct_classes = len(self._store)
        return self._stats

    def get(self, key: Any) -> Any:
        """The stored value, or :attr:`MISS`; counts the lookup."""
        stats = self._stats
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
        return value

    def get_or_compute(self, key: Any, compute: Callable[[], Any]) -> Any:
        """The memoized value for ``key``, computing and storing on miss."""
        value = self.get(key)
        if value is _MISS:
            value = self.store(key, compute())
        return value

    def get_or_compute_many(
        self, keys: Sequence[Any], compute: Callable[[Any], Any]
    ) -> List[Any]:
        """The values of ``keys``, in order, computing each missing one once.

        Equivalent to ``get``, then ``store(key, compute(key))`` on a
        miss, for each key in turn: one ``dict.get`` pass in C finds the
        stored values, and the misses are then resolved in key order.  A
        key that misses twice is computed at its first occurrence and is
        a hit at the second, so ``compute`` sees the same keys in the same
        order and the counters advance by the same amounts.  When
        ``compute`` raises, the lookups up to and including the failing
        key are counted, as the per-key loop would have counted them.
        """
        store = self._store
        values = list(map(store.get, keys, itertools.repeat(_MISS)))
        misses = 0
        for i in itertools.compress(
            itertools.count(), map(is_, values, itertools.repeat(_MISS))
        ):
            key = keys[i]
            value = store.get(key, _MISS)  # an earlier miss may have stored it
            if value is _MISS:
                misses += 1
                try:
                    value = self.store(key, compute(key))
                except BaseException:
                    self._count(i + 1, misses)
                    raise
            values[i] = value
        self._count(len(values), misses)
        return values

    def _count(self, lookups: int, misses: int) -> None:
        stats = self._stats
        stats.lookups += lookups
        stats.hits += lookups - misses
        stats.misses += misses

    def clear(self) -> None:
        """Drop every entry; the cumulative counters keep counting."""
        self._store.clear()
        self._stats.distinct_classes = 0


def ball_assignment_key(
    values: Sequence[Any], table: Sequence[int]
) -> Tuple[Any, ...]:
    """Project per-node values through a resolved ball table.

    The key the tree algorithms memoize on: entry ``i`` is the value the
    ball's ``i``-th word reads.  The engine's ``finite`` kind
    (:meth:`~repro.core.direct.DirectEngine.run`) builds it inline,
    every node's key of a trial at once, the Monte Carlo failure
    estimators call it per sample, and the exact enumerations spell
    whole keys with ``itertools.product``.  Equal keys
    mean the computing entity sees identical random data in identical
    positions — the oriented-tree analogue of
    :func:`~repro.local_model.views.view_signature`.
    """
    return tuple(values[i] for i in table)
