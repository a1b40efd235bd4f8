"""Canonical-view memoization: compute each view class once.

On the graph families the paper cares about (Δ-regular trees, tori,
cycles) almost all radius-t balls are pairwise isomorphic: a balanced
4-regular tree with thousands of nodes has only a handful of distinct
radius-2 view classes.  The direct engines
(:func:`~repro.local_model.network.run_view_algorithm`,
:func:`~repro.local_model.edge_model.run_edge_view_algorithm`)
re-materialize and re-evaluate the same canonical view at every node;
the cached engines here key each node's ball by its canonical
signature (:func:`~repro.local_model.views.view_signature`), evaluate
the algorithm **once per distinct class**, and broadcast the output to
every node sharing the class.

This is faithful to the theory, not just an optimization: Lemmas 7/8
of the paper (and the speedup simulation as a whole) argue over
isomorphism classes of balls, and a "T-round algorithm is a mapping
from radius-T neighborhoods to outputs" — the cache *is* that mapping,
materialized lazily.

Exactness contract
------------------
A cached run must produce the exact same
:class:`~repro.local_model.network.ExecutionResult` as a direct run —
bit for bit.  This hinges on the signature being a *perfect* canonical
key (equal signature iff equal :meth:`~repro.local_model.views.View.key`),
which is proven two ways: the property suite
(``tests/test_view_cache_properties.py``) checks signature equality
against an independent ball-isomorphism decision procedure, and the
differential harness (``tests/differential.py``) asserts bit-identical
results over a grid of (algorithm × graph family × radius × labeling).

Because the signature encodes *everything* a node can see — structure,
ports, orientation labels, identifiers, inputs, randomness — a cache
is safe to reuse across runs and graphs.  The one thing **not** in the
key is the algorithm itself: never share one :class:`ViewCache`
between different algorithms.

See ``docs/PERFORMANCE.md`` for the design discussion and measured
speedups (``benchmarks/BENCH_view_cache.json``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..instrumentation.sizes import SizeEstimator, estimate_size

__all__ = [
    "CacheStats",
    "KeyedCache",
    "ViewCache",
    "ball_assignment_key",
]


@dataclass
class CacheStats:
    """Counters for one cache: every lookup is a hit or a miss.

    ``bytes`` approximates the retained size of stored keys and values
    (estimated with :func:`~repro.instrumentation.sizes.estimate_size`);
    ``distinct_classes`` is the number of stored entries — for the view
    cache, the number of distinct view-equivalence classes seen.
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

    The generic substrate shared by the view cache and the speedup
    engine's ball-assignment memoization
    (:class:`~repro.speedup.algorithms.NodeAlgorithm`): both map a
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

    def count_hits(self, count: int) -> None:
        """Count ``count`` lookups already known to hit.

        The memoizing engines look up each view class once; its other
        members would all hit, and are counted here so the stats stay
        per entity.
        """
        self.stats.lookups += count
        self.stats.hits += count

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


class ViewCache(KeyedCache):
    """A per-algorithm memo table from canonical view signatures to outputs.

    Keys are :func:`~repro.local_model.views.view_signature` /
    :func:`~repro.local_model.views.edge_view_signature` tuples, which
    encode the complete visible ball (structure, ports, orientation,
    identifiers, inputs, randomness) — so one cache may be reused
    across runs and even across graphs.  The algorithm identity is
    *not* part of the key: use one cache per algorithm.
    """


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
