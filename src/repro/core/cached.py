"""The cached backend: one evaluation per canonical view class.

The direct backend plus a memo table
(:class:`~repro.local_model.cache.ViewCache`): ``view`` and ``edge``
requests partition their entities by canonical signature
(:func:`~repro.core.entities.partition`), evaluate the algorithm once
per class not already in the table, and broadcast the output.

``local`` requests pass through to the direct loop (a synchronous
message-passing round has no view classes to collapse), and ``finite``
requests are already memoized by the algorithm's own assignment cache
(:class:`~repro.speedup.algorithms.NodeAlgorithm`), so both fall back
to :class:`~repro.core.direct.DirectEngine` semantics unchanged.

The exactness contract (cached == direct, bit for bit) rides on the
signature being a perfect canonical key; see
``docs/PERFORMANCE.md`` and ``tests/test_view_cache_properties.py``.
"""

from __future__ import annotations

from typing import Optional

from ..instrumentation.tracer import Tracer
from ..local_model.cache import KeyedCache, ViewCache
from ..local_model.kernels import broadcast_table
from .direct import DirectEngine
from .engine import SimReport, SimRequest
from .entities import Entities, labeling_of, layout_info, partition

__all__ = ["CachedEngine"]

_MISS = KeyedCache.MISS


class CachedEngine(DirectEngine):
    """Memoizing backend over a :class:`~repro.local_model.cache.ViewCache`.

    Parameters
    ----------
    cache:
        The memo table to use (and keep) across runs; ``None`` creates
        a private one at construction.  The algorithm identity is not
        part of the cache key — use one engine (or one cache) per
        algorithm, exactly as with :class:`ViewCache` itself.

    Notes
    -----
    On ``layout="auto"`` requests over frozen graphs, keys come from
    the batched CSR expander (one vectorized pass instead of n
    per-entity signature walks); the stats — one lookup per entity, one
    miss per distinct class — are unchanged, so hit rates and class
    counts match the reference ``"dict"`` layout exactly.  The two layouts use disjoint (both perfect) key spaces,
    so a cache shared across layouts stays correct but re-evaluates
    each class once per key space — keep one layout per cache when the
    cross-run reuse matters.
    """

    name = "cached"
    prefer_csr = True

    def __init__(self, cache: Optional[ViewCache] = None):
        self.cache = cache if cache is not None else ViewCache()

    def _evaluate(
        self,
        ents: Entities,
        request: SimRequest,
        layout: str,
        tracer: Optional[Tracer],
    ) -> SimReport:
        """The direct strategy plus a memo table: one lookup per class.

        Misses are evaluated at their first-occurrence entity, exactly
        where the per-entity scan would; every later member of a class
        is a hit, counted in bulk, so the per-run stats stay per entity.
        """
        graph, algorithm, cache = request.graph, request.algorithm, self.cache
        entities, radius = ents.entities(graph), ents.radius(algorithm)
        labeling, evaluate = labeling_of(request), ents.evaluator(algorithm)
        part = partition(ents, graph, entities, radius, layout, labeling)
        if tracer is not None:
            tracer.on_layout(
                self.name, layout, layout_info(request, ents.count(graph), part)
            )
        before = cache.stats.copy() if tracer is not None else None
        table = []
        for key, rep in zip(part.keys, part.reps):
            out = cache.get(key)
            if out is _MISS:
                center = entities[rep]
                view = ents.gather(graph, center, radius, **labeling)
                if tracer is not None:
                    tracer.on_view(
                        center, view.radius, view.node_count, len(view.edges)
                    )
                out = cache.store(key, evaluate(view))
            table.append(out)
        cache.count_hits(len(part.labels) - len(part.reps))
        if tracer is not None:
            tracer.on_cache(request.kind, cache.stats.delta(before).to_dict())
        return ents.report(
            algorithm, entities,
            broadcast_table(table, part.labels),
            self.name,
            {"distinct_classes": len(cache)},
        )
