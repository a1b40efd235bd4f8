"""Unit and regression tests for the memoization layer.

Covers the cache substrate (:class:`KeyedCache` / :class:`CacheStats`),
the ``on_cache`` tracer hook end to end on finite runs (MetricsTracer
aggregation, TraceRecorder events, artifact round-trips), memo reuse
across runs, and the speedup engine's shared keying function —
including the regression guard for the finite runner's injectivity
refusal on tori at radius >= 2.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.view_rules import DegreeProfileRule
from repro.graphs import cycle, orient_torus, toroidal_grid
from repro.instrumentation import MetricsTracer, RunMetrics, TraceRecorder
from repro.local_model import CacheStats, KeyedCache, ball_assignment_key
from repro.local_model.network import run_view_algorithm
from repro.speedup import (
    local_maximum_coloring,
    two_round_local_maximum,
)
from repro.speedup.finite_runner import (
    resolve_ball_tables,
    run_node_algorithm_on_oriented_graph,
)


# ----------------------------------------------------------------------
# CacheStats
# ----------------------------------------------------------------------

def test_stats_hit_rate_and_dict():
    stats = CacheStats(lookups=10, hits=7, misses=3, bytes=100, distinct_classes=3)
    assert stats.hit_rate == 0.7
    d = stats.to_dict()
    assert d["hits"] == 7 and d["hit_rate"] == 0.7
    assert CacheStats().hit_rate == 0.0  # no division by zero when idle


def test_stats_copy_is_independent_and_delta_subtracts():
    stats = CacheStats(lookups=5, hits=2, misses=3, bytes=40, distinct_classes=3)
    snap = stats.copy()
    stats.lookups += 4
    stats.hits += 4
    assert snap.lookups == 5 and snap.hits == 2
    delta = stats.delta(snap)
    assert delta.lookups == 4 and delta.hits == 4 and delta.misses == 0


# ----------------------------------------------------------------------
# KeyedCache
# ----------------------------------------------------------------------

def test_keyed_cache_counts_hits_and_misses():
    cache = KeyedCache()
    assert cache.get("a") is KeyedCache.MISS
    cache.store("a", 1)
    assert cache.get("a") == 1
    assert cache.stats.lookups == 2
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.distinct_classes == len(cache) == 1
    assert cache.stats.bytes > 0


def test_keyed_cache_caches_none_values():
    # Regression: the pre-cache NodeAlgorithm memo used ``dict.get`` with
    # a None default, so a legitimately-None output was recomputed every
    # time.  The MISS sentinel must distinguish "absent" from "None".
    cache = KeyedCache()
    cache.store("k", None)
    assert cache.get("k") is None
    assert cache.stats.hits == 1


def test_get_or_compute_runs_once():
    cache = KeyedCache()
    calls = []
    for _ in range(3):
        value = cache.get_or_compute("key", lambda: calls.append(1) or 42)
    assert value == 42
    assert len(calls) == 1


def test_clear_drops_entries_but_keeps_cumulative_lookups():
    cache = KeyedCache()
    cache.store("a", 1)
    cache.get("a")
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.distinct_classes == 0
    assert cache.stats.bytes == 0
    assert cache.stats.lookups == 1  # history survives


# ----------------------------------------------------------------------
# on_cache end to end: finite runs report their memo lookups
# ----------------------------------------------------------------------

def _finite_run(tracer, alg=None, seed=3):
    graph = toroidal_grid(6, 6)
    orientation = orient_torus(graph, 6, 6)
    alg = alg if alg is not None else local_maximum_coloring(2)
    rng = random.Random(seed)
    values = [rng.randrange(alg.values) for _ in graph.nodes()]
    run_node_algorithm_on_oriented_graph(
        alg, graph, orientation, values, tracer=tracer
    )
    return graph, alg


def test_metrics_tracer_reports_hit_rate():
    alg = local_maximum_coloring(2)
    alg.cache.clear()
    before = alg.cache.stats.copy()
    tracer = MetricsTracer()
    graph, _ = _finite_run(tracer, alg)
    run = alg.cache.stats.delta(before)
    m = tracer.metrics
    assert m.cache_lookups == graph.n == run.lookups
    assert m.cache_misses == m.cache_distinct_classes == run.misses
    assert 0 < m.cache_misses < graph.n  # the torus shares assignments
    assert m.cache_hit_rate == pytest.approx(run.hits / graph.n)
    # Hook ordering: cache stats land once, before run_end.
    recorder = TraceRecorder()
    _finite_run(recorder, alg)
    kinds = [e.kind for e in recorder.events]
    assert kinds.count("cache") == 1
    assert kinds.index("cache") < kinds.index("run_end")


def test_run_metrics_round_trip_preserves_cache_counters():
    tracer = MetricsTracer()
    _finite_run(tracer)
    loaded = RunMetrics.from_dict(tracer.metrics.to_dict())
    assert loaded.cache_lookups == tracer.metrics.cache_lookups > 0
    assert loaded.cache_hits == tracer.metrics.cache_hits
    assert loaded.cache_hit_rate == tracer.metrics.cache_hit_rate


def test_run_metrics_loads_pre_cache_artifacts():
    # Artifacts written before the cache counters existed must still load.
    graph = cycle(8)
    tracer = MetricsTracer()
    run_view_algorithm(graph, DegreeProfileRule(radius=1), tracer=tracer)
    legacy = tracer.metrics.to_dict()
    for key in list(legacy):
        if key.startswith("cache_"):
            del legacy[key]
    loaded = RunMetrics.from_dict(legacy)
    assert loaded.cache_lookups == 0
    assert loaded.cache_hit_rate == 0.0


# ----------------------------------------------------------------------
# Shared keying with the speedup engine (satellite: one key function)
# ----------------------------------------------------------------------

def test_ball_assignment_key_is_projection():
    values = [10, 20, 30, 40]
    assert ball_assignment_key(values, [3, 0, 0]) == (40, 10, 10)
    assert ball_assignment_key(values, []) == ()


def test_finite_runner_reports_cache_delta_per_run():
    graph = toroidal_grid(6, 6)
    orientation = orient_torus(graph, 6, 6)
    alg = local_maximum_coloring(2)
    rng = random.Random(3)
    values = [rng.randrange(alg.values) for _ in graph.nodes()]

    first = MetricsTracer()
    run_node_algorithm_on_oriented_graph(alg, graph, orientation, values, tracer=first)
    second = MetricsTracer()
    run_node_algorithm_on_oriented_graph(alg, graph, orientation, values, tracer=second)

    # The algorithm's memo outlives runs, but each tracer sees only its
    # own run's lookups; the warm second run is all hits.
    assert first.metrics.cache_lookups == graph.n
    assert second.metrics.cache_lookups == graph.n
    assert second.metrics.cache_hits == graph.n
    assert second.metrics.cache_hit_rate == 1.0
    assert alg.cache.stats.lookups == 2 * graph.n


def test_node_algorithm_memoizes_through_keyed_cache():
    calls = []

    def fn(assignment):
        calls.append(assignment)
        return assignment[0]

    alg = local_maximum_coloring(1)
    alg.fn = fn  # count underlying evaluations directly
    alg.cache.clear()
    key = ball_assignment_key([1, 0, 1], [0, 1, 2])
    assert alg.evaluate(key) == alg.evaluate(key)
    assert len(calls) == 1
    assert alg.cache.stats.hits == 1


# ----------------------------------------------------------------------
# Regression: torus injectivity refusal at radius >= 2
# ----------------------------------------------------------------------

def test_torus_is_tree_like_at_radius_one():
    graph = toroidal_grid(5, 5)
    orientation = orient_torus(graph, 5, 5)
    tables = resolve_ball_tables(local_maximum_coloring(2), graph, orientation)
    assert len(tables) == graph.n
    assert all(len(set(t)) == len(t) for t in tables)


def test_torus_refused_at_radius_two():
    # Torus moves commute (RU = UR), so radius-2 ball words collide; the
    # runner must refuse rather than silently aliasing ball positions.
    graph = toroidal_grid(5, 5)
    orientation = orient_torus(graph, 5, 5)
    with pytest.raises(ValueError, match="ball words collide"):
        resolve_ball_tables(two_round_local_maximum(2), graph, orientation)
    # ... and the refusal propagates through the runner entry point.
    values = [0] * graph.n
    with pytest.raises(ValueError, match="ball words collide"):
        run_node_algorithm_on_oriented_graph(
            two_round_local_maximum(2), graph, orientation, values
        )
