"""Unit and regression tests for the canonical-view cache layer.

Covers the cache substrate (:class:`KeyedCache` / :class:`CacheStats`),
the ``on_cache`` tracer hook end to end (MetricsTracer aggregation,
TraceRecorder events, artifact round-trips), cache reuse across runs,
and the speedup engine's shared keying function — including the
regression guard for the finite runner's injectivity refusal on tori at
radius >= 2.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.view_rules import BallSignatureColoring, DegreeProfileRule
from repro.graphs import (
    balanced_regular_tree,
    cycle,
    orient_torus,
    symmetric_cycle,
    toroidal_grid,
)
from repro.core import CachedEngine, SimRequest, simulate
from repro.instrumentation import MetricsTracer, RunMetrics, TraceRecorder
from repro.local_model import (
    CacheStats,
    KeyedCache,
    ViewCache,
    ball_assignment_key,
)
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
# Cached view engine
# ----------------------------------------------------------------------

def test_cache_reuse_across_runs_hits_everything():
    graph = cycle(32)
    rule = BallSignatureColoring(radius=2, palette=4)
    cache = ViewCache()
    request = SimRequest(kind="view", graph=graph, algorithm=rule)
    first = simulate(request, engine=CachedEngine(cache=cache))
    after_first = cache.stats.copy()
    second = simulate(request, engine=CachedEngine(cache=cache))
    assert second.outputs == first.outputs
    delta = cache.stats.delta(after_first)
    assert delta.misses == 0 and delta.hits == graph.n  # warm cache: all hits
    assert delta.distinct_classes == 0


def test_view_cache_true_flag_delegates():
    graph = balanced_regular_tree(3, 3)
    rule = DegreeProfileRule(radius=1)
    direct = run_view_algorithm(graph, rule)
    cached = run_view_algorithm(graph, rule, view_cache=True)
    assert cached.outputs == direct.outputs
    assert cached.halt_rounds == direct.halt_rounds


def test_cached_engine_materializes_one_view_per_class():
    # symmetric_cycle: rotation-invariant ports, so exactly one view class.
    graph = symmetric_cycle(40)
    rule = BallSignatureColoring(radius=2, palette=4)
    recorder = TraceRecorder()
    cache = ViewCache()
    simulate(
        SimRequest(kind="view", graph=graph, algorithm=rule),
        engine=CachedEngine(cache=cache),
        tracer=recorder,
    )
    # on_view fires only for misses — one per distinct class.
    assert len(recorder.of_kind("view")) == cache.stats.distinct_classes == 1
    (event,) = recorder.of_kind("cache")
    assert event.data["engine"] == "view"
    assert event.data["lookups"] == graph.n
    assert event.data["hits"] == graph.n - 1
    # Hook ordering: cache stats land before run_end.
    kinds = [e.kind for e in recorder.events]
    assert kinds.index("cache") < kinds.index("run_end")


def test_metrics_tracer_reports_hit_rate():
    graph = symmetric_cycle(40)
    rule = BallSignatureColoring(radius=2, palette=4)
    tracer = MetricsTracer()
    simulate(
        SimRequest(kind="view", graph=graph, algorithm=rule),
        engine=CachedEngine(),
        tracer=tracer,
    )
    m = tracer.metrics
    assert m.cache_lookups == 40
    assert m.cache_misses == m.cache_distinct_classes == 1
    assert m.cache_hit_rate == pytest.approx(39 / 40)
    assert m.views_gathered == 1  # only the materialized ball


def test_run_metrics_round_trip_preserves_cache_counters():
    graph = cycle(24)
    tracer = MetricsTracer()
    simulate(
        SimRequest(
            kind="view", graph=graph, algorithm=BallSignatureColoring(radius=1)
        ),
        engine=CachedEngine(),
        tracer=tracer,
    )
    loaded = RunMetrics.from_dict(tracer.metrics.to_dict())
    assert loaded.cache_lookups == tracer.metrics.cache_lookups
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
