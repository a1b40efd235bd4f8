"""Unit and regression tests for the memoization layer.

Covers the cache substrate (:class:`KeyedCache` / :class:`CacheStats`),
its counters against a dict model under any interleaving, the tracer's
``cache`` event end to end on finite runs (MetricsTracer aggregation,
TraceRecorder events, artifact round-trips), memo reuse across runs,
and the speedup engine's shared keying function — including the
regression guard for the ball tables' injectivity refusal on tori at
radius >= 2.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.algorithms.view_rules import DegreeProfileRule
from repro.core import SimRequest, simulate
from repro.graphs import cycle, orient_torus, toroidal_grid
from repro.instrumentation import MetricsTracer, RunMetrics, TraceRecorder
from repro.local_model import CacheStats, KeyedCache, ball_assignment_key
from repro.speedup import (
    EdgeAlgorithm,
    local_maximum_coloring,
    two_round_local_maximum,
)
from repro.speedup.finite_runner import estimate_global_success, resolve_ball_tables


# ----------------------------------------------------------------------
# CacheStats
# ----------------------------------------------------------------------

def test_stats_hit_rate_and_dict():
    stats = CacheStats(lookups=10, hits=7, misses=3, distinct_classes=3)
    assert stats.hit_rate == 0.7
    d = stats.to_dict()
    assert d["hits"] == 7 and d["hit_rate"] == 0.7
    assert CacheStats().hit_rate == 0.0  # no division by zero when idle


def test_stats_copy_is_independent_and_delta_subtracts():
    stats = CacheStats(lookups=5, hits=2, misses=3, distinct_classes=3)
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
    assert cache.stats.lookups == 1  # history survives


# ----------------------------------------------------------------------
# The counters follow a dict model under any interleaving
# ----------------------------------------------------------------------

# 1, 1.0 and True are one dict key.
KEYS = st.one_of(st.integers(-3, 3), st.sampled_from([1.0, True, (1, 2), "ab"]))
VALUES = st.one_of(
    st.none(), st.integers(), st.tuples(st.integers(), st.integers()), st.text(max_size=3)
)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), KEYS),
        st.tuples(st.just("store"), KEYS, VALUES),
        st.tuples(st.just("stats")),
        st.tuples(st.just("clear")),
    ),
    max_size=40,
)


@given(OPS)
@example([("store", 1, 0), ("store", 1.0, "abc"), ("stats",), ("store", True, (5, 6)),
          ("get", 1), ("clear",), ("store", 2, None), ("stats",)])
def test_counters_follow_a_dict_model_under_any_interleaving(ops):
    keyed = KeyedCache()
    model, expected = {}, {"lookups": 0, "hits": 0, "misses": 0}
    for op, *args in ops:
        if op == "get":
            (key,) = args
            expected["lookups"] += 1
            expected["hits" if key in model else "misses"] += 1
            assert keyed.get(key) == model.get(key, KeyedCache.MISS)
        elif op == "store":
            key, value = args
            model[key] = value
            assert keyed.store(key, value) is value
        elif op == "clear":
            model.clear()
            keyed.clear()
        else:
            stats = keyed.stats.to_dict()
            assert {name: stats[name] for name in expected} == expected
            assert stats["distinct_classes"] == len(model) == len(keyed)
    assert keyed.stats.distinct_classes == len(model)


# ----------------------------------------------------------------------
# The batched lookup answers as the per-key loop it replaces
# ----------------------------------------------------------------------

class _Poisoned(Exception):
    pass


def _per_key_loop(cache, keys, compute):
    """``get``, and ``store(key, compute(key))`` on a miss, key by key."""
    values = []
    for key in keys:
        value = cache.get(key)
        if value is KeyedCache.MISS:
            value = cache.store(key, compute(key))
        values.append(value)
    return values


@given(
    prefill=st.lists(st.tuples(KEYS, VALUES), max_size=6),
    batches=st.lists(st.tuples(st.lists(KEYS, max_size=30), st.booleans()), max_size=4),
    poison=st.one_of(st.none(), KEYS),
)
@example(prefill=[(2, "x")], batches=[([1, True, 2, 1.0, 3, 3], False)], poison=None)
@example(prefill=[], batches=[([0, 1, 0, 2, 1], False), ([2, 0], True)], poison=2)
def test_batched_lookup_equals_the_per_key_loop(prefill, batches, poison):
    # Random key sequences with repeats (1, 1.0 and True are one key),
    # on a pre-filled cache and across clear(): the same values, the same
    # compute calls in the same order and the same counters.  A compute
    # that raises at the poisoned key stops both after the same lookups.
    looped, batched = KeyedCache(), KeyedCache()
    for key, value in prefill:
        looped.store(key, value)
        batched.store(key, value)
    for keys, clear_first in batches:
        if clear_first:
            looped.clear()
            batched.clear()
        calls = {looped: [], batched: []}

        def compute_for(cache):
            def compute(key):
                calls[cache].append(key)
                if poison is not None and key == poison:
                    raise _Poisoned
                # A key computed twice would get a second, different value.
                return (key, len(calls[cache]))

            return compute

        outcomes = []
        for lookup in (
            lambda: _per_key_loop(looped, keys, compute_for(looped)),
            lambda: batched.get_or_compute_many(keys, compute_for(batched)),
        ):
            try:
                outcomes.append(lookup())
            except _Poisoned:
                outcomes.append(_Poisoned)
        assert outcomes[0] == outcomes[1]
        assert calls[looped] == calls[batched]
        assert batched.stats == looped.stats
        assert list(batched._store.items()) == list(looped._store.items())


def test_batched_lookup_checks_the_ball_size_on_every_miss():
    # The per-key evaluate and evaluate_many raise the same message at the
    # same key and leave the same counters, for node and edge algorithms.
    def node_keys(alg):
        return [(0,) * 5, (1,) * 5, (0,) * 4, (0,) * 6]

    def edge_keys(alg):
        size = alg.balls[1].size
        return [(0,) * size, (0,) * (size + 1)]

    for make, keys_of, per_key, batched in (
        (
            lambda: local_maximum_coloring(2),
            node_keys,
            lambda alg, keys: [alg.evaluate(a) for a in keys],
            lambda alg, keys: alg.evaluate_many(keys),
        ),
        (
            lambda: EdgeAlgorithm(2, 1, 1, 2, lambda dim, a: a[0], name="first-value"),
            edge_keys,
            lambda alg, keys: [alg.evaluate(1, a) for a in keys],
            lambda alg, keys: alg.evaluate_many(1, keys),
        ),
    ):
        errors, stats = [], []
        for run in (per_key, batched):
            alg = make()
            with pytest.raises(ValueError) as raised:
                run(alg, keys_of(alg))
            errors.append(str(raised.value))
            stats.append(alg.cache.stats)
        assert errors[0] == errors[1]
        assert errors[0].startswith("assignment has ")
        assert stats[0] == stats[1]


def test_traced_finite_run_reports_its_stores(monkeypatch):
    alg = local_maximum_coloring(2)
    stored = []
    store = alg.cache.store

    def recording_store(key, value):
        stored.append((key, value))
        return store(key, value)

    monkeypatch.setattr(alg.cache, "store", recording_store)
    _finite_run(None, alg, seed=1)  # the event counts only the traced run's stores
    stored.clear()
    recorder = TraceRecorder()
    _finite_run(recorder, alg, seed=3)
    (event,) = recorder.of_kind("cache")
    assert stored and event.data["misses"] == len(stored)
    assert event.data["distinct_classes"] == len(stored)
    assert "bytes" not in event.data


# ----------------------------------------------------------------------
# The cache event end to end: finite runs report their memo lookups
# ----------------------------------------------------------------------

def _finite_run(tracer, alg=None, seed=3):
    graph = toroidal_grid(6, 6)
    orientation = orient_torus(graph, 6, 6)
    alg = alg if alg is not None else local_maximum_coloring(2)
    rng = random.Random(seed)
    values = [rng.randrange(alg.values) for _ in graph.nodes()]
    request = SimRequest(
        kind="finite", graph=graph, algorithm=alg, values=values,
        tables=resolve_ball_tables(alg, graph, orientation),
    )
    simulate(request, tracer=tracer)
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
    # Event order: cache stats land once, before run_end.
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
    request = SimRequest(kind="view", graph=graph, algorithm=DegreeProfileRule(radius=1))
    simulate(request, tracer=tracer)
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
    request = SimRequest(
        kind="finite", graph=graph, algorithm=alg, values=values,
        tables=resolve_ball_tables(alg, graph, orientation),
    )

    first = MetricsTracer()
    simulate(request, tracer=first)
    second = MetricsTracer()
    simulate(request, tracer=second)

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
    # tables must refuse rather than silently alias ball positions.
    graph = toroidal_grid(5, 5)
    orientation = orient_torus(graph, 5, 5)
    with pytest.raises(ValueError, match="ball words collide"):
        resolve_ball_tables(two_round_local_maximum(2), graph, orientation)
    # ... and the refusal propagates through the global-success estimate.
    with pytest.raises(ValueError, match="ball words collide"):
        estimate_global_success(two_round_local_maximum(2), graph, orientation, trials=1)
