"""Unit and regression tests for the speedup algorithms' memo.

Covers the memo of :class:`~repro.speedup.NodeAlgorithm` and
:class:`~repro.speedup.EdgeAlgorithm` (a plain dict from what the
computing entity sees to its output): the batched lookup against the
per-key loop it replaces, ``None`` colours, the ball-size refusal; the
tracer's ``cache`` event end to end on finite runs (read off the memo's
growth, checked against a per-lookup recount; MetricsTracer
aggregation, TraceRecorder events, JSON reports), memo reuse across
runs, and the speedup engine's keying function — including the
regression guard for the ball tables' injectivity refusal on tori at
radius >= 2.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.algorithms.view_rules import DegreeProfileRule
from repro.core import SimRequest, simulate
from repro.graphs import cycle, orient_torus, toroidal_grid
from repro.instrumentation import MetricsTracer, TraceRecorder
from repro.speedup import (
    EdgeAlgorithm,
    NodeAlgorithm,
    ball_assignment_key,
    local_maximum_coloring,
    two_round_local_maximum,
)
from repro.speedup.finite_runner import estimate_global_success, resolve_ball_tables


# ----------------------------------------------------------------------
# The batched lookup answers as the per-key loop it replaces
# ----------------------------------------------------------------------

class _Poisoned(Exception):
    pass


#: Ball size of the recording algorithms: a radius-0 node ball, and the
#: radius-0 edge ball of its two endpoints.
_SIZE = {"node": 1, "edge": 2}


def _recording_algorithm(kind, calls, poison=None):
    """A fresh algorithm whose ``fn`` logs every assignment it computes.

    Returns the algorithm, its per-key ``evaluate`` loop and its
    ``evaluate_many``, both as functions of a list of assignments.
    """

    def colour(assignment):
        calls.append(assignment)
        if assignment == poison:
            raise _Poisoned
        # None is a colour like any other; an assignment computed twice
        # would get a second, different colour.
        return None if assignment[0] == 0 else (assignment, len(calls))

    if kind == "node":
        alg = NodeAlgorithm(1, 0, 1, 2, colour, name="recording")
        return alg, lambda keys: [alg.evaluate(a) for a in keys], alg.evaluate_many
    alg = EdgeAlgorithm(1, 0, 1, 2, lambda dim, a: colour(a), name="recording")
    return (
        alg,
        lambda keys: [alg.evaluate(0, a) for a in keys],
        lambda keys: alg.evaluate_many(0, keys),
    )


# 1, 1.0 and True are one value, so assignments built from them are one key.
BALL_VALUES = st.one_of(st.integers(0, 3), st.sampled_from([1.0, True]))
PAIRS = st.tuples(BALL_VALUES, BALL_VALUES)


@pytest.mark.parametrize("kind", ["node", "edge"])
@given(
    batches=st.lists(st.lists(PAIRS, max_size=30), max_size=4),
    poison=st.one_of(st.none(), PAIRS),
)
@example(batches=[[(1, 1), (True, True), (2, 0), (1.0, 1), (3, 3), (3, 3)]], poison=None)
@example(batches=[[(0, 0), (1, 1), (0, 0), (2, 2), (1, 1)], [(2, 2), (0, 0)]], poison=(2, 2))
def test_evaluate_many_equals_the_per_key_loop(kind, batches, poison):
    # Random assignment sequences with repeats, on a memo warmed by the
    # earlier batches: the same colours, the same fn calls in the same
    # order and the same memo, down to which of 1, 1.0 and True is
    # stored.  An fn that raises at the poisoned assignment stops both
    # at the same key.
    size = _SIZE[kind]
    poison = None if poison is None else poison[:size]
    looped_calls, batched_calls = [], []
    looped, per_key, _ = _recording_algorithm(kind, looped_calls, poison)
    batched, _, many = _recording_algorithm(kind, batched_calls, poison)
    for pairs in batches:
        keys = [pair[:size] for pair in pairs]
        outcomes = []
        for lookup in (per_key, many):
            try:
                outcomes.append(lookup(keys))
            except _Poisoned:
                outcomes.append(_Poisoned)
        assert outcomes[0] == outcomes[1]
        assert looped_calls == batched_calls
        assert repr(list(looped.memo.items())) == repr(list(batched.memo.items()))
    # Every assignment but the poisoned one was computed once, None
    # colours included.
    computed = [a for a in batched_calls if a != poison]
    assert len(set(computed)) == len(computed) == len(batched.memo)


@pytest.mark.parametrize("kind", ["node", "edge"])
def test_a_none_colour_is_memoized(kind):
    # A memo that used ``dict.get`` with a None default would recompute a
    # legitimately-None output on every lookup.
    calls = []
    alg, per_key, many = _recording_algorithm(kind, calls)
    key = (0,) * _SIZE[kind]
    assert per_key([key, key]) == [None, None]
    assert many([key, key]) == [None, None]
    assert calls == [key]
    assert list(alg.memo.values()) == [None]


def test_batched_lookup_checks_the_ball_size_on_every_miss():
    # The per-key evaluate and evaluate_many raise the same message at the
    # same key and leave the same memo, for node and edge algorithms.
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
        errors, memos = [], []
        for run in (per_key, batched):
            alg = make()
            with pytest.raises(ValueError) as raised:
                run(alg, keys_of(alg))
            errors.append(str(raised.value))
            memos.append(list(alg.memo.items()))
        assert errors[0] == errors[1]
        assert errors[0].startswith("assignment has ")
        assert memos[0] == memos[1] and memos[0]


# ----------------------------------------------------------------------
# The cache event end to end: finite runs report their memo lookups
# ----------------------------------------------------------------------

def _finite_request(alg=None, seed=3, trials=None):
    """A finite request on the 6x6 torus: one trial, or a batch."""
    graph = toroidal_grid(6, 6)
    orientation = orient_torus(graph, 6, 6)
    alg = alg if alg is not None else local_maximum_coloring(2)
    rng = random.Random(seed)

    def draw():
        return [rng.randrange(alg.values) for _ in graph.nodes()]

    given_values = (
        {"values": draw()} if trials is None
        else {"batch": [draw() for _ in range(trials)]}
    )
    return SimRequest(
        kind="finite", graph=graph, algorithm=alg,
        tables=resolve_ball_tables(alg, graph, orientation), **given_values,
    )


def _finite_run(tracer, alg=None, seed=3):
    request = _finite_request(alg, seed)
    simulate(request, tracer=tracer)
    return request.graph, request.algorithm


def _recount(request):
    """``(lookups, misses)`` of the request, one lookup per node per trial.

    A per-lookup model of the memo the request meets: a key is a miss
    the first time it is looked up and not already stored.
    """
    seen = set(request.algorithm.memo)
    batch = [request.values] if request.batch is None else request.batch
    lookups = misses = 0
    for values in batch:
        for table in request.tables:
            key = ball_assignment_key(values, table)
            lookups += 1
            if key not in seen:
                seen.add(key)
                misses += 1
    return lookups, misses


def test_traced_finite_run_reports_its_stores():
    alg = local_maximum_coloring(2)
    computed = []
    fn = alg.fn
    alg.fn = lambda assignment: computed.append(assignment) or fn(assignment)
    _finite_run(None, alg, seed=1)  # the event counts only the traced run's stores
    computed.clear()
    stored_before = len(alg.memo)
    recorder = TraceRecorder()
    _finite_run(recorder, alg, seed=3)
    (event,) = recorder.of_kind("cache")
    assert computed and event.data["misses"] == len(computed)
    assert event.data["distinct_classes"] == len(computed)
    assert len(alg.memo) == stored_before + len(computed)
    assert "bytes" not in event.data


@pytest.mark.parametrize("bits", [1, 2])
@given(seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=3),
       trials=st.lists(st.one_of(st.none(), st.integers(0, 3)), min_size=1, max_size=3))
def test_cache_event_matches_a_per_lookup_recount(bits, seeds, trials):
    # Single runs and batches, one after another on one warm memo: every
    # event's counters are what a per-lookup count of the run's keys
    # gives.
    alg = local_maximum_coloring(2, bits=bits)
    for seed, batch in zip(seeds, trials):
        request = _finite_request(alg, seed, trials=batch)
        lookups, misses = _recount(request)
        recorder = TraceRecorder()
        simulate(request, tracer=recorder)
        (event,) = recorder.of_kind("cache")
        assert event.data == {
            "engine": "finite", "lookups": lookups, "hits": lookups - misses,
            "misses": misses, "distinct_classes": misses,
            "hit_rate": (lookups - misses) / lookups if lookups else 0.0,
        }


def test_an_empty_batch_reports_no_lookups():
    # No lookups, so no division by zero: the hit rate reads 0.0.
    recorder = TraceRecorder()
    report = simulate(_finite_request(trials=0), tracer=recorder)
    assert report.outputs == [] and report.failing_nodes == []
    (event,) = recorder.of_kind("cache")
    assert (event.data["lookups"], event.data["hits"], event.data["hit_rate"]) == (0, 0, 0.0)


def test_memo_holds_each_assignment_the_run_presented():
    # After a run the memo maps exactly the run's ball assignments to fn
    # of each; a second run on other values only adds keys.
    request = _finite_request()
    alg = request.algorithm
    simulate(request)
    keys = {ball_assignment_key(request.values, table) for table in request.tables}
    assert set(alg.memo) == keys
    assert all(colour == alg.fn(key) for key, colour in alg.memo.items())
    simulate(_finite_request(alg, seed=4))
    assert keys < set(alg.memo)


def test_metrics_tracer_reports_hit_rate():
    alg = local_maximum_coloring(2)
    lookups, misses = _recount(_finite_request(alg))
    tracer = MetricsTracer()
    graph, _ = _finite_run(tracer, alg)
    m = tracer.metrics
    assert m.cache_lookups == graph.n == lookups
    assert m.cache_misses == m.cache_distinct_classes == misses == len(alg.memo)
    assert 0 < m.cache_misses < graph.n  # the torus shares assignments
    assert m.cache_hit_rate == pytest.approx((lookups - misses) / graph.n)
    # Event order: cache stats land once, before run_end.
    recorder = TraceRecorder()
    _finite_run(recorder, alg)
    kinds = [e.kind for e in recorder.events]
    assert kinds.count("cache") == 1
    assert kinds.index("cache") < kinds.index("run_end")


def test_run_metrics_round_trip_preserves_cache_counters():
    tracer = MetricsTracer()
    _finite_run(tracer)
    report = tracer.metrics.to_dict()
    assert json.loads(json.dumps(report)) == report
    assert report["cache_lookups"] == tracer.metrics.cache_lookups > 0
    assert report["cache_hits"] == tracer.metrics.cache_hits
    assert report["cache_hit_rate"] == tracer.metrics.cache_hit_rate


def test_run_metrics_without_a_cache_event_report_zero_counters():
    # A view run has no memo: its cache counters stay 0, and so does the
    # derived hit rate.
    tracer = MetricsTracer()
    request = SimRequest(kind="view", graph=cycle(8), algorithm=DegreeProfileRule(radius=1))
    simulate(request, tracer=tracer)
    report = tracer.metrics.to_dict()
    assert json.loads(json.dumps(report)) == report
    assert report["cache_lookups"] == 0
    assert report["cache_hit_rate"] == 0.0


# ----------------------------------------------------------------------
# Shared keying with the speedup engine (one key function)
# ----------------------------------------------------------------------

def test_ball_assignment_key_is_projection():
    values = [10, 20, 30, 40]
    assert ball_assignment_key(values, [3, 0, 0]) == (40, 10, 10)
    assert ball_assignment_key(values, []) == ()


def test_finite_runner_reports_cache_delta_per_run():
    request = _finite_request()
    graph, alg = request.graph, request.algorithm

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
    assert len(alg.memo) == first.metrics.cache_misses


def test_node_algorithm_memoizes_each_assignment():
    calls = []

    def fn(assignment):
        calls.append(assignment)
        return assignment[0]

    alg = local_maximum_coloring(1)
    alg.fn = fn  # count underlying evaluations directly
    key = ball_assignment_key([1, 0, 1], [0, 1, 2])
    assert alg.evaluate(key) == alg.evaluate(key)
    assert len(calls) == 1
    assert alg.memo == {key: 1}


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
